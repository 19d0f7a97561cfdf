"""One workload process: import ucalc from the checkout, generate the
inputs, then issue verdicts in a closed loop (the next command starts
when the last returns) and check each with the oracle.

Run by run.py; prints one JSON object.  Usage:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --spawned-at T [--trace PATH] [--setup-only]

--spawned-at is the parent's time.monotonic() just before it started
this process, so setup time covers interpreter start.  Whole rounds run
until --seconds have passed and at least the workload's minimum number
of rounds is done (--seconds 0: exactly that minimum).
"""

import argparse
import collections
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time

import oracle
import workloads
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_cli():
    """ucalc.cli from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, SRC)
    import ucalc
    import ucalc.cli

    if not os.path.abspath(ucalc.__file__).startswith(SRC + os.sep):
        raise SystemExit("ucalc imported from %s, not from %s" % (ucalc.__file__, SRC))
    return ucalc.cli


def run_verdict(main, argv):
    """(latency, exit code, payload, error) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:  # a raising verdict is a failed verdict
        error = "%s: %s" % (type(exc).__name__, exc)
    latency = time.perf_counter() - t0
    try:
        payload = json.loads(out.getvalue())
    except ValueError:
        payload = None
        error = error or "stdout is not JSON"
    return latency, code, payload, error


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cli = import_cli()
    w = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_build", "perfbench", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        batch = w.round(args.seed, 0, workdir)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            return {"setup_s": setup_s}
        return run_loop(cli, w, args, workdir, batch, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_loop(cli, w, args, workdir, batch, setup_s):
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    latencies, checks, failures, blobs = [], 0, [], []
    sizes = collections.Counter()
    start = time.perf_counter()
    rounds = 0
    try:
        while True:
            for v in batch:
                if tracer is not None:
                    tracer.request = len(latencies)
                latency, code, payload, error = run_verdict(cli.main, v.argv)
                if error is None:
                    ok, n, note = oracle.check(v, code, payload)
                else:
                    ok, n, note = False, 0, error
                latencies.append(latency)
                checks += n
                if not ok:
                    failures.append({"verdict": len(latencies) - 1, "argv": v.argv, "note": note})
                if rounds < w.rounds_min:
                    blobs.append(oracle.canonical(code, payload))
            rounds += 1
            sizes.update(workloads.input_sizes(batch))
            if rounds >= w.rounds_min and time.perf_counter() - start >= args.seconds:
                break
            # inputs of later rounds are made between rounds, outside any verdict
            batch = w.round(args.seed, rounds, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "checks": checks,
        "failures": failures,
        "digest": oracle.digest(blobs),
        "digest_verdicts": len(blobs),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sizes": dict(sizes),
        "rounds": rounds,
    }
    if tracer is not None:
        tracer.dump(args.trace)
        result["layers"] = tracer.metrics()
        result["beyond_bound_frac"] = tracer.beyond_bound_frac()
        result["missing_entry_points"] = tracer.missing
        result["spans"] = len(tracer.spans)
    return result


if __name__ == "__main__":
    print(json.dumps(main()))

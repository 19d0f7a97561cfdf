"""ucalc benchmark: run one workload at one seed and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: wp-suites, certify-scan,
identities (see perfbench/README.md).  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 measures the end-to-end metrics: several set-up-only
processes time set-up, then one workload process runs whole rounds of
verdicts for --seconds.  --trace 1 runs the workload's minimum rounds
twice in fresh processes, untraced and traced, and reports the
per-layer metrics, the tracing overhead, and whether both runs printed
the same output digest and pass the layer-separation self-check.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 11
RUN_LIMIT_S = 175


def worker(args, seconds, trace=None, setup_only=False):
    """Run perfbench/worker.py in a fresh interpreter and return its JSON.
    It is killed at args.deadline, so a whole run ends within 180 s."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds)]
    if trace:
        cmd += ["--trace", trace]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, args.deadline - spawned_at))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("worker for %s exited with %d" % (args.workload, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile, with the count of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed, sizes):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
        "sizes": sizes,
    }


def report_failures(res):
    for f in res["failures"][:5]:
        print("FAILED verdict %d: %s (%s)" % (f["verdict"], " ".join(f["argv"]), f["note"]))


def end_to_end(args):
    setups = [worker(args, 0, setup_only=True)["setup_s"] for _ in range(SETUPS - 1)]
    res = worker(args, args.seconds)
    setups.append(res["setup_s"])
    lat = res["latencies"]
    failed = len(res["failures"])
    p90, beyond = percentile(lat, 0.9)
    if beyond < 10:
        raise SystemExit("only %d verdicts lie beyond p90; the run is too short" % beyond)
    report_failures(res)
    print("env %s" % json.dumps(environment(args.seed, res["sizes"]), sort_keys=True))
    print("verdicts %d in %d rounds; p90 has %d beyond it; failed_frac %d/%d = %.4f"
          % (len(lat), res["rounds"], beyond, failed, len(lat), failed / len(lat)))
    print("digest %s over the first %d verdicts" % (res["digest"], res["digest_verdicts"]))
    metrics = {
        "checks_per_s": (res["checks"] / sum(lat), "checks/s"),
        "verdict_s.p50": (statistics.median(lat), "s"),
        "verdict_s.p90": (p90, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["rss_mb"], "MB"),
    }
    return failed == 0, len(lat), failed, metrics


def self_check(workload, layers, beyond_bound):
    """Layer-separation checks of the workload design; returns the breaches."""
    bad = []
    if workload in ("wp-suites", "identities") and layers["diffeo.certify_exhaustive_frac"]:
        bad.append("certification took the exhaustive route")
    if workload == "certify-scan" and not beyond_bound > 0:
        bad.append("every certification passed the coefficient bound")
    if workload == "identities":
        for name in ("diffeo.induced_calls", "weakprod.mul_calls",
                     "weakprod.conjugate_calls", "weakprod.entry_induced_calls"):
            if layers[name]:
                bad.append("%s is %s" % (name, layers[name]))
    if workload == "wp-suites" and not layers["diffeo.induced_repeat_frac"] > 0:
        bad.append("no induced map was requested twice")
    return bad


def traced(args):
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, "trace-%s-%d.jsonl" % (args.workload, args.seed))
    plain = worker(args, 0)
    res = worker(args, 0, trace=spans)
    metrics = {name: tuple(pair) for name, pair in res["layers"].items()}
    layers = {name: value for name, (value, _) in metrics.items()}
    metrics["trace.overhead_frac"] = (sum(res["latencies"]) / sum(plain["latencies"]) - 1, "ratio")
    failed = len(res["failures"])
    report_failures(res)
    bad = self_check(args.workload, layers, res["beyond_bound_frac"])
    same = plain["digest"] == res["digest"]
    for breach in bad:
        print("SELF-CHECK FAILED on %s: %s" % (args.workload, breach))
    if not same:
        print("DIGEST MISMATCH: untraced %s, traced %s" % (plain["digest"], res["digest"]))
    if res["missing_entry_points"]:
        print("entry points not found: %s" % ", ".join(res["missing_entry_points"]))
    print("env %s" % json.dumps(environment(args.seed, res["sizes"]), sort_keys=True))
    print("digest %s over the first %d verdicts, traced and untraced %s"
          % (res["digest"], res["digest_verdicts"], "agree" if same else "DIFFER"))
    print("spans %d written to %s" % (res["spans"], os.path.relpath(spans, ROOT)))
    ok = failed == 0 and not plain["failures"] and same and not bad
    return ok, len(res["latencies"]), failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "ucalc", "cli.py")):
        print("no ucalc source at %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    ok, attempted, failed, metrics = (traced if args.trace else end_to_end)(args)
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

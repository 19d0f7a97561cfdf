"""Command-line front end: one subcommand per engine area, JSON
conversion, and `verify`, which runs a suite from `ucalc.suites`.

Results go to stdout as JSON with a one-line human summary on stderr.
Refused input exits 2 with the error (and, for JSON, its path) on
stdout; a failed computation exits 1.
"""

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .balls import (
    ClopenRegion,
    CoverIncomplete,
    ball_from_json,
    ball_to_json,
    region_from_json,
    region_to_json,
    subordinate_partition,
    verify_partition,
)
from .calculus import CompositeTooLarge, DQPoint, OutOfDomain, dq1, model_from_json, model_to_json
from .cia import NotAUnit, Singular, alg_inverse, algebra_from_json, algebra_to_json
from .diffeo import (
    BallEndo,
    CertifiedDiffeo,
    IterationBudgetExceeded,
    NotCertified,
    certify_omega,
    induced_level_map,
    invert_at,
)
from .padic import ParseError, scalar_from_json, scalar_to_json, vector_from_json, vector_to_json
# SUITES is re-exported: tools that trace the suites patch ucalc.cli.SUITES
from .suites import SUITES, ConfigInvalid, SuiteConfig, UnknownSuite, run_suite  # noqa: F401
from .weakprod import (
    GlobalDiffeo,
    InverseEntry,
    ModelEntry,
    WeakProductElement,
    conjugate_global,
    wp_inv,
    wp_mul,
)


class UsageError(ValueError):
    """A command-line value does not fit the input it is applied to."""


_FORMATS = {
    "scalar": (scalar_from_json, scalar_to_json),
    "vector": (vector_from_json, vector_to_json),
    "ball": (ball_from_json, ball_to_json),
    "region": (region_from_json, region_to_json),
    "model": (model_from_json, model_to_json),
    "algebra": (algebra_from_json, algebra_to_json),
}


def convert(obj, src, dst):
    """Reparse a JSON value as `src` and re-emit it as `dst` in canonical
    form; the only cross-format direction is lifting a ball to a region."""
    if src not in _FORMATS or dst not in _FORMATS:
        raise ParseError("unknown format; known: %s" % ", ".join(sorted(_FORMATS)))
    value = _FORMATS[src][0](obj)
    if src == dst:
        return _FORMATS[dst][1](value)
    if (src, dst) == ("ball", "region"):
        return region_to_json(ClopenRegion([value]))
    raise ParseError("no conversion from %s to %s" % (src, dst))


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Command handlers. Each returns (exit_code, payload, human_line).


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise ParseError(str(err))
    except json.JSONDecodeError as err:
        raise ParseError("invalid JSON: %s" % err, "%s:%d:%d" % (path, err.lineno, err.colno))


def _parse_fractions(text):
    try:
        return [Fraction(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as err:
        raise ParseError("bad rational list %r (%s)" % (text, err))


def _flag_values(text, n, flag):
    """The rationals of a comma-separated flag, which must hold n of them."""
    vals = _parse_fractions(text)
    if len(vals) != n:
        raise UsageError("--%s takes %d value%s here, got %d" % (flag, n, "" if n == 1 else "s", len(vals)))
    return vals


def _cmd_partition(ns):
    region = region_from_json(_read_json(ns.region))
    cover = [region_from_json(_read_json(path)) for path in ns.cover]
    level = ns.verify_level if ns.verify_level is not None else 3
    try:
        parts = subordinate_partition(region, cover)
        count = verify_partition(region, parts, cover, level)
    except (CoverIncomplete, ValueError) as err:
        return 1, {"error": str(err)}, "partition failed: %s" % err
    payload = {
        "parts": [{"ball": ball_to_json(b), "member": i} for b, i in parts],
        "points_checked": count,
        "level": level,
    }
    return 0, payload, "partition verified: %d balls, %d points at level %d" % (
        len(parts),
        count,
        level,
    )


def _cmd_dq(ns):
    f = model_from_json(_read_json(ns.fn))
    ctx = f.ctx
    x = ctx.vector(_flag_values(ns.x, f.d, "x"))
    y = ctx.vector(_flag_values(ns.y, f.d, "y"))
    (tq,) = _flag_values(ns.t, 1, "t")
    t = ctx.from_fraction(tq)
    try:
        value = dq1(f, DQPoint(x, y, t))
    except (OutOfDomain, ValueError) as err:
        return 1, {"error": str(err)}, "dq failed: %s" % err
    return 0, {"value": vector_to_json(value)}, "dq1 = %s" % (value,)


def _cmd_verify(ns):
    cfg = SuiteConfig(
        seed=ns.seed if ns.seed is not None else 42,
        p=ns.p if ns.p is not None else 3,
        d=ns.d,
        e=ns.e,
        N=ns.N if ns.N is not None else 12,
        m=ns.verify_level if ns.verify_level is not None else 3,
        samples=ns.samples,
        deg=ns.deg,
    )
    report = run_suite(ns.suite, cfg)
    ok = report.passed == report.checks
    human = "suite %s: %d/%d passed (%.2fs)" % (
        ns.suite,
        report.passed,
        report.checks,
        report.wall_time,
    )
    return (0 if ok else 1), report.to_json(), human


# `diffeo induced` lists the image of each of the p^(d*m) level-m cells;
# a level with more cells than this is refused before certification
MAX_INDUCED_CELLS = 2 ** 16


def too_many_cells(p, d, m):
    """p^(d*m) > MAX_INDUCED_CELLS; as p >= 2, capping the exponent at the
    budget's bit length keeps the answer and the power small."""
    return p ** min(d * m, MAX_INDUCED_CELLS.bit_length()) > MAX_INDUCED_CELLS


def _ball_ints(ctx, frs):
    """A point of O^d given by rationals, as the ints u*p^v of its scalars
    cut to N digits; ValueError when a coordinate has negative valuation."""
    out = []
    for q in frs:
        c = ctx.from_fraction(q)
        if c.v < 0:
            raise ValueError("y lies outside the unit ball")
        out.append(0 if c.is_zero else c.u * ctx.p ** c.v)
    return tuple(out)


def _certified(model):
    endo = BallEndo(model)
    return CertifiedDiffeo(endo=endo, cert=certify_omega(endo))


def _cmd_diffeo(ns):
    model = model_from_json(_read_json(ns.endo))
    if ns.action == "invert":
        y = _flag_values(ns.y, model.d, "y")
        if not 1 <= ns.prec <= model.ctx.N:
            raise UsageError("--prec must be between 1 and the precision N=%d, got %d" % (model.ctx.N, ns.prec))
    if ns.action == "induced" and ns.m < 1:
        raise UsageError("--m must be a positive int, got %d" % ns.m)
    if ns.action == "induced" and too_many_cells(model.ctx.p, model.d, ns.m):
        raise UsageError("--m %d gives %d^%d cells, more than the %d allowed"
                         % (ns.m, model.ctx.p, model.d * ns.m, MAX_INDUCED_CELLS))
    if ns.action == "certify":
        try:
            endo = BallEndo(model)
        except ValueError as err:
            return 1, {"certified": False, "error": str(err)}, "not a self-map: %s" % err
        try:
            cert = certify_omega(endo)
        except NotCertified as err:
            payload = {
                "certified": False,
                "witness": [str(w) for w in err.witness] if err.witness else None,
            }
            return 1, payload, "certification failed: %s" % err
        return 0, {"certified": True, "v_min": cert.v_min}, "certified with v_min %d" % cert.v_min
    g = _certified(model)
    if ns.action == "invert":
        try:
            pre = invert_at(g, _ball_ints(model.ctx, y), ns.prec)
        except (ValueError, IterationBudgetExceeded) as err:
            return 1, {"error": str(err)}, "inversion failed: %s" % err
        x = model.ctx.vector(pre)
        return 0, {"preimage": vector_to_json(x)}, "preimage = %s" % (x,)
    perm = induced_level_map(g, ns.m)
    return 0, {"perm": list(perm), "m": ns.m}, "induced map on %d cells" % len(perm)


def _cmd_alg(ns):
    A = algebra_from_json(_read_json(ns.alg))
    elt = vector_from_json(_read_json(ns.elt))
    try:
        inv = alg_inverse(A, elt)
    except (NotAUnit, Singular) as err:
        return 1, {"error": str(err)}, "inversion failed: %s" % err
    return 0, {"inverse": vector_to_json(inv)}, "inverse computed"


def _entry_to_json(entry, m):
    out = {"induced": list(entry.induced(m)), "level": m}
    if isinstance(entry, ModelEntry):
        out["kind"] = "model"
        out["model"] = model_to_json(entry.g.gamma)
    elif isinstance(entry, InverseEntry):
        out["kind"] = "inverse"
        out["inverse_of"] = model_to_json(entry.g.gamma)
    else:
        out["kind"] = "composite"
    return out


def _load_bundle(path, ball_ids=False):
    obj = _read_json(path)
    if not isinstance(obj, dict) or not all(
        isinstance(obj.get(key), list) for key in ("index", "support")
    ):
        raise ParseError("bundle needs index and support arrays")
    base = os.path.dirname(os.path.abspath(path))

    def decode_id(raw, where):
        if ball_ids:
            return ball_from_json(raw, where)
        return json.dumps(raw, sort_keys=True)

    index = [decode_id(raw, "$.index[%d]" % i) for i, raw in enumerate(obj["index"])]
    support = {}
    for i, item in enumerate(obj["support"]):
        where = "$.support[%d]" % i
        if not isinstance(item, dict) or "id" not in item or "endo" not in item:
            raise ParseError("support item needs id and endo", where)
        key = decode_id(item["id"], where + ".id")
        endo = item["endo"]
        if isinstance(endo, str):
            endo = _read_json(os.path.join(base, endo))
        support[key] = _certified(model_from_json(endo, where + ".endo"))
    return WeakProductElement(index, support)


def _element_payload(element, m, ball_ids=False):
    def encode_id(key):
        return ball_to_json(key) if ball_ids else json.loads(key)

    return {
        "index": [encode_id(key) for key in element.index_set],
        "support": [
            {"id": encode_id(key), "entry": _entry_to_json(entry, m)}
            for key, entry in sorted(element.support.items(), key=lambda kv: repr(kv[0]))
        ],
    }


def _cmd_wp(ns):
    level = ns.verify_level if ns.verify_level is not None else 3
    try:
        if ns.action == "mul":
            out = wp_mul(_load_bundle(ns.a), _load_bundle(ns.b))
        elif ns.action == "inv":
            out = wp_inv(_load_bundle(ns.a))
        else:
            obj = _read_json(ns.glob)
            if not isinstance(obj, dict) or not isinstance(obj.get("pieces", []), list):
                raise ParseError("global diffeo needs a region and a pieces array")
            region = region_from_json(obj.get("region"), "$.region")
            pieces = []
            for i, item in enumerate(obj.get("pieces", [])):
                where = "$.pieces[%d]" % i
                if not isinstance(item, dict):
                    raise ParseError("piece needs source, target and chart", where)
                src = ball_from_json(item.get("source"), where + ".source")
                dst = ball_from_json(item.get("target"), where + ".target")
                chart = _certified(model_from_json(item.get("chart"), where + ".chart"))
                pieces.append((src, dst, chart))
            gd = GlobalDiffeo(region, pieces)
            out = conjugate_global(gd, _load_bundle(ns.eta, ball_ids=True))
            payload = _element_payload(out, min(level, 2), ball_ids=True)
            return 0, payload, "conjugated: support on %d balls" % len(out.support)
    except ParseError:
        raise
    except CompositeTooLarge as err:
        flags = "--a and --b" if ns.action == "mul" else "--global and --eta"
        raise UsageError("%s (maps from %s)" % (err, flags)) from None
    except (ValueError, NotCertified) as err:
        return 1, {"error": str(err)}, "wp %s failed: %s" % (ns.action, err)
    payload = _element_payload(out, min(level, 3))
    return 0, payload, "wp %s: support size %d" % (ns.action, len(out.support))


def _cmd_convert(ns):
    out = convert(_read_json(ns.file), ns.src, ns.dst)
    return 0, out, "converted %s -> %s" % (ns.src, ns.dst)


# built on the first call and reused: in-process callers of main (test
# suites, batch drivers, benchmarks) pay for the argparse tree once
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="ucalc",
        description="exact difference-quotient calculus over the p-adic integers",
    )
    parser.add_argument("--p", type=int, help="prime (default 3)")
    parser.add_argument("--N", type=int, help="relative precision in digits (default 12)")
    parser.add_argument("--seed", type=int, help="master seed for suites (default 42)")
    parser.add_argument(
        "--verify-level",
        type=int,
        help="check level m of partition, verify and the wp payloads (default 3); "
        "diffeo accepts it and ignores it, as certification is exact at every level",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("partition", help="partition a region subordinate to a cover")
    sp.add_argument("--region", required=True)
    sp.add_argument("--cover", required=True, nargs="+")
    sp.set_defaults(handler=_cmd_partition)

    sp = sub.add_parser("dq", help="order-1 difference quotient of a model")
    sp.add_argument("--fn", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--t", required=True)
    sp.set_defaults(handler=_cmd_dq)

    sp = sub.add_parser("verify", help="run a seeded verification suite")
    sp.add_argument("suite")
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--e", type=int, default=1)
    sp.add_argument("--deg", type=int, default=3)
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("diffeo", help="certify, invert or truncate a ball self-map")
    sp.add_argument("action", choices=["certify", "invert", "induced"])
    sp.add_argument("--endo", required=True)
    sp.add_argument("--level", type=int,
                    help="accepted and ignored (certify): certification is exact at every level")
    sp.add_argument("--y", help="target point (invert)")
    sp.add_argument("--prec", type=int, default=12, help="digits of preimage (invert)")
    sp.add_argument("--m", type=int, default=2, help="induced map level (induced)")
    sp.set_defaults(handler=_cmd_diffeo)

    sp = sub.add_parser("alg", help="structure-constant algebra operations")
    sp.add_argument("action", choices=["invert"])
    sp.add_argument("--alg", required=True)
    sp.add_argument("--elt", required=True)
    sp.set_defaults(handler=_cmd_alg)

    sp = sub.add_parser("wp", help="weak-product element operations")
    sp.add_argument("action", choices=["mul", "inv", "conjugate"])
    sp.add_argument("--a", help="element bundle (mul, inv)")
    sp.add_argument("--b", help="second element bundle (mul)")
    sp.add_argument("--global", dest="glob", help="global diffeo file (conjugate)")
    sp.add_argument("--eta", help="ball-indexed element bundle (conjugate)")
    sp.set_defaults(handler=_cmd_wp)

    sp = sub.add_parser("convert", help="reparse and canonicalize a JSON file")
    sp.add_argument("--file", required=True)
    sp.add_argument("--from", dest="src", required=True, choices=sorted(_FORMATS))
    sp.add_argument("--to", dest="dst", required=True, choices=sorted(_FORMATS))
    sp.set_defaults(handler=_cmd_convert)

    return parser


# the global flags each command reads; the others are refused, not ignored.
# diffeo still accepts --verify-level (and certify --level), which no longer
# change any verdict, because the certify-scan benchmark workload passes them
_GLOBAL_FLAGS = {
    "verify": ("p", "N", "seed", "verify_level"),
    "partition": ("verify_level",),
    "diffeo": ("verify_level",),
    "wp": ("verify_level",),
}


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    for flag in ("p", "N", "seed", "verify_level"):
        if getattr(ns, flag) is not None and flag not in _GLOBAL_FLAGS.get(ns.command, ()):
            parser.error("%s does not use --%s" % (ns.command, flag.replace("_", "-")))
    if ns.command == "wp":
        needed = {"mul": ("a", "b"), "inv": ("a",), "conjugate": ("glob", "eta")}[ns.action]
        for attr in needed:
            if getattr(ns, attr) is None:
                parser.error("wp %s needs --%s" % (ns.action, "global" if attr == "glob" else attr))
    if ns.command == "diffeo" and ns.action == "invert" and ns.y is None:
        parser.error("diffeo invert needs --y")
    try:
        code, payload, human = ns.handler(ns)
    except ParseError as err:
        return _refuse(2, {"error": str(err), "path": err.path}, "parse error: %s" % err)
    except (UnknownSuite, ConfigInvalid, UsageError) as err:
        return _refuse(2, {"error": str(err)}, "usage error: %s" % err)
    except (ValueError, ArithmeticError, RuntimeError) as err:
        return _refuse(1, {"error": str(err)}, "error: %s" % err)
    sys.stdout.write(canonical_json(payload))
    print(human, file=sys.stderr)
    return code


def _refuse(code, payload, human):
    """Error payloads go to stdout on one line, not in canonical form."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    print(human, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

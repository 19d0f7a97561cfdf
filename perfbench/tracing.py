"""Per-layer tracing of ucalc from outside its source.

`Tracer.install()` replaces each traced entry point by a timing wrapper,
in the module or class that defines it and in every ucalc module that
imported the name (diffeo, weakprod and cli bind calculus helpers at
import time).  Wrappers keep one frame per active call; a call's self
time is its duration minus the time of the traced calls inside it and
of the tracer's own bookkeeping, and a layer's self time sums the self
times of its calls.

Coarse entry points are recorded as spans (request, layer, name, start,
end, parent).  Hot ones, which run millions of times a run (evaluations,
valuations, piece lookups), only add to counts and summed times keyed by
the enclosing span.  Entry points missing from the program are skipped
and listed in `missing`.
"""

import json
import time
from collections import defaultdict

# (module, attribute or Class.method, layer, recorded as a span)
ENTRY_POINTS = [
    ("ucalc.padic", "fraction_valuation", "padic", False),
    ("ucalc.padic", "PadicContext.from_fraction", "padic", False),
    ("ucalc.padic", "scalar_from_json", "padic", False),
    ("ucalc.padic", "scalar_to_json", "padic", False),
    ("ucalc.balls", "ClopenRegion.__init__", "balls", False),
    ("ucalc.balls", "ClopenRegion.contains_fractions", "balls", False),
    ("ucalc.balls", "ClopenRegion.contains_ball", "balls", False),
    ("ucalc.balls", "ClopenRegion.contains_region", "balls", False),
    ("ucalc.balls", "ClopenRegion.intersect", "balls", False),
    ("ucalc.balls", "ClopenRegion.minus", "balls", False),
    ("ucalc.balls", "ball_relation", "balls", False),
    ("ucalc.balls", "IndicatorFunction.at_fractions", "balls", False),
    ("ucalc.balls", "subordinate_partition", "balls", True),
    ("ucalc.balls", "partition_of_unity", "balls", True),
    ("ucalc.balls", "verify_partition", "balls", True),
    ("ucalc.calculus", "FunctionModel.__init__", "calculus", False),
    ("ucalc.calculus", "FunctionModel._eval_fr", "calculus", False),
    ("ucalc.calculus", "FunctionModel._find_piece", "calculus", False),
    ("ucalc.calculus", "FunctionModel._symbolic", "calculus", False),
    ("ucalc.calculus", "_dqk_fr", "calculus", False),
    ("ucalc.calculus", "_local_coeffs", "calculus", False),
    ("ucalc.calculus", "_image_in_ball", "calculus", False),
    ("ucalc.calculus", "directional", "calculus", False),
    ("ucalc.calculus", "compose", "calculus", True),
    ("ucalc.calculus", "find_certificate", "calculus", True),
    ("ucalc.calculus", "model_add", "calculus", False),
    ("ucalc.calculus", "model_scale", "calculus", False),
    ("ucalc.calculus", "identity_model", "calculus", False),
    ("ucalc.calculus", "product_model", "calculus", False),
    ("ucalc.calculus", "check_chain_rule", "calculus", True),
    ("ucalc.calculus", "check_scaling", "calculus", True),
    ("ucalc.calculus", "check_eval_derivative", "calculus", True),
    ("ucalc.calculus", "check_composition_derivative", "calculus", True),
    ("ucalc.calculus", "model_from_json", "calculus", False),
    ("ucalc.cia", "_gauss_inverse", "cia", False),
    ("ucalc.cia", "StructAlgebra.__init__", "cia", False),
    ("ucalc.cia", "StructAlgebra._mul_fr", "cia", False),
    ("ucalc.cia", "alg_inverse", "cia", True),
    ("ucalc.cia", "tensor_right_inverse", "cia", True),
    ("ucalc.cia", "check_inversion_derivative", "cia", True),
    ("ucalc.diffeo", "BallEndo.__init__", "diffeo", True),
    ("ucalc.diffeo", "certify_omega", "diffeo", True),
    ("ucalc.diffeo", "_omega_witness_search", "diffeo", True),
    ("ucalc.diffeo", "isometry_check", "diffeo", True),
    ("ucalc.diffeo", "invert_at", "diffeo", True),
    ("ucalc.diffeo", "_preimage_ball", "diffeo", True),
    ("ucalc.diffeo", "compose_diffeos", "diffeo", True),
    ("ucalc.diffeo", "induced_level_map", "diffeo", True),
    ("ucalc.weakprod", "wp_mul", "weakprod", True),
    ("ucalc.weakprod", "wp_inv", "weakprod", True),
    ("ucalc.weakprod", "conjugate_global", "weakprod", True),
    ("ucalc.weakprod", "oplus_apply", "weakprod", True),
    ("ucalc.weakprod", "WeakProductElement.__init__", "weakprod", False),
    ("ucalc.weakprod", "GlobalDiffeo.__init__", "weakprod", False),
    ("ucalc.weakprod", "_compose_entries", "weakprod", False),
    ("ucalc.weakprod", "ModelEntry.induced", "weakprod", False),
    ("ucalc.weakprod", "InverseEntry.induced", "weakprod", False),
    ("ucalc.weakprod", "ComposedEntry.induced", "weakprod", False),
    ("ucalc.weakprod", "IdentityEntry.induced", "weakprod", False),
    ("ucalc.cli", "main", "cli", True),
    ("ucalc.cli", "run_suite", "cli", True),
    ("ucalc.cli", "_read_json", "cli", False),
    ("ucalc.cli", "_load_model", "cli", False),
    ("ucalc.cli", "_load_region", "cli", False),
    ("ucalc.cli", "_load_ball", "cli", False),
    ("ucalc.cli", "_load_vector", "cli", False),
    ("ucalc.cli", "_load_scalar", "cli", False),
    ("ucalc.cli", "canonical_json", "cli", False),
]

# cli entry points whose outermost calls make up cli.json_s
JSON_POINTS = {"ucalc.cli." + n for n in (
    "_read_json", "_load_model", "_load_region", "_load_ball", "_load_vector",
    "_load_scalar", "canonical_json")}

ENTRY_INDUCED = ["ucalc.weakprod.%s.induced" % c for c in
                 ("ModelEntry", "InverseEntry", "ComposedEntry", "IdentityEntry")]


def _map_key(g, m):
    """Content of a certified map plus the level: equal maps built twice
    count as a repeat."""
    frac = getattr(getattr(g, "gamma", None), "_frac", None)
    if frac is None:
        return (id(g), m)
    return (m, tuple(sorted(
        (b.k, b.ints, tuple(tuple(sorted(P.items())) for P in polys))
        for b, polys in frac.items()
    )))


class Tracer:
    def __init__(self):
        # frame: [layer, child time, enclosing span name, span id, own name]
        self.stack = [[None, 0.0, "root", 0, "root"]]
        self.spans = []
        self.agg = {}
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(int)
        self.sums = defaultdict(float)
        self.request = 0
        self.missing = []
        self._seen_maps = set()
        self._patched = []
        self._next_span = 1

    # -- hooks: (args, token) -> extra counts, run after the call returns

    def _pre(self, name, args):
        if name == "ucalc.calculus.FunctionModel._symbolic":
            model, ball, j = args[0], args[1], args[2]
            return (ball, j) in getattr(model, "_sym", ())
        if name == "ucalc.diffeo.induced_level_map":
            return _map_key(args[0], args[1])
        return None

    def _post(self, name, args, result, exc, token, parent):
        c = self.counts
        if name == "ucalc.calculus.FunctionModel._find_piece" and exc is None:
            if parent[4] == "ucalc.calculus.FunctionModel._eval_fr":
                pieces = args[0].pieces
                for i, (b, _) in enumerate(pieces):
                    if b is result:
                        break
                c["eval_probes"] += i + 1
        elif name == "ucalc.calculus.FunctionModel._symbolic":
            c["symbolic_hits" if token else "symbolic_builds"] += 1
        elif name == "ucalc.calculus._dqk_fr":
            if parent[4] != name:
                c["dq_calls"] += 1
        elif name == "ucalc.calculus.FunctionModel._eval_fr":
            if parent[2] == "ucalc.diffeo.invert_at":
                c["fixed_point_evals"] += 1
        elif name == "ucalc.balls.verify_partition":
            region, parts, level = args[0], args[1], args[3]
            m = max(level, region.max_level(), max((b.k for b, _ in parts), default=0))
            c["cells_verified"] += sum(
                b.ctx.p ** (b.d * (m - b.k)) for b in region.balls)
        elif name == "ucalc.cia._gauss_inverse":
            c["gauss_ops"] += len(args[0]) ** 3
        elif name == "ucalc.diffeo.certify_omega":
            if exc is not None:
                c["certify_rejects"] += 1
            if exc is not None or getattr(result, "method", None) != "coefficient-bound":
                c["certify_beyond_bound"] += 1
        elif name == "ucalc.diffeo._omega_witness_search":
            endo, m = args[0], args[1]
            p, d = endo.ctx.p, endo.d
            c["quotients_scanned"] += p ** (2 * d * m) * (p ** m + 1)
        elif name == "ucalc.diffeo.induced_level_map":
            g, m = args[0], args[1]
            c["induced_cells"] += g.endo.ctx.p ** (g.endo.d * m)
            if token in self._seen_maps:
                c["induced_repeats"] += 1
            self._seen_maps.add(token)

    _HOOKED_PRE = {"ucalc.calculus.FunctionModel._symbolic", "ucalc.diffeo.induced_level_map"}
    _HOOKED_POST = {
        "ucalc.calculus.FunctionModel._find_piece", "ucalc.calculus.FunctionModel._symbolic",
        "ucalc.calculus._dqk_fr", "ucalc.calculus.FunctionModel._eval_fr",
        "ucalc.balls.verify_partition", "ucalc.cia._gauss_inverse",
        "ucalc.diffeo.certify_omega", "ucalc.diffeo._omega_witness_search",
        "ucalc.diffeo.induced_level_map",
    }

    def _wrap(self, fn, layer, name, span):
        stack, agg, spans = self.stack, self.agg, self.spans
        layer_self, sums = self.layer_self, self.sums
        perf = time.perf_counter
        pre = self._pre if name in self._HOOKED_PRE else None
        post = self._post if name in self._HOOKED_POST else None
        is_json = name in JSON_POINTS
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            token = None
            if pre:
                h0 = perf()
                token = pre(name, args)
                parent[1] += perf() - h0
            if span:
                sid = tracer._next_span
                tracer._next_span += 1
                frame = [layer, 0.0, name, sid, name]
            else:
                frame = [layer, 0.0, parent[2], parent[3], name]
            stack.append(frame)
            result = exc = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = perf()
                stack.pop()
                elapsed = t1 - t0
                own = elapsed - frame[1]
                parent[1] += elapsed
                layer_self[layer] += own
                key = (name, parent[2])
                entry = agg.get(key)
                if entry is None:
                    entry = agg[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += own
                if is_json and parent[4] not in JSON_POINTS:
                    sums["json_s"] += elapsed
                if span:
                    spans.append((sid, tracer.request, layer, name, t0, t1, parent[3], own))
                if post:
                    post(name, args, result, exc, token, parent)
                # bookkeeping and hooks are tracer overhead: no layer's self time
                parent[1] += perf() - t1

        return wrapper

    def install(self):
        import importlib
        import sys

        for modname, attr, layer, span in ENTRY_POINTS:
            module = importlib.import_module(modname)
            owner_name, _, fname = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(fname) if isinstance(owner, type) else None
            else:
                original = getattr(module, fname, None)
            if original is None:
                self.missing.append("%s.%s" % (modname, attr))
                continue
            wrapper = self._wrap(original, layer, "%s.%s" % (modname, attr), span)
            if owner_name:
                self._patch(owner, fname, wrapper)
                continue
            for other in [m for n, m in sys.modules.items() if n.startswith("ucalc")]:
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, wrapper)
        # the suite drivers are reached through this registry only
        suites = importlib.import_module("ucalc.cli").SUITES
        for key, fn in list(suites.items()):
            self._patched.append((suites, key, fn, True))
            suites[key] = self._wrap(fn, "cli", "ucalc.cli.suite:" + key, True)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, key, original, is_item in reversed(self._patched):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched = []

    # -- results

    def count(self, name):
        return sum(e[0] for (n, _), e in self.agg.items() if n == name)

    def metrics(self):
        """Per-layer metrics; ratios are 0 when their base is 0."""
        c = self.counts
        count = self.count

        def frac(num, den):
            return num / den if den else 0.0

        evals = count("ucalc.calculus.FunctionModel._eval_fr")
        certify = count("ucalc.diffeo.certify_omega")
        induced = count("ucalc.diffeo.induced_level_map")
        symbolic = c["symbolic_builds"] + c["symbolic_hits"]
        out = {
            "padic.self_s": (self.layer_self["padic"], "s"),
            "padic.valuations": (count("ucalc.padic.fraction_valuation"), "count"),
            "calculus.self_s": (self.layer_self["calculus"], "s"),
            "calculus.evals": (evals, "count"),
            "calculus.piece_probes_per_eval": (frac(c["eval_probes"], evals), "probes/eval"),
            "calculus.symbolic_builds": (c["symbolic_builds"], "count"),
            "calculus.symbolic_hit_frac": (frac(c["symbolic_hits"], symbolic), "ratio"),
            "calculus.dq_calls": (c["dq_calls"], "count"),
            "balls.self_s": (self.layer_self["balls"], "s"),
            "balls.regions_built": (count("ucalc.balls.ClopenRegion.__init__"), "count"),
            "balls.partitions": (count("ucalc.balls.subordinate_partition"), "count"),
            "balls.cells_verified": (c["cells_verified"], "count"),
            "cia.self_s": (self.layer_self["cia"], "s"),
            "cia.inversions": (count("ucalc.cia._gauss_inverse"), "count"),
            "cia.gauss_ops": (c["gauss_ops"], "ops"),
            "diffeo.self_s": (self.layer_self["diffeo"], "s"),
            "diffeo.certify_calls": (certify, "count"),
            "diffeo.certify_exhaustive_frac": (
                frac(count("ucalc.diffeo._omega_witness_search"), certify), "ratio"),
            "diffeo.certify_reject_frac": (frac(c["certify_rejects"], certify), "ratio"),
            "diffeo.quotients_scanned": (c["quotients_scanned"], "count"),
            "diffeo.induced_calls": (induced, "count"),
            "diffeo.induced_cells": (c["induced_cells"], "count"),
            "diffeo.induced_repeat_frac": (frac(c["induced_repeats"], induced), "ratio"),
            "diffeo.invert_calls": (count("ucalc.diffeo.invert_at"), "count"),
            "diffeo.fixed_point_evals": (c["fixed_point_evals"], "count"),
            "diffeo.compose_calls": (count("ucalc.diffeo.compose_diffeos"), "count"),
            "weakprod.self_s": (self.layer_self["weakprod"], "s"),
            "weakprod.mul_calls": (count("ucalc.weakprod.wp_mul"), "count"),
            "weakprod.conjugate_calls": (count("ucalc.weakprod.conjugate_global"), "count"),
            "weakprod.entry_induced_calls": (sum(count(n) for n in ENTRY_INDUCED), "count"),
            "cli.self_s": (self.layer_self["cli"], "s"),
            "cli.json_s": (self.sums["json_s"], "s"),
        }
        return out

    def beyond_bound_frac(self):
        """Share of certify calls the coefficient bound did not settle."""
        certify = self.count("ucalc.diffeo.certify_omega")
        return self.counts["certify_beyond_bound"] / certify if certify else 0.0

    def dump(self, path):
        """Write spans and aggregated call statistics as JSON lines."""
        with open(path, "w") as fh:
            for sid, req, layer, name, t0, t1, parent, own in self.spans:
                fh.write(json.dumps({"span": sid, "request": req, "layer": layer,
                                     "name": name, "start": t0, "end": t1,
                                     "parent": parent, "self_s": own}) + "\n")
            for (name, parent), (n, total, own) in sorted(self.agg.items()):
                fh.write(json.dumps({"calls": name, "parent": parent, "count": n,
                                     "total_s": total, "self_s": own}) + "\n")

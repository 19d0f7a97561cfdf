"""Fuzzing of the model loader through the command line.

Valid model files are mutated at random: keys dropped, values swapped
for values of another type, digits put out of range, p replaced by a
huge or composite number, and pieces nested inside or equal to other
pieces.  `convert --from model` and `diffeo certify` then run in-process
on each file.  Every run must exit with 0, 1 or 2, print one JSON object
on stdout and no traceback.

Swapped ints include the limits on valuations and on codim and one past
each, with both signs; a valuation or codim past its limit must be
refused before it costs time or memory.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from datetime import timedelta

from hypothesis import given, settings, strategies as st

from ucalc.balls import Ball
from ucalc.calculus import MAX_CODIM, FunctionModel, model_to_json, product_model
from ucalc.cli import main
from ucalc.padic import MAX_VALUATION, PRIME_BOUND, PadicContext


def _bases():
    ctx3, ctx2 = PadicContext(3, 6), PadicContext(2, 8)
    root = Ball.from_ints(ctx3, (0,), 0)
    one_piece = FunctionModel([(root, {(1,): ctx3.vector([1]), (2,): ctx3.vector([3])})], e=1)
    # x + 3x^2 on the level-1 balls, with a piece-dependent constant
    split = FunctionModel([
        (b, {(0,): ctx3.vector([3 * b.ints[0]]), (1,): ctx3.vector([1]), (2,): ctx3.vector([3])})
        for b in root.children()
    ], e=1)
    square = Ball.from_ints(ctx2, (0,), 0)
    product = product_model([(square, square, {(1, 0): ctx2.vector([1, 0]), (0, 1): ctx2.vector([0, 1])})], e=2)
    return [model_to_json(f) for f in (one_piece, split, product)]


BASES = _bases()

# p values that a loader must refuse or survive: primes far above every
# test prime, the primality bound itself, and numbers that are not prime
HUGE_P = [2 ** 61 - 1, 2 ** 89 - 1, PRIME_BOUND, PRIME_BOUND + 2, 2 ** 64, 0, 1, 4]

# ints at the loader's limits and one past them
LIMITS = [n for b in (MAX_VALUATION, MAX_CODIM) for n in (b, b + 1, -b, -b - 1)]

OTHER_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.sampled_from(LIMITS), st.text(max_size=3), st.just("inf"),
    st.lists(st.integers(-1, 3), max_size=3), st.just({}), st.floats(allow_nan=False, width=16),
)


def _paths(node, prefix=()):
    """Every path into a JSON tree, below its root."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _parent(obj, path):
    for key in path[:-1]:
        obj = obj[key]
    return obj


@st.composite
def mutated_models(draw):
    obj = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "swap", "digit", "prime", "nest"]))
        paths = list(_paths(obj))
        if kind == "digit":
            paths = [q for q in paths if len(q) > 1 and q[-2] == "digits"]
        elif kind == "prime":
            paths = [q for q in paths if q[-1] == "p"]
        if kind == "nest":
            pieces = obj.get("pieces") if isinstance(obj, dict) else None
            if isinstance(pieces, list) and pieces:
                piece = copy.deepcopy(draw(st.sampled_from(pieces)))
                ball = piece.get("ball") if isinstance(piece, dict) else None
                if isinstance(ball, dict) and type(ball.get("k")) is int:
                    ball["k"] += draw(st.integers(0, 2))
                pieces.append(piece)
            continue
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        parent = _parent(obj, path)
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "swap":
            parent[path[-1]] = draw(OTHER_VALUES)
        elif kind == "digit":
            parent[path[-1]] = draw(st.sampled_from([-1, 2, 3, 5, 99, 2 ** 70]))
        else:
            parent[path[-1]] = draw(st.sampled_from(HUGE_P))
    return obj


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120, deadline=timedelta(seconds=10))
@given(obj=mutated_models())
def test_mutated_model_files_exit_cleanly(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        for argv in (["convert", "--file", path, "--from", "model", "--to", "model"],
                     ["diffeo", "certify", "--endo", path]):
            code, out, err = _run(argv)
            assert code in (0, 1, 2), (argv, code, out)
            assert isinstance(json.loads(out), dict), out
            assert "Traceback" not in err

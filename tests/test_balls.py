import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ucalc.balls import (
    Ball,
    BallIndex,
    ClopenRegion,
    CoverIncomplete,
    EmptyRegion,
    IndicatorFunction,
    NotContained,
    ball_from_json,
    ball_to_json,
    cutoff,
    partition_of_unity,
    region_from_json,
    region_to_json,
    subordinate_partition,
    verify_partition,
)
from ucalc.padic import PadicContext, fraction_valuation

from reference import ball_relation

CTX3 = PadicContext(3, 8)
CTX2 = PadicContext(2, 8)


def B(ctx, ints, k):
    return Ball.from_ints(ctx, ints, k)


def R(*balls):
    return ClopenRegion(balls)


def test_center_canonicalization():
    b1 = Ball(CTX3.vector([4]), 1)
    b2 = Ball(CTX3.vector([1]), 1)
    assert b1 == b2
    assert b1.ints == (1,)
    # level 0 has a single ball regardless of center
    assert Ball(CTX3.vector([7]), 0) == Ball(CTX3.vector([0]), 0)


def test_ball_rejects_bad_input():
    with pytest.raises(ValueError):
        Ball(CTX3.vector([1]).scale(CTX3.from_fraction("1/3")), 1)
    with pytest.raises(ValueError):
        Ball(CTX3.vector([1]), -1)
    with pytest.raises(ValueError):
        Ball(CTX3.vector([1]), CTX3.N + 1)


def test_relation_basic():
    root = B(CTX3, (0,), 0)
    b0 = B(CTX3, (0,), 1)
    b1 = B(CTX3, (1,), 1)
    assert ball_relation(root, b0) == "B1_contains_B2"
    assert ball_relation(b0, root) == "B2_contains_B1"
    assert ball_relation(b0, b1) == "disjoint"
    assert ball_relation(b0, B(CTX3, (3,), 1)) == "equal"


@pytest.mark.parametrize("ctx", [CTX3, CTX2])
def test_relation_matches_exhaustive_membership(ctx):
    rng = random.Random(7)
    p = ctx.p
    for _ in range(200):
        k1, k2 = rng.randint(0, 3), rng.randint(0, 3)
        b1 = B(ctx, (rng.randrange(p ** k1), rng.randrange(p ** k1)), k1)
        b2 = B(ctx, (rng.randrange(p ** k2), rng.randrange(p ** k2)), k2)
        m = max(k1, k2) + 1
        pts1 = set(b1.level_reps(m))
        pts2 = set(b2.level_reps(m))
        rel = ball_relation(b1, b2)
        if rel == "equal":
            assert pts1 == pts2
        elif rel == "disjoint":
            assert not (pts1 & pts2)
        elif rel == "B1_contains_B2":
            assert pts2 < pts1
        else:
            assert pts1 < pts2


def test_balls_merge_full_sibling_family():
    region = R(B(CTX3, (0,), 1), B(CTX3, (1,), 1), B(CTX3, (2,), 1))
    assert region.balls == (B(CTX3, (0,), 0),)


def test_balls_of_complement_of_subball():
    z3 = R(B(CTX3, (0,), 0))
    region = z3.minus(R(B(CTX3, (0,), 1)))
    assert region.balls == (B(CTX3, (1,), 1), B(CTX3, (2,), 1))


def test_empty_region_has_no_balls_and_is_refused():
    empty = ClopenRegion([])
    assert empty.empty and empty.balls == ()
    with pytest.raises(EmptyRegion):
        subordinate_partition(empty, [R(B(CTX3, (0,), 0))])


def test_canonicalization_absorbs_nested():
    region = R(B(CTX3, (0,), 0), B(CTX3, (1,), 1), B(CTX3, (4,), 2))
    assert region.balls == (B(CTX3, (0,), 0),)


def test_canonicalization_merges_recursively():
    # a full tiling of Z_3 at mixed levels collapses to the root
    pieces = [B(CTX3, (0,), 1), B(CTX3, (2,), 1)]
    pieces += [B(CTX3, (1 + 3 * t,), 2) for t in range(3)]
    assert R(*pieces).balls == (B(CTX3, (0,), 0),)


def test_subordinate_partition_frozen_example():
    z3 = R(B(CTX3, (0,), 0))
    cover = [R(B(CTX3, (0,), 1)), z3]
    parts = subordinate_partition(z3, cover)
    assert parts == [
        (B(CTX3, (0,), 1), 0),
        (B(CTX3, (1,), 1), 1),
        (B(CTX3, (2,), 1), 1),
    ]


def test_subordinate_partition_first_member_wins():
    z3 = R(B(CTX3, (0,), 0))
    parts = subordinate_partition(z3, [z3, R(B(CTX3, (0,), 1))])
    assert parts == [(B(CTX3, (0,), 0), 0)]


def test_cover_incomplete_carries_witness():
    z3 = R(B(CTX3, (0,), 0))
    with pytest.raises(CoverIncomplete) as err:
        subordinate_partition(z3, [R(B(CTX3, (0,), 1))])
    assert "lies in no cover member" in str(err.value)


def test_partition_of_unity_sums_to_one():
    z3 = R(B(CTX3, (0,), 0))
    cover = [R(B(CTX3, (0,), 1), B(CTX3, (1,), 1)), z3]
    hs = partition_of_unity(z3, cover)
    assert len(hs) == len(cover)
    for pt in z3.level_points(3):
        assert sum(h.at_fractions(pt) for h in hs) == 1
    # empty cover member contributes the zero indicator
    hs2 = partition_of_unity(z3, [ClopenRegion([]), z3])
    assert all(hs2[0].at_fractions(pt) == 0 for pt in z3.level_points(2))


def test_random_partitions_verify_exhaustively():
    rng = random.Random(20260818)
    for p, ctx in ((3, CTX3), (2, CTX2)):
        for _ in range(25):
            d = rng.choice([1, 2])
            root = B(ctx, (0,) * d, 0)
            region = R(root)
            # random cover: some sub-balls plus the root as a tail member
            members = []
            for _ in range(rng.randint(1, 3)):
                k = rng.randint(0, 2)
                ints = tuple(rng.randrange(p ** k) for _ in range(d))
                members.append(R(B(ctx, ints, k)))
            members.append(region)
            parts = subordinate_partition(region, members)
            n = verify_partition(region, parts, members, 3)
            assert n == p ** (3 * d)


def test_cutoff_coarsens_greedily():
    z3 = R(B(CTX3, (0,), 0))
    sub = R(B(CTX3, (0,), 1))
    h = cutoff(sub, z3)
    # parent of 3Z_3 fits inside U, so the support grows to all of Z_3
    assert h.support == z3
    assert cutoff(z3, z3).support == z3


def test_cutoff_stops_at_excluded_ball():
    u = R(B(CTX3, (0,), 1), B(CTX3, (1,), 1))
    k = R(B(CTX3, (0,), 2))
    h = cutoff(k, u)
    assert h.support == R(B(CTX3, (0,), 1))
    for pt in k.level_points(3):
        assert h.at_fractions(pt) == 1
    for pt in R(B(CTX3, (2,), 1)).level_points(3):
        assert h.at_fractions(pt) == 0


def test_cutoff_not_contained():
    with pytest.raises(NotContained):
        cutoff(R(B(CTX3, (0,), 0)), R(B(CTX3, (0,), 1)))


def test_indicator_is_locally_constant():
    h = IndicatorFunction(R(B(CTX3, (0,), 1)))
    for pt in B(CTX3, (0,), 1).level_reps(2):
        assert h.at_fractions(pt) == 1
        assert h.support.contains_ints(pt)
    assert h.at_fractions((1,)) == 0
    assert h.at_fractions((Fraction(3, 2),)) == 1
    assert not h.support.contains_ints((1,))


def test_region_set_algebra_exhaustive():
    rng = random.Random(5)
    p, d, m = 3, 1, 3
    universe = list(B(CTX3, (0,), 0).level_reps(m))

    def random_region():
        balls = []
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(0, m)
            balls.append(B(CTX3, (rng.randrange(p ** k),), k))
        return R(*balls)

    for _ in range(60):
        a, b = random_region(), random_region()
        set_a = {pt for pt in universe if any(x.contains_ints(pt) for x in a.balls)}
        set_b = {pt for pt in universe if any(x.contains_ints(pt) for x in b.balls)}
        inter = a.intersect(b)
        diff = a.minus(b)
        uni = R(*a.balls, *b.balls)
        set_i = {pt for pt in universe if any(x.contains_ints(pt) for x in inter.balls)}
        set_d = {pt for pt in universe if any(x.contains_ints(pt) for x in diff.balls)}
        set_u = {pt for pt in universe if any(x.contains_ints(pt) for x in uni.balls)}
        assert set_i == set_a & set_b
        assert set_d == set_a - set_b
        assert set_u == set_a | set_b


def test_ball_json_roundtrip():
    b = B(CTX3, (4, 2), 2)
    assert ball_from_json(ball_to_json(b)) == b
    region = R(B(CTX3, (0,), 1), B(CTX3, (2,), 1))
    assert region_from_json(region_to_json(region)) == region
    with pytest.raises(ValueError):
        ball_from_json({"center": [], "k": 0})
    with pytest.raises(ValueError):
        ball_from_json({"k": 0})


def test_level_points_order_and_count():
    region = R(B(CTX2, (0, 0), 1))
    pts = list(region.level_points(2))
    assert len(pts) == 4
    assert len(set(pts)) == 4
    assert all(x % 2 == 0 and y % 2 == 0 for x, y in pts)


# Differential tests of the two membership decisions that visit no
# points: verify_partition's measure route against a reference point
# enumeration (same count, or both refuse), and
# ClopenRegion.contains_fractions against a reference copy of the
# per-ball test, over p in {2, 3, 5}, d in {1, 2}.

CTXS = {p: PadicContext(p, 8) for p in (2, 3, 5)}


def _enumerated_partition(region, parts, cover, level):
    """Reference: every point of the region mod p^m, against every part."""
    m = max(level, region.max_level(), max((b.k for b, _ in parts), default=0))
    for b, i in parts:
        if not region.contains_ball(b):
            raise ValueError("part ball %r sticks out of the region" % (b,))
        if not cover[i].contains_ball(b):
            raise ValueError("part ball %r not inside cover member %d" % (b, i))
    count = 0
    for pt in region.level_points(m):
        hits = [
            j for j, (b, _) in enumerate(parts)
            if all((x - c) % b.ctx.p ** b.k == 0 for x, c in zip(pt, b.ints))
        ]
        if len(hits) != 1:
            raise ValueError(
                "point %s (mod p^%d) covered %d times" % (list(pt), m, len(hits))
            )
        count += 1
    return count


def _verdict(check, *args):
    """The count checked, or ValueError when the partition is refused."""
    try:
        return check(*args)
    except ValueError:
        return ValueError


def _top_level(p, d):
    """Finest ball level drawn: one level more stays within about a
    thousand cells, so the reference enumeration stays quick."""
    k = 1
    while k < 3 and p ** (d * (k + 2)) <= 1000:
        k += 1
    return k


@st.composite
def _ball(draw, ctx, d, top):
    k = draw(st.integers(0, top))
    return B(ctx, tuple(draw(st.integers(0, ctx.p ** k - 1)) for _ in range(d)), k)


@st.composite
def _regions(draw, ctx, d, top, min_size=1):
    return ClopenRegion(draw(st.lists(_ball(ctx, d, top), min_size=min_size, max_size=3)))


@st.composite
def tagged_partitions(draw):
    """(region, cover, exact tagged partition, level) on Z_p^d."""
    p = draw(st.sampled_from(sorted(CTXS)))
    d = draw(st.sampled_from((1, 2)))
    ctx, top = CTXS[p], _top_level(p, d)
    region = draw(_regions(ctx, d, top))
    cover = [draw(_regions(ctx, d, top)) for _ in range(draw(st.integers(0, 2)))]
    cover.append(R(B(ctx, (0,) * d, 0)))
    parts = subordinate_partition(region, cover)
    return region, cover, parts, draw(st.integers(0, top + 1))


def _split(parts, data):
    """A part replaced by its children, and the indices of the children."""
    i = data.draw(st.integers(0, len(parts) - 1))
    b, tag = parts[i]
    kids = [(c, tag) for c in b.children()]
    return parts[:i] + kids + parts[i + 1:], st.integers(i, i + len(kids) - 1)


def _overlap(region, cover, parts, data):
    extra = parts[data.draw(st.integers(0, len(parts) - 1))]
    return parts + [extra]


def _overlap_of_equal_measure(region, cover, parts, data):
    # one child stands in for a sibling: the cell count is unchanged
    parts, kids = _split(parts, data)
    j, k = data.draw(st.lists(kids, min_size=2, max_size=2, unique=True))
    parts[j] = parts[k]
    return parts


def _gap(region, cover, parts, data):
    parts, kids = _split(parts, data)
    del parts[data.draw(kids)]
    return parts


def _outside_region(region, cover, parts, data):
    ctx, d = region.ctx, region.d
    rest = R(B(ctx, (0,) * d, 0)).minus(region)
    assume(not rest.empty)
    stray = rest.balls[data.draw(st.integers(0, len(rest.balls) - 1))]
    return parts + [(stray, len(cover) - 1)]


def _outside_member(region, cover, parts, data):
    i = data.draw(st.integers(0, len(parts) - 1))
    b = parts[i][0]
    wrong = [j for j, member in enumerate(cover) if not member.contains_ball(b)]
    assume(wrong)
    return parts[:i] + [(b, data.draw(st.sampled_from(wrong)))] + parts[i + 1:]


@settings(max_examples=60, deadline=None)
@given(tagged_partitions())
def test_partition_measure_route_matches_enumeration_on_exact_covers(case):
    region, cover, parts, level = case
    assert verify_partition(region, parts, cover, level) == _enumerated_partition(
        region, parts, cover, level
    )


@pytest.mark.parametrize("edit", [
    _overlap, _overlap_of_equal_measure, _gap, _outside_region, _outside_member,
])
@settings(max_examples=30, deadline=None)
@given(case=tagged_partitions(), data=st.data())
def test_partition_measure_route_refuses_like_enumeration(edit, case, data):
    region, cover, parts, level = case
    bad = edit(region, cover, parts, data)
    assert _verdict(_enumerated_partition, region, bad, cover, level) is ValueError
    assert _verdict(verify_partition, region, bad, cover, level) is ValueError


def test_partition_refusals_name_the_overlap_or_the_cell_shortfall():
    ctx = CTXS[3]
    region, cover = R(B(ctx, (0,), 0)), [R(B(ctx, (0,), 0))]
    kids = [(c, 0) for c in B(ctx, (0,), 0).children()]
    with pytest.raises(ValueError, match=r"part balls .* and .* overlap"):
        verify_partition(region, kids + [kids[0]], cover, 1)
    with pytest.raises(ValueError, match=r"parts cover 6 of the region's 9 cells mod p\^2"):
        verify_partition(region, kids[1:], cover, 2)
    assert verify_partition(region, kids, cover, 2) == 9


@pytest.mark.parametrize("ctx", sorted(CTXS.values(), key=lambda c: c.p), ids=lambda c: "p%d" % c.p)
def test_partition_of_empty_region_checks_no_points(ctx):
    cover = [R(B(ctx, (0, 0), 0))]
    assert verify_partition(ClopenRegion([]), [], cover, 2) == 0
    assert _enumerated_partition(ClopenRegion([]), [], cover, 2) == 0


def _per_ball_contains(region, frs):
    """Reference: each ball tests each coordinate's valuation and residue."""
    for b in region.balls:
        p, m = b.ctx.p, b.ctx.p ** b.k
        if any(fraction_valuation(fr, p) < 0 for fr in frs):
            continue
        pt = tuple(fr.numerator * pow(fr.denominator, -1, m) % m if m > 1 else 0 for fr in frs)
        if pt == b.ints:
            return True
    return False


@st.composite
def _coordinate(draw, p, kind, c, k):
    """A coordinate near c mod p^k: an integer, a rational whose lowest-terms
    denominator is a p-adic unit, or one whose denominator p divides."""
    unit = st.integers(1, 60).filter(lambda u: u % p)
    if kind == "p-denominator":
        num = draw(st.integers(-p ** 4, p ** 4).filter(lambda a: a % p))
        return Fraction(num, p ** draw(st.integers(1, 2)) * draw(unit))
    u = 1 if kind == "integral" else draw(unit)
    num = c * u + p ** k * draw(st.integers(-p ** 3, p ** 3)) + draw(st.sampled_from((0, 0, 1)))
    return Fraction(num, u)


@pytest.mark.parametrize("kind", ["integral", "unit-denominator", "p-denominator", "mixed"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_region_contains_fractions_matches_per_ball_reference(kind, data):
    p = data.draw(st.sampled_from(sorted(CTXS)))
    d = data.draw(st.sampled_from((1, 2)))
    ctx = CTXS[p]
    region = data.draw(_regions(ctx, d, 3, min_size=0))
    near = data.draw(_ball(ctx, d, 3)) if region.empty else data.draw(st.sampled_from(region.balls))
    kinds = ["integral", "unit-denominator", "p-denominator"] if kind == "mixed" else [kind]
    frs = tuple(
        data.draw(_coordinate(p, data.draw(st.sampled_from(kinds)), c, near.k)) for c in near.ints
    )
    want = _per_ball_contains(region, frs)
    assert region.contains_fractions(frs) is want
    assert any(b.contains_fractions(frs) for b in region.balls) is want
    if kind == "p-denominator" or region.empty:
        assert want is False


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_region_contains_ints_matches_contains_fractions(data):
    """Int points near a ball of the region, carrying digits past the
    region's finest level, some negative, some moved by one p^j."""
    p = data.draw(st.sampled_from(sorted(CTXS)))
    d = data.draw(st.sampled_from((1, 2)))
    ctx = CTXS[p]
    region = data.draw(_regions(ctx, d, 3, min_size=0))
    near = data.draw(_ball(ctx, d, 3)) if region.empty else data.draw(st.sampled_from(region.balls))
    top = region.max_level()
    pt = tuple(
        c + p ** near.k * data.draw(st.integers(-p ** (top + 4), p ** (top + 4)))
        + data.draw(st.sampled_from((0, 0, p ** data.draw(st.integers(0, top + 2)))))
        for c in near.ints
    )
    want = region.contains_fractions(tuple(map(Fraction, pt)))
    assert region.contains_ints(pt) is want
    assert any(b.contains_ints(pt) for b in region.balls) is want


# Differential tests of BallIndex, the one decision of point location,
# containment and overlap, against ball_relation scans and point sets at
# the finest level, over p in {2, 3, 5}, d in {1, 2} and levels <= 4, with
# equal and nested balls in the families.

def _index_top(p, d):
    """Finest level drawn: at most 4, and at most 10^4 cells at it."""
    k = 1
    while k < 4 and p ** (d * (k + 1)) <= 10 ** 4:
        k += 1
    return k


@st.composite
def _families(draw, ctx, d, top):
    """A list of balls of which some are copies, children or ancestors of
    others, in a drawn order."""
    balls = draw(st.lists(_ball(ctx, d, top), max_size=5))
    for _ in range(draw(st.integers(0, 3)) if balls else 0):
        b = draw(st.sampled_from(balls))
        kind = draw(st.sampled_from(("equal", "child", "ancestor")))
        if kind == "equal":
            balls.append(B(ctx, b.ints, b.k))
        elif kind == "child" and b.k < top:
            balls.append(draw(st.sampled_from(b.children())))
        elif kind == "ancestor" and b.k > 0:
            balls.append(B(ctx, b.ints, draw(st.integers(0, b.k - 1))))
    return draw(st.permutations(balls))


def _scan_index(family):
    """Reference: (kept, nested) by scanning, coarsest level first, for an
    earlier kept ball equal to or holding each ball."""
    kept, nested = [], []
    for b in sorted(family, key=lambda b: b.k):
        outer = next((a for a in kept if ball_relation(a, b) in ("equal", "B1_contains_B2")), None)
        if outer is None:
            kept.append(b)
        else:
            nested.append((outer, b))
    return kept, nested


def _cells(balls, m):
    return {pt for b in balls for pt in b.level_reps(m)}


def _maximal_balls(ctx, d, cells, m):
    """Reference canonical form: every ball of level <= m whose cells all
    lie in the set, and whose parent's do not."""
    out = []
    for k in range(m + 1):
        for ints in itertools.product(range(ctx.p ** k), repeat=d):
            b = B(ctx, ints, k)
            if all(pt in cells for pt in b.level_reps(m)) and not (
                k > 0 and all(pt in cells for pt in b.parent().level_reps(m))
            ):
                out.append(b)
    return tuple(sorted(out, key=lambda b: (b.k, b.ints)))


@st.composite
def _index_cases(draw):
    p = draw(st.sampled_from(sorted(CTXS)))
    d = draw(st.sampled_from((1, 2)))
    ctx, top = CTXS[p], _index_top(p, d)
    return ctx, d, top, draw(_families(ctx, d, top)), draw(_families(ctx, d, top))


@settings(max_examples=80, deadline=None)
@given(_index_cases())
def test_ball_index_matches_relation_scans(case):
    ctx, d, top, family, probes = case
    index = BallIndex(family)
    kept, nested = _scan_index(family)
    assert index.nested == nested
    assert (not index.nested) == all(
        ball_relation(a, b) == "disjoint" for a, b in itertools.combinations(family, 2)
    )
    for q in family + probes:
        want = next((a for a in kept if ball_relation(a, q) in ("equal", "B1_contains_B2")), None)
        assert index.container(q) is want
    for pt in B(ctx, (0,) * d, 0).level_reps(top):
        assert index.at(pt) is next((a for a in kept if a.contains_ints(pt)), None)


@settings(max_examples=60, deadline=None)
@given(_index_cases())
def test_region_canonical_form_and_algebra_match_point_sets(case):
    ctx, d, top, family, other = case
    a, b = ClopenRegion(family), ClopenRegion(other)
    cells_a, cells_b = _cells(family, top), _cells(other, top)
    assert a.balls == _maximal_balls(ctx, d, cells_a, top)
    assert _cells(a.intersect(b).balls, top) == cells_a & cells_b
    assert _cells(a.minus(b).balls, top) == cells_a - cells_b
    for q in other:
        assert a.contains_ball(q) is all(pt in cells_a for pt in q.level_reps(top))


def test_region_index_holds_only_the_canonical_balls():
    # three full families merge into the root: no emptied level is kept
    region = R(*B(CTX3, (0,), 0).children())
    assert region.balls == (B(CTX3, (0,), 0),)
    assert [k for k, _, _ in region.index.levels] == [0] and region.index.nested == []
    region = R(B(CTX3, (0,), 1), B(CTX3, (0,), 2), B(CTX3, (4,), 2))
    assert [k for k, _, _ in region.index.levels] == [1, 2]
    assert region.index.at((4,)) == B(CTX3, (4,), 2) and region.index.at((2,)) is None


def test_regions_from_different_spaces_are_refused():
    z3, z2, plane = R(B(CTX3, (0,), 1)), R(B(CTX2, (0,), 0)), R(B(CTX3, (0, 0), 1))
    for a, b in ((z3, z2), (z2, z3), (z3, plane)):
        for op in (lambda: a.contains_ball(b.balls[0]), lambda: a.contains_region(b),
                   lambda: a.intersect(b), lambda: a.minus(b)):
            with pytest.raises(ValueError, match="balls live in different spaces"):
                op()
    with pytest.raises(ValueError, match="balls live in different spaces"):
        R(B(CTX3, (0,), 1), B(CTX2, (1,), 1))
    with pytest.raises(ValueError, match="balls live in different spaces"):
        BallIndex([B(CTX3, (0,), 2), B(CTX3, (1, 1), 1)])
    with pytest.raises(ValueError, match="balls live in different spaces"):
        verify_partition(z3, [(z2.balls[0], 0)], [z2], 1)
    # an empty region has no space, and holds nothing of any
    assert not R().contains_ball(z2.balls[0]) and R().intersect(z2).empty
    assert z2.minus(R()) == z2


def _product_reps(b, m):
    """Reference order of level_reps: itertools.product over the offsets."""
    step, span = b.ctx.p ** b.k, b.ctx.p ** (m - b.k)
    for off in itertools.product(range(span), repeat=b.d):
        yield tuple(c + step * o for c, o in zip(b.ints, off))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_level_reps_order_matches_the_product_of_offsets(p, d):
    ctx = CTXS[p]
    rng = random.Random(p * 10 + d)
    for k in range(3):
        b = B(ctx, tuple(rng.randrange(p ** k) for _ in range(d)), k)
        assert [c.ints for c in b.children()] == list(_product_reps(b, k + 1))
        for m in range(k, k + 3):
            if p ** (d * (m - k)) <= 20000:
                assert list(b.level_reps(m)) == list(_product_reps(b, m))


def test_level_reps_is_lazy_at_any_span():
    root = B(PadicContext(3, 40), (0, 0), 0)
    assert list(itertools.islice(root.level_reps(40), 4)) == [(0, 0), (0, 1), (0, 2), (0, 3)]
    assert next(B(PadicContext(3, 40), (0,), 0).level_reps(40)) == (0,)

import itertools
import random

import pytest

from ucalc.balls import (
    Ball,
    ClopenRegion,
    CoverIncomplete,
    EmptyRegion,
    IndicatorFunction,
    NotContained,
    ball_from_json,
    ball_relation,
    ball_to_json,
    cutoff,
    partition_of_unity,
    region_from_json,
    region_to_json,
    subordinate_partition,
    verify_partition,
)
from ucalc.padic import PadicContext

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
        x = CTX3.vector(pt)
        assert sum(h(x) for h in hs) == 1
    # empty cover member contributes the zero indicator
    hs2 = partition_of_unity(z3, [ClopenRegion([]), z3])
    assert all(hs2[0](CTX3.vector(pt)) == 0 for pt in z3.level_points(2))


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
        assert h(CTX3.vector(pt)) == 1
    for pt in R(B(CTX3, (2,), 1)).level_points(3):
        assert h(CTX3.vector(pt)) == 0


def test_cutoff_not_contained():
    with pytest.raises(NotContained):
        cutoff(R(B(CTX3, (0,), 0)), R(B(CTX3, (0,), 1)))


def test_indicator_is_locally_constant():
    h = IndicatorFunction(R(B(CTX3, (0,), 1)))
    for pt in B(CTX3, (0,), 1).level_reps(2):
        assert h(CTX3.vector(pt)) == 1
    assert h(CTX3.vector([1])) == 0


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
        set_a = {pt for pt in universe if any(x.contains_ints(pt, m) for x in a.balls)}
        set_b = {pt for pt in universe if any(x.contains_ints(pt, m) for x in b.balls)}
        inter = a.intersect(b)
        diff = a.minus(b)
        uni = a.union(b)
        set_i = {pt for pt in universe if any(x.contains_ints(pt, m) for x in inter.balls)}
        set_d = {pt for pt in universe if any(x.contains_ints(pt, m) for x in diff.balls)}
        set_u = {pt for pt in universe if any(x.contains_ints(pt, m) for x in uni.balls)}
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

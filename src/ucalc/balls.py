"""Clopen ball geometry in Z_p^d: balls, regions, partitions, cutoffs.

A ball is center + p^k * O^d with the center reduced mod p^k, so every
ball has exactly one representation.  Two balls are either disjoint or
nested, which keeps all the region algebra exact and finite.
"""

from __future__ import annotations

from .padic import PadicVector, ParseError, at_path, vector_parts, vector_to_json


class EmptyRegion(ValueError):
    """An operation that needs points was handed an empty region."""


class CoverIncomplete(ValueError):
    """Some point of the region lies in no cover member."""


class NotContained(ValueError):
    """Containment precondition K subset of U fails."""


def _point_ints(frs, p, k):
    """A point of Q^d (Fractions or ints) as ints mod p**k, or None when a
    coordinate lies outside O.

    A rational in lowest terms lies in O exactly when p does not divide
    its denominator, and then its residue is num * den^-1 mod p**k.
    """
    m = p ** k
    out = []
    for fr in frs:
        num, den = fr.numerator, fr.denominator
        if den % p == 0:
            return None
        out.append(num % m if den == 1 else num * pow(den, -1, m) % m)
    return tuple(out)


def _center_ints(ctx, parts, k):
    """Residues mod p^k of a checked ball centre given as (v, u) per coordinate."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("ball level must be a nonnegative int, got %r" % (k,))
    if k > ctx.N:
        raise ValueError("ball level %d exceeds the context precision N=%d" % (k, ctx.N))
    if not parts:
        raise ValueError("ball needs dimension >= 1")
    if any(v < 0 for v, _ in parts):
        raise ValueError("ball center must lie in O^d")
    m = ctx.p ** k
    return tuple(u * ctx.p ** v % m if v < k else 0 for v, u in parts)


class Ball:
    """center + p^k O^d with canonical center digits."""

    __slots__ = ("ctx", "k", "ints")

    def __init__(self, center, k):
        if not isinstance(center, PadicVector):
            raise TypeError("center must be a PadicVector")
        self.ctx, self.k, self.ints = center.ctx, k, _center_ints(center.ctx, [(c.v, c.u) for c in center], k)

    @classmethod
    def from_ints(cls, ctx, ints, k):
        b = cls.__new__(cls)
        if k > ctx.N:
            raise ValueError(
                "ball level %d exceeds the context precision N=%d" % (k, ctx.N)
            )
        m = ctx.p ** k
        b.ctx = ctx
        b.k = k
        b.ints = tuple(i % m for i in ints)
        return b

    @property
    def d(self):
        return len(self.ints)

    @property
    def center(self):
        return self.ctx.vector(self.ints)

    def contains_ints(self, ints):
        """Membership of a point given by its residues mod p**j, any j >= k."""
        m = self.ctx.p ** self.k
        return tuple(x % m for x in ints) == self.ints

    def contains_fractions(self, frs):
        return _point_ints(frs, self.ctx.p, self.k) == self.ints

    def parent(self):
        if self.k == 0:
            raise ValueError("the root ball has no parent")
        return Ball.from_ints(self.ctx, self.ints, self.k - 1)

    def children(self):
        return [Ball.from_ints(self.ctx, ints, self.k + 1) for ints in self.level_reps(self.k + 1)]

    def level_reps(self, m):
        """All points of the ball mod p**m, as int tuples, m >= k, first
        coordinate most significant; lazy at any span."""
        if m < self.k:
            raise ValueError("representative level %d below ball level %d" % (m, self.k))
        step, start, cur = self.ctx.p ** self.k, self.ints, list(self.ints)
        end = [c + step * self.ctx.p ** (m - self.k) for c in start]
        while True:
            yield tuple(cur)
            i = len(cur) - 1
            cur[i] += step
            while cur[i] == end[i]:
                if i == 0:
                    return
                cur[i] = start[i]
                i -= 1
                cur[i] += step

    def __eq__(self, other):
        if not isinstance(other, Ball):
            return NotImplemented
        return (
            self.ctx.p == other.ctx.p
            and self.k == other.k
            and self.ints == other.ints
        )

    def __hash__(self):
        return hash((self.ctx.p, self.k, self.ints))

    def __repr__(self):
        return "Ball(p=%d, k=%d, center=%s)" % (self.ctx.p, self.k, list(self.ints))


class BallIndex:
    """The maximal balls of a family, one dict per level keyed on the
    centre mod p^k.

    Two balls are nested or disjoint, so a point or a ball lies in at most
    one indexed ball, found in one probe per level.  Balls are taken
    coarsest level first, in input order within a level; one equal to or
    inside a ball taken before it is left out and listed in `nested` as
    (that ball, it).  So `nested` is empty exactly when the family is
    pairwise disjoint.  Every ball must live in the space of the first.
    """

    __slots__ = ("ctx", "d", "levels", "nested")

    def __init__(self, balls):
        by_level, self.levels, self.nested = {}, [], []
        for b in balls:
            by_level.setdefault(b.k, []).append(b)
        self.ctx, self.d = next(((bs[0].ctx, bs[0].d) for bs in by_level.values()), (None, None))
        for k in sorted(by_level):
            level = {}
            self.levels.append((k, self.ctx.p ** k, level))
            for b in by_level[k]:
                outer = self.container(b)
                if outer is None:
                    level[b.ints] = b
                else:
                    self.nested.append((outer, b))

    def at(self, ints):
        """The ball holding a point given by its residues mod p**j, j at
        least every indexed level, or None."""
        for _, mod, level in self.levels:
            b = level.get(tuple([x % mod for x in ints]))
            if b is not None:
                return b
        return None

    def at_fractions(self, frs):
        """The ball holding a point of Q^d (Fractions or ints), or None."""
        ints = _point_ints(frs, self.ctx.p, self.levels[-1][0]) if self.levels else None
        return None if ints is None else self.at(ints)

    def container(self, b):
        """The indexed ball equal to or holding the ball b, or None: the
        one holding b's centre, unless that one is finer than b."""
        if self.levels and (b.ctx.p != self.ctx.p or b.d != self.d):
            raise ValueError("balls live in different spaces")
        outer = self.at(b.ints)
        return outer if outer is not None and outer.k <= b.k else None

    def merge_families(self):
        """Replace each complete sibling family by its parent, finest level
        first, and drop emptied levels; the index then holds the maximal
        balls in its union.  Returns those balls."""
        levels = {k: level for k, _, level in self.levels}
        for k in range(max(levels, default=0), 0, -1):
            mod, families = self.ctx.p ** (k - 1), {}
            for ints in levels.get(k, ()):
                families.setdefault(tuple(x % mod for x in ints), []).append(ints)
            for parent, sibs in families.items():
                if len(sibs) == self.ctx.p ** self.d:
                    for ints in sibs:
                        del levels[k][ints]
                    levels.setdefault(k - 1, {})[parent] = Ball.from_ints(self.ctx, parent, k - 1)
        self.levels = [(k, self.ctx.p ** k, levels[k]) for k in sorted(levels) if levels[k]]
        self.nested = []
        return [b for _, _, level in self.levels for b in level.values()]


class ClopenRegion:
    """Finite disjoint union of balls, canonicalized at construction.

    Canonical form: the maximal balls inside the union, sorted by (level,
    center digits); it is unique.  `index` is the BallIndex of the input
    with its complete sibling families merged, so it holds the canonical
    balls.
    """

    __slots__ = ("balls", "index")

    def __init__(self, balls):
        self.index = BallIndex(balls)
        self.balls = tuple(sorted(self.index.merge_families(), key=lambda b: (b.k, b.ints)))

    @property
    def empty(self):
        return not self.balls

    @property
    def ctx(self):
        if not self.balls:
            raise EmptyRegion("empty region has no context")
        return self.balls[0].ctx

    @property
    def d(self):
        if not self.balls:
            raise EmptyRegion("empty region has no dimension")
        return self.balls[0].d

    def max_level(self):
        # pieces are sorted by level, so the last one is the finest
        return self.balls[-1].k if self.balls else 0

    def contains_ints(self, ints):
        """Membership of a point given by its residues mod p**j, j at least
        the region's finest level."""
        return self.index.at(ints) is not None

    def contains_fractions(self, frs):
        return self.index.at_fractions(frs) is not None

    def contains_ball(self, b):
        return self.index.container(b) is not None

    def contains_region(self, other):
        return all(self.contains_ball(b) for b in other.balls)

    def intersect(self, other):
        # of two balls that meet, the smaller is the one the other side holds
        return ClopenRegion([a for a in self.balls if other.index.container(a)]
                            + [b for b in other.balls if self.index.container(b)])

    def minus(self, other):
        # split each ball that strictly holds a ball of other down toward
        # it; a ball left whole is inside other or disjoint from it
        split = set()
        for cut in other.balls:
            outer = self.index.container(cut)
            if outer is not None:
                split.update((j, tuple(x % cut.ctx.p ** j for x in cut.ints)) for j in range(outer.k, cut.k))
        out, stack = [], list(self.balls)
        while stack:
            b = stack.pop()
            if (b.k, b.ints) in split:
                stack.extend(b.children())
            elif other.index.container(b) is None:
                out.append(b)
        return ClopenRegion(out)

    def level_points(self, m):
        """All points of the region mod p**m, canonical order."""
        if m < self.max_level():
            raise ValueError("level %d is coarser than the region's pieces" % m)
        for b in self.balls:
            yield from b.level_reps(m)

    def __eq__(self, other):
        if not isinstance(other, ClopenRegion):
            return NotImplemented
        return self.balls == other.balls

    def __hash__(self):
        return hash(self.balls)

    def __repr__(self):
        return "ClopenRegion(%s)" % (list(self.balls),)


class IndicatorFunction:
    """Characteristic function of a clopen region; locally constant."""

    __slots__ = ("support",)

    def __init__(self, support):
        self.support = support

    def at_fractions(self, frs):
        return 1 if self.support.contains_fractions(frs) else 0

    def __repr__(self):
        return "IndicatorFunction(%r)" % (self.support,)


def subordinate_partition(region, cover):
    """Partition the region into balls, each tagged with the first cover
    member containing it; raises CoverIncomplete with a witness point."""
    if region.empty:
        raise EmptyRegion("cannot partition an empty region")
    out = []
    remaining = region
    for i, member in enumerate(cover):
        if remaining.empty:
            break
        inter = remaining.intersect(member)
        if inter.empty:
            continue
        out.extend((b, i) for b in inter.balls)
        remaining = remaining.minus(inter)
    if not remaining.empty:
        m = max(
            region.max_level(),
            remaining.max_level(),
            max((c.max_level() for c in cover if not c.empty), default=0),
        )
        witness = next(remaining.level_points(m))
        raise CoverIncomplete(
            "region point %s (mod p^%d) lies in no cover member" % (list(witness), m)
        )
    return out


def partition_of_unity(region, cover):
    """One indicator per cover member; they sum to 1 on the region."""
    parts = subordinate_partition(region, cover)
    buckets = {i: [] for i in range(len(cover))}
    for b, i in parts:
        buckets[i].append(b)
    return [IndicatorFunction(ClopenRegion(buckets[i])) for i in range(len(cover))]


def cutoff(inner, outer):
    """Indicator equal to 1 on `inner`, supported inside `outer`.

    The support is `inner` coarsened greedily: any ball whose parent
    still fits inside `outer` is replaced by that parent, repeatedly.
    """
    if inner.empty:
        raise EmptyRegion("cutoff needs a nonempty inner region")
    if not outer.contains_region(inner):
        raise NotContained("inner region is not contained in the outer one")
    current = inner
    while True:
        grown = []
        for b in current.balls:
            if b.k > 0 and outer.contains_ball(b.parent()):
                grown.append(b.parent())
            else:
                grown.append(b)
        nxt = ClopenRegion(grown)
        if nxt == current:
            break
        current = nxt
    return IndicatorFunction(current)


def _cells(balls, m):
    """Number of points mod p**m in a disjoint family of balls of level <= m."""
    return sum(b.ctx.p ** (b.d * (m - b.k)) for b in balls)


def verify_partition(region, parts, cover, level):
    """Check a tagged partition at the given level.

    Every point of the region mod p**level must lie in exactly one part
    ball, and that ball's tagged cover member must contain it.  Returns
    the number of points, the region's cells mod p**m.

    Parts that lie in the region, are pairwise disjoint and hold as many
    cells mod p**m as the region cover it exactly once: their union is a
    clopen subset of the region with the same Haar measure, so the rest
    of the region, a clopen set of measure 0, is empty.  That decides
    the partition without visiting its points.
    """
    m = max(level, region.max_level(), max((b.k for b, _ in parts), default=0))
    for b, i in parts:
        if not region.contains_ball(b):
            raise ValueError("part ball %r sticks out of the region" % (b,))
        if not cover[i].contains_ball(b):
            raise ValueError("part ball %r not inside cover member %d" % (b, i))
    nested = BallIndex(b for b, _ in parts).nested
    if nested:
        raise ValueError("part balls %r and %r overlap" % nested[0])
    covered, cells = _cells((b for b, _ in parts), m), _cells(region.balls, m)
    if covered != cells:
        raise ValueError(
            "parts cover %d of the region's %d cells mod p^%d" % (covered, cells, m)
        )
    return cells


def ball_to_json(b):
    return {"center": vector_to_json(b.center), "k": b.k}


def ball_from_json(obj, path="$"):
    if not isinstance(obj, dict) or "center" not in obj or "k" not in obj:
        raise ParseError("ball must be an object with center and k", path)
    k = obj["k"]
    if type(k) is not int:
        raise ParseError("ball level k must be an int", path + ".k")
    ctx, parts = vector_parts(obj["center"], path + ".center")
    with at_path(path):
        return Ball.from_ints(ctx, _center_ints(ctx, parts, k), k)


def region_to_json(r):
    return {"balls": [ball_to_json(b) for b in r.balls]}


def region_from_json(obj, path="$"):
    if not isinstance(obj, dict) or not isinstance(obj.get("balls"), list):
        raise ParseError("region must be an object with a balls array", path)
    balls = [ball_from_json(b, "%s.balls[%d]" % (path, i)) for i, b in enumerate(obj["balls"])]
    with at_path(path):
        return ClopenRegion(balls)

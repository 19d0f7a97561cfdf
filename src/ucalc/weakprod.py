"""Weak products of ball-indexed diffeomorphism groups.

A WeakProductElement carries one certified diffeomorphism per finitely
many indices of a finite index set, identity everywhere else.  Entries
multiply componentwise.  An inverse is not built as a model: an entry is
one of three shapes, a certified model, the formal inverse of one, or a
composition chain of those, and each acts through its induced level maps
(the inverse permutation for an inverse).  Equality of entries is always
decided through those maps, never structurally.

regroup and relabel realize the bookkeeping isomorphisms between index
sets (fiberwise grouping, bijective relabeling with per-index
conjugations), oplus_apply is the finitely supported componentwise map,
and conjugate_global pushes a whole element through a piecewise affine
global diffeomorphism of a multi-ball region.
"""

from fractions import Fraction

from .balls import BallIndex, ClopenRegion
from .calculus import OutOfDomain
from .diffeo import CertifiedDiffeo, compose_diffeos, induced_level_map


class MalformedIndex(ValueError):
    """An index set or support map violates its shape contract."""


class NotBijective(ValueError):
    """A relabeling map fails to be a bijection onto the index set."""


class ZeroConditionViolated(ValueError):
    """A componentwise map is nonzero at zero outside the exceptional set."""

    def __init__(self, msg, index):
        super().__init__(msg)
        self.index = index


class RefinementMismatch(ValueError):
    """Support balls do not line up with the pieces of a global map."""


def perm_compose(f, g):
    """The cell permutation i -> f[g[i]]: first g, then f."""
    return tuple(f[i] for i in g)


def perm_inverse(f):
    out = [0] * len(f)
    for i, j in enumerate(f):
        out[j] = i
    return tuple(out)


def _model_is_identity(g):
    """Displacement indistinguishable from zero at the working precision."""
    return g.endo.sigma.min_valuation() >= g.endo.ctx.N


class IdentityEntry:
    """The neutral entry; appears transiently inside compositions."""

    __slots__ = ("ctx", "d")

    def __init__(self, ctx, d):
        self.ctx = ctx
        self.d = d

    def is_identity(self):
        return True

    def induced(self, m):
        return tuple(range(self.ctx.p ** (self.d * m)))

    def inverse(self):
        return self

    def compose(self, other):
        return other

    def __repr__(self):
        return "IdentityEntry(p=%d, d=%d)" % (self.ctx.p, self.d)


class ModelEntry:
    """Entry backed by a certified diffeomorphism model."""

    __slots__ = ("g", "ctx", "d")

    def __init__(self, g):
        self.g = g
        self.ctx = g.endo.ctx
        self.d = g.endo.d

    def is_identity(self):
        return _model_is_identity(self.g)

    def induced(self, m):
        return induced_level_map(self.g, m)

    def inverse(self):
        return InverseEntry(self.g)

    def compose(self, other):
        return _compose_entries(self, other)

    def __repr__(self):
        return "ModelEntry(p=%d, d=%d)" % (self.ctx.p, self.d)


class InverseEntry:
    """Entry standing for the inverse of a certified diffeomorphism."""

    __slots__ = ("g", "ctx", "d")

    def __init__(self, g):
        self.g = g
        self.ctx = g.endo.ctx
        self.d = g.endo.d

    def is_identity(self):
        return _model_is_identity(self.g)

    def induced(self, m):
        return perm_inverse(induced_level_map(self.g, m))

    def inverse(self):
        return ModelEntry(self.g)

    def compose(self, other):
        return _compose_entries(self, other)

    def __repr__(self):
        return "InverseEntry(p=%d, d=%d)" % (self.ctx.p, self.d)


class ComposedEntry:
    """Left-after-right chain of entries; its induced map applies the
    right link's first."""

    __slots__ = ("left", "right", "ctx", "d")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.ctx = left.ctx
        self.d = left.d

    def is_identity(self):
        return False

    def induced(self, m):
        return perm_compose(self.left.induced(m), self.right.induced(m))

    def inverse(self):
        return ComposedEntry(self.right.inverse(), self.left.inverse())

    def compose(self, other):
        return _compose_entries(self, other)

    def __repr__(self):
        return "ComposedEntry(%r, %r)" % (self.left, self.right)


def _compose_entries(a, b):
    if a.ctx != b.ctx or a.d != b.d:
        raise ValueError("entries live on different balls")
    if a.is_identity():
        return b
    if b.is_identity():
        return a
    if isinstance(a, ModelEntry) and isinstance(b, InverseEntry) and a.g is b.g:
        return IdentityEntry(a.ctx, a.d)
    if isinstance(a, InverseEntry) and isinstance(b, ModelEntry) and a.g is b.g:
        return IdentityEntry(a.ctx, a.d)
    if isinstance(a, ModelEntry) and isinstance(b, ModelEntry):
        return ModelEntry(compose_diffeos(a.g, b.g))
    if isinstance(a, InverseEntry) and isinstance(b, InverseEntry):
        return InverseEntry(compose_diffeos(b.g, a.g))
    return ComposedEntry(a, b)


def as_entry(value):
    if isinstance(value, CertifiedDiffeo):
        return ModelEntry(value)
    if isinstance(value, (IdentityEntry, ModelEntry, InverseEntry, ComposedEntry)):
        return value
    raise MalformedIndex("unsupported entry value %r" % (value,))


class WeakProductElement:
    """Finitely supported choice of group entries over a finite index set.

    Identity entries are normalized away at construction, so the support
    always lists genuinely (at working precision, detectably) nontrivial
    components.
    """

    __slots__ = ("index_set", "support")

    def __init__(self, index_set, support):
        index_set = tuple(index_set)
        if len(set(index_set)) != len(index_set):
            raise MalformedIndex("index set has repeated ids")
        ids = set(index_set)
        entries = {}
        for key, value in support.items():
            if key not in ids:
                raise MalformedIndex("supported id %r is not in the index set" % (key,))
            entry = as_entry(value)
            if not entry.is_identity():
                entries[key] = entry
        self.index_set = index_set
        self.support = entries

    def __repr__(self):
        return "WeakProductElement(|I|=%d, support=%d)" % (
            len(self.index_set),
            len(self.support),
        )


def wp_mul(a, b):
    if a.index_set != b.index_set:
        raise ValueError("elements live over different index sets")
    support = {}
    for key in set(a.support) | set(b.support):
        ea = a.support.get(key)
        eb = b.support.get(key)
        support[key] = eb if ea is None else ea if eb is None else ea.compose(eb)
    return WeakProductElement(a.index_set, support)


def wp_inv(a):
    return WeakProductElement(
        a.index_set, {key: entry.inverse() for key, entry in a.support.items()}
    )


class GroupedElement:
    """Element of a product over parent ids whose entries are fiber tuples."""

    __slots__ = ("outer", "fibers", "support")

    def __init__(self, outer, fibers, support):
        self.outer = tuple(outer)
        self.fibers = {i: tuple(kids) for i, kids in fibers.items()}
        self.support = {i: dict(entries) for i, entries in support.items() if entries}

    def mul(self, other):
        if self.outer != other.outer or self.fibers != other.fibers:
            raise ValueError("grouped elements have different index structure")
        support = {}
        for i in set(self.support) | set(other.support):
            fa = self.support.get(i, {})
            fb = other.support.get(i, {})
            fiber = {}
            for kid in set(fa) | set(fb):
                ea, eb = fa.get(kid), fb.get(kid)
                entry = eb if ea is None else ea if eb is None else ea.compose(eb)
                if not entry.is_identity():
                    fiber[kid] = entry
            if fiber:
                support[i] = fiber
        return GroupedElement(self.outer, self.fibers, support)

    def __repr__(self):
        return "GroupedElement(|I|=%d, support=%d)" % (len(self.outer), len(self.support))


def regroup(x):
    """Group an element over pair ids (i, j) into fibers over the first
    component; inverse of flatten."""
    fibers = {}
    for key in x.index_set:
        if not (isinstance(key, tuple) and len(key) == 2):
            raise MalformedIndex("regroup needs pair ids, got %r" % (key,))
        fibers.setdefault(key[0], []).append(key)
    support = {}
    for key, entry in x.support.items():
        support.setdefault(key[0], {})[key] = entry
    return GroupedElement(sorted(fibers, key=repr), fibers, support)


def flatten(g):
    index_set = [kid for i in g.outer for kid in g.fibers[i]]
    support = {kid: entry for entries in g.support.values() for kid, entry in entries.items()}
    return WeakProductElement(index_set, support)


def relabel(x, pi, beta=None):
    """Pull an element back along a bijection pi of index sets, twisting
    each entry by an optional per-target conjugation."""
    if sorted(pi.values(), key=repr) != sorted(x.index_set, key=repr) or len(pi) != len(
        x.index_set
    ):
        raise NotBijective("relabeling is not a bijection onto the index set")
    support = {}
    for j, i in pi.items():
        if i not in x.support:
            continue
        entry = x.support[i]
        psi = beta.get(j) if beta else None
        if psi is not None:
            conj = as_entry(psi)
            entry = conj.compose(entry).compose(conj.inverse())
        support[j] = entry
    return WeakProductElement(tuple(pi), support)


def oplus_apply(fs, x, exceptional=(), param=None):
    """Componentwise application of a finite family of models to a
    finitely supported tuple.

    Every index outside the exceptional set must have f_i(0) = 0 exactly
    (f_i(0, param) = 0 in the parametrized form), which keeps the output
    finitely supported; the check runs on the stored models every call.
    """
    exceptional = set(exceptional)
    for key in exceptional:
        if key not in fs:
            raise MalformedIndex("exceptional id %r has no map" % (key,))
    for key in x:
        if key not in fs:
            raise MalformedIndex("supported id %r has no map" % (key,))
    param_frs = tuple(param.to_fractions()) if param is not None else ()
    for key, f in fs.items():
        if key in exceptional:
            continue
        zeros = (Fraction(0),) * (f.d - len(param_frs))
        try:
            vals = f._eval_fr(zeros + param_frs)
        except OutOfDomain:
            raise ZeroConditionViolated(
                "map at id %r is undefined at zero" % (key,), key
            ) from None
        if any(vals):
            raise ZeroConditionViolated(
                "map at id %r is nonzero at zero" % (key,), key
            )
    out = {}
    for key in set(x) | exceptional:
        f = fs[key]
        ctx = f.ctx
        dx = f.d - len(param_frs)
        xi = x.get(key)
        frs = tuple(xi.to_fractions()) if xi is not None else (Fraction(0),) * dx
        if len(frs) != dx:
            raise MalformedIndex(
                "value at id %r has dimension %d, map expects %d"
                % (key, len(frs), dx)
            )
        vals = f._eval_fr(frs + param_frs)
        if any(vals):
            out[key] = ctx.vector([ctx.from_fraction(q) for q in vals])
    return out


class GlobalDiffeo:
    """Piecewise affine-with-chart-twist bijection of a multi-ball region.

    pieces: list of (source Ball, target Ball, chart CertifiedDiffeo);
    source and target balls each partition the region, matched in level,
    and the piece map sends source chart coordinates through the
    certified diffeomorphism into target chart coordinates.
    """

    __slots__ = ("region", "pieces", "_by_source")

    def __init__(self, region, pieces):
        pieces = [(c, d, g) for c, d, g in pieces]
        if not pieces:
            raise ValueError("a global map needs at least one piece")
        for balls, side in (
            ([c for c, _, _ in pieces], "source"),
            ([d for _, d, _ in pieces], "target"),
        ):
            # region equality alone would let overlapping pieces through,
            # since canonicalization absorbs nested balls
            if BallIndex(balls).nested or ClopenRegion(balls) != region:
                raise ValueError("%s balls do not partition the region" % side)
        for c, d, g in pieces:
            if c.k != d.k:
                raise ValueError(
                    "piece %r -> %r changes the ball level" % (c, d)
                )
            if g.endo.ctx.p != c.ctx.p or g.endo.d != c.d:
                raise ValueError("chart map of piece %r has the wrong shape" % (c,))
        self.region = region
        self.pieces = tuple(pieces)
        self._by_source = {c: (d, g) for c, d, g in pieces}

    def __repr__(self):
        return "GlobalDiffeo(pieces=%d)" % (len(self.pieces),)


def conjugate_global(gd, eta):
    """Conjugate of a weak-product element by a global diffeomorphism.

    Each index ball must be a source piece of the global map; the result
    is indexed by the image balls, with each entry conjugated by the
    piece's chart map.
    """
    for ball in eta.index_set:
        if ball not in gd._by_source:
            raise RefinementMismatch(
                "index ball %r is not a piece of the global map; refine first"
                % (ball,)
            )
    index_set = tuple(gd._by_source[ball][0] for ball in eta.index_set)
    support = {}
    for ball, entry in eta.support.items():
        target, chart = gd._by_source[ball]
        piece = as_entry(chart)
        support[target] = piece.compose(entry).compose(piece.inverse())
    return WeakProductElement(index_set, support)

"""Independent checks of ucalc verdicts, in plain integer and Fraction
arithmetic on the generated coefficients; nothing here imports ucalc."""

import hashlib
import itertools
import json
import re
from fractions import Fraction

import maps

_FRACTION = re.compile(r"Fraction\((-?\d+), (\d+)\)")
_X = re.compile(r"x=\[([^\]]*)\]")
_Y = re.compile(r"y=\[([^\]]*)\]")
_T = re.compile(r"t=(-?\d+(?:/\d+)?)")


def valuation(q, p):
    q = Fraction(q)
    if q == 0:
        return None
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def sigma_at(pieces, p, x):
    """sigma at an integral point: the polynomials of its level-1 piece."""
    return [maps.poly_value(poly, x) for poly in pieces[maps.piece_of(p, x)]]


def _derivative_at(polys, x, y):
    out = []
    for poly in polys:
        total = 0
        for exps, c in poly.items():
            for i, n in enumerate(exps):
                if n and y[i]:
                    term = c * n * y[i]
                    for j, (xj, nj) in enumerate(zip(x, exps)):
                        term *= xj ** (nj - 1 if j == i else nj)
                    total += term
        out.append(total)
    return out


def witness_breaks_bound(pieces, p, x, y, t):
    """True when sigma, its quotient at (x, y, t), or (for y = t = 0) its
    value at x has a coordinate of valuation below v_min."""
    vmin = maps.halfball_valuation(p)
    if any(Fraction(c).denominator != 1 for c in list(x) + list(y) + [t]):
        return False
    x = [int(c) for c in x]
    y = [int(c) for c in y]
    if t:
        shifted = [a + t * b for a, b in zip(x, y)]
        vals = [
            Fraction(b - a, 1) / t
            for a, b in zip(sigma_at(pieces, p, x), sigma_at(pieces, p, shifted))
        ]
    elif any(y):
        vals = _derivative_at(pieces[maps.piece_of(p, x)], x, y)
    else:
        vals = sigma_at(pieces, p, x)
    return any(v is not None and v < vmin for v in (valuation(q, p) for q in vals))


def _fractions(text):
    return [Fraction(int(a), int(b)) for a, b in _FRACTION.findall(text)]


def parse_witness(parts):
    """(x, y, t) from ucalc's witness strings, or from the message of a
    certification failure ("... at x=[...], y=[...], t=... ...")."""
    if len(parts) == 3:
        return _fractions(parts[0]), _fractions(parts[1]), Fraction(parts[2])
    text = parts[0]
    x = _fractions(_X.search(text).group(1)) if _X.search(text) else []
    y = _fractions(_Y.search(text).group(1)) if _Y.search(text) else [0] * len(x)
    t = _T.search(text)
    return x, y, Fraction(t.group(1)) if t else Fraction(0)


def induced_perm(pieces, p, d, m):
    """Permutation of level-m cells, cells listed as ucalc's level_reps
    lists them (first coordinate most significant)."""
    mod = p ** m
    perm = []
    for x in itertools.product(range(mod), repeat=d):
        gx = [(xi + s) % mod for xi, s in zip(x, _sigma_mod(pieces, p, x, mod))]
        idx = 0
        for c in gx:
            idx = idx * mod + c
        perm.append(idx)
    return perm


def _sigma_mod(pieces, p, x, mod):
    out = []
    for poly in pieces[maps.piece_of(p, x)]:
        total = 0
        for exps, c in poly.items():
            term = c % mod
            for xi, n in zip(x, exps):
                term = term * pow(xi, n, mod) % mod
            total = (total + term) % mod
        out.append(total)
    return out


def scalar_value(obj):
    """Exact rational of a ucalc scalar JSON object."""
    if obj["v"] == "inf":
        return Fraction(0)
    p, u = obj["p"], 0
    for digit in reversed(obj["digits"]):
        u = u * p + digit
    return Fraction(u) * Fraction(p) ** obj["v"]


def check(verdict, code, payload):
    """(ok, checks, note) for one verdict; checks counts sample checks for
    suites and one per file command."""
    e = verdict.expect
    if verdict.kind == "suite":
        ok = (
            code == 0
            and payload.get("suite") == e["suite"]
            and payload.get("checks") == e["checks"]
            and payload.get("passed") == e["checks"]
            and payload.get("failure") is None
        )
        return ok, payload.get("checks", 0) if ok else 0, None if ok else "suite report"
    p, d, m, pieces = e["p"], e["d"], e["m"], e["pieces"]
    if not e["accept"]:
        if code != 1:
            return False, 0, "rejecting map was not rejected"
        parts = payload.get("witness") or [payload.get("error", "")]
        x, y, t = parse_witness(parts)
        if len(x) != d or not witness_breaks_bound(pieces, p, x, y, t):
            return False, 0, "witness does not break the bound"
        return True, 1, None
    if code != 0:
        return False, 0, "accepting map was not accepted"
    if verdict.kind == "certify":
        ok = payload.get("certified") is True and payload.get("v_min") == maps.halfball_valuation(p)
        return ok, int(ok), None if ok else "certificate payload"
    if verdict.kind == "induced":
        ok = payload.get("m") == m and payload.get("perm") == induced_perm(pieces, p, d, m)
        return ok, int(ok), None if ok else "induced permutation"
    pre = [scalar_value(s) for s in payload.get("preimage", [])]
    if len(pre) != d or any(q.denominator != 1 for q in pre):
        return False, 0, "preimage shape"
    x = [int(q) for q in pre]
    gx = [a + s for a, s in zip(x, sigma_at(pieces, p, x))]
    ok = all((g - y) % p ** e["prec"] == 0 for g, y in zip(gx, e["y"]))
    return ok, int(ok), None if ok else "preimage misses y"


def canonical(code, payload):
    """Exit code and payload without wall_time, as bytes for the digest."""
    if isinstance(payload, dict):
        payload = {k: v for k, v in payload.items() if k != "wall_time"}
    return json.dumps([code, payload], sort_keys=True).encode()


def digest(blobs):
    h = hashlib.sha256()
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()

"""Sparse multivariate polynomials keyed by exponent tuples.

Internal helper for the calculus machinery.  A polynomial is a plain dict
mapping exponent tuples (one slot per variable) to nonzero coefficients,
Fractions or ints (the integer model store); the zero polynomial is the
empty dict.  Every operation keeps ints as ints.
"""

import functools
import operator


def const(nvars, c):
    if c == 0:
        return {}
    return {(0,) * nvars: c}


def var(nvars, i):
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): 1}


def add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def neg(a):
    return {e: -c for e, c in a.items()}


def sub(a, b):
    return add(a, neg(b))


def scale(a, c):
    if c == 0:
        return {}
    return {e: c * x for e, x in a.items()}


def mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(operator.add, ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def total_degree(a):
    """Largest total degree of a monomial; 0 for the zero polynomial."""
    return max(map(sum, a), default=0)


def eval_over(a, nums, pows=None):
    """a at the point nums / L, computed on ints and scaled to an int.

    pows is [1, L, ..., L^D] with D >= total_degree(a), and the result is
    L^D a(nums / L) = sum of c_e nums^e L^(D - |e|); without pows, L = 1
    and the result is a(nums).
    """
    top = len(pows) - 1 if pows else 0
    total = 0
    for e, c in a.items():
        for x, k in zip(nums, e):
            if k:
                c *= x ** k
        if pows:
            c *= pows[top - sum(e)]
        total += c
    return total


def diff(a, i):
    out = {}
    for e, c in a.items():
        k = e[i]
        if k == 0:
            continue
        e2 = list(e)
        e2[i] = k - 1
        e2 = tuple(e2)
        s = out.get(e2, 0) + c * k
        if s:
            out[e2] = s
        else:
            out.pop(e2, None)
    return out


def subst(a, subs, nvars_new, i=0):
    """Substitute subs[j] (a poly in the new variables) for variable j,
    for every j >= i, by Horner's rule in one variable at a time: each
    step multiplies by one substituted poly, never by a power of it."""
    if i == len(subs):
        return const(nvars_new, sum(a.values()))
    by_exp = {}
    for e, c in a.items():
        by_exp.setdefault(e[i], {})[e] = c
    out = {}
    for k in range(max(by_exp, default=0), -1, -1):
        out = mul(out, subs[i])
        if k in by_exp:
            out = add(out, subst(by_exp[k], subs, nvars_new, i + 1))
    return out


def div_var(a, i):
    """Exact division by variable i; every monomial must contain it."""
    out = {}
    for e, c in a.items():
        if e[i] == 0:
            raise ValueError("polynomial not divisible by variable %d" % i)
        e2 = list(e)
        e2[i] -= 1
        out[tuple(e2)] = c
    return out


def rename(a, mapping, nvars_new):
    """Move variable i of a to slot mapping[i] of a fresh variable space."""
    out = {}
    for e, c in a.items():
        e2 = [0] * nvars_new
        for i, k in enumerate(e):
            if k:
                e2[mapping[i]] += k
        out[tuple(e2)] = c
    return out



@functools.cache
def _surjections(n):
    """(k! S(n, k) for k = 0..n), S the Stirling numbers of the second kind:
    x^n = sum_k k! S(n, k) C(x, k).  Built on first use from the row of
    n - 1 by k! S(n, k) = k ((k-1)! S(n-1, k-1) + k! S(n-1, k))."""
    if n == 0:
        return (1,)
    prev = _surjections(n - 1) + (0,)
    return (0,) + tuple(k * (prev[k - 1] + prev[k]) for k in range(1, n + 1))


def mahler(a):
    """Mahler coefficients of an integer polynomial: {K: a_K} with
    a = sum_K a_K prod_i C(x_i, K_i), zero coefficients dropped.  Each
    variable is expanded in turn by x^n = sum_k k! S(n, k) C(x, k), so a
    monomial with exponents e yields a_K = c_e prod_i K_i! S(e_i, K_i)."""
    out = a
    for i in range(len(next(iter(a), ()))):
        acc = {}
        for e, c in out.items():
            for k, r in enumerate(_surjections(e[i])):
                if r:
                    K = e[:i] + (k,) + e[i + 1:]
                    acc[K] = acc.get(K, 0) + c * r
        out = {K: c for K, c in acc.items() if c}
    return out

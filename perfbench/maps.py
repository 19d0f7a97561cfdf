"""Generated self-maps gamma = id + sigma of the unit ball O^d, written
as ucalc model JSON without importing ucalc.

sigma has one polynomial piece on each of the p^d level-1 balls.  Every
coefficient is an integer below p^N.  The constant of each piece is
chosen so that sigma takes a value of valuation exactly v_min at the
piece centre, which defeats ucalc's coefficient bound (it needs local
coefficients of valuation >= v_min + 1) and forces the exhaustive scan.

* accepting maps: every coefficient is divisible by p^v_min.  Same-piece
  quotients are then polynomials with coefficients divisible by p^v_min,
  and quotients across two level-1 pieces have a unit t and values of
  valuation >= v_min, so the Omega bound holds everywhere.
* rejecting maps: one random piece also gets a unit linear coefficient
  in a coordinate where its centre is a unit.  Its derivative in that
  direction and its values are then units, so the scan must find a
  witness.  The first quotient with t = 1 from x = 0 into that piece
  is one, so the witness appears at a depth that depends on where the
  piece comes in scan order: milliseconds, not a scan of every class.
"""

import itertools

N = 12


def halfball_valuation(p):
    return 2 if p == 2 else 1


def monomials(d, deg):
    exps = [e for e in itertools.product(range(deg + 1), repeat=d) if sum(e) <= deg]
    return sorted(exps, key=lambda e: (sum(e), e))


def level1_centres(p, d):
    """Level-1 ball centres in the order ucalc's Ball.children() lists them."""
    return list(itertools.product(range(p), repeat=d))


def poly_value(poly, x):
    """Exact value of {exps: int coefficient} at an integer or Fraction point."""
    total = 0
    for exps, c in poly.items():
        term = c
        for xi, n in zip(x, exps):
            term *= xi ** n
        total += term
    return total


def make_map(rng, p, d, accept, deg=2):
    """Random sigma as {centre: [poly per output coordinate]}; see module doc."""
    vmin = halfball_valuation(p)
    mod = p ** N
    lead = p ** vmin
    pieces = {}
    for centre in level1_centres(p, d):
        polys = []
        for _ in range(d):
            poly = {}
            for exps in monomials(d, deg):
                if sum(exps):
                    poly[exps] = lead * rng.randrange(p ** (N - vmin))
            # value at the centre is lead * w with w a unit digit
            w = rng.randrange(1, p)
            rest = poly_value(poly, centre)
            poly[(0,) * d] = (lead * w - rest) % mod
            polys.append(poly)
        pieces[centre] = polys
    if not accept:
        # a unit linear coefficient in x_i on a piece whose centre has a
        # unit i-th coordinate: sigma takes unit values on that piece
        i = rng.randrange(d)
        centre = rng.choice([c for c in pieces if c[i] % p])
        unit = rng.randrange(1, mod)
        while unit % p == 0:
            unit = rng.randrange(1, mod)
        poly = pieces[centre][rng.randrange(d)]
        exps = tuple(int(j == i) for j in range(d))
        poly[exps] = (poly.get(exps, 0) + unit) % mod
    return pieces


def piece_of(p, x):
    """Level-1 piece containing an integral point."""
    return tuple(int(xi) % p for xi in x)


def scalar_json(p, n):
    """ucalc scalar JSON of an integer 0 <= n < p^N (N base-p digits)."""
    if n == 0:
        return {"p": p, "v": "inf", "digits": [0] * N}
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    digits = []
    for _ in range(N):
        digits.append(n % p)
        n //= p
    return {"p": p, "v": v, "digits": digits}


def ball_json(p, centre, k):
    return {"center": [scalar_json(p, c) for c in centre], "k": k}


def gamma_json(p, d, pieces):
    """Model JSON of gamma = id + sigma on the unit ball."""
    out = []
    for centre, polys in pieces.items():
        coeffs = {}
        for j, poly in enumerate(polys):
            for exps, c in poly.items():
                coeffs.setdefault(exps, [0] * d)[j] = c
        for j in range(d):
            unit = tuple(int(i == j) for i in range(d))
            vec = coeffs.setdefault(unit, [0] * d)
            vec[j] = (vec[j] + 1) % p ** N
        poly = [
            {"exps": list(exps), "coef": [scalar_json(p, c) for c in vec]}
            for exps, vec in sorted(coeffs.items())
            if any(vec)
        ]
        out.append({"ball": ball_json(p, centre, 1), "poly": poly})
    return {"codim": d, "pieces": out}

"""Deciding whether bivariate polynomial systems have a common zero: the
reference for the package's smoothness decision, which no route calls.

Polynomials live in F[u, v] with F a binary field.  The question answered is
geometric: do all the polynomials vanish at some point (u0, v0) with
coordinates in an algebraic closure of F?  The closure is never
constructed; instead:

* eliminate v with a Sylvester resultant.  Res_v(f, g) is an F[u]-linear
  combination A f + B g, so any common zero (u0, v0) of f and g forces the
  resultant to vanish at u0, even when leading coefficients degenerate;
* factor the resultant over F and inspect each fiber u = u0 by passing to
  the residue field F[u]/(pi).  There the system is univariate in v and a
  gcd computation decides root existence.  Conjugate fibers are equivalent,
  so one check per irreducible factor suffices;
* when the resultant vanishes identically, the two polynomials share a
  factor d of positive v-degree (primitive-part Euclid over F[u]).  Split
  into "a zero on d" versus "a zero on the deflated system" and recurse;
  the total v-degree strictly decreases.

A bivariate polynomial is a tuple indexed by the v-exponent whose entries
are univariate polynomials in u, with no trailing zero entries; the zero
polynomial is the empty tuple.  The algorithm is written once, over a
gfarith Ring R of u-polynomials that hides their format, and so are the
factorization and the residue fields F[u]/(pi) it uses.  R has two
instances:

* F[u] for any field F of gfarith, u-polynomials as gfarith tuples
  (poly_ring(F), input built by curves.biv_from_rows);
* F_2[u] with u-polynomials as packed ints (gfarith.F2X, bound here as
  _F2_PACKED).

The public functions bind one ring each, picked by the input format: the
functions taking a field F work on tuples, the f2_ names on packed
rows.  Everything is exact and deterministic.

Smoothness itself is decided by gcds alone (curves._chart_singular_fibre,
one version over any gfarith Ring), which needs no resultant,
factorization or residue field.  This engine is the independent route
that decision is checked against, by the tests and CI, over F_2 and its
extensions.  It stays in the package rather than beside the tests because
the benchmark harness imports it and traces exists_common_zero_f2 in
every step; moving it out is a change to the benchmark.
"""

from __future__ import annotations

import functools

from .gfarith import (
    F2X,
    ResidueField,
    Ring,
    factor,
    poly_add,
    poly_degree,
    poly_from_coeffs,
    poly_gcd,
    poly_mul,
    poly_ring,
)

__all__ = [
    "biv_eval",
    "biv_deriv_u",
    "biv_deriv_v",
    "biv_mul",
    "biv_add",
    "resultant_v",
    "exists_common_zero",
    "f2_biv_deriv_u",
    "f2_biv_deriv_v",
    "exists_common_zero_f2",
]


# ---------------------------------------------------------------------------
# bivariate basics
# ---------------------------------------------------------------------------


def _strip(rows) -> tuple:
    rows = list(rows)
    while rows and not rows[-1]:
        rows.pop()
    return tuple(rows)


def biv_eval(F, f: tuple, u0, v0):
    acc = F.zero
    for p in reversed(f):
        s = F.zero
        for c in reversed(p):
            s = F.add(F.mul(s, u0), c)
        acc = F.add(F.mul(acc, v0), s)
    return acc


def biv_add(F, f: tuple, g: tuple) -> tuple:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for j, p in enumerate(g):
        out[j] = poly_add(F, out[j], p)
    return _strip(out)


def biv_mul(F, f: tuple, g: tuple) -> tuple:
    if not f or not g:
        return ()
    out = [() for _ in range(len(f) + len(g) - 1)]
    for i, p in enumerate(f):
        if not p:
            continue
        for j, q in enumerate(g):
            if q:
                out[i + j] = poly_add(F, out[i + j], poly_mul(F, p, q))
    return _strip(out)


# ---------------------------------------------------------------------------
# derivatives and the resultant in v (char 2 kills all signs)
# ---------------------------------------------------------------------------


def _deriv_u(R: Ring, f: tuple) -> tuple:
    return _strip(map(R.deriv, f))


def _deriv_v(R: Ring, f: tuple) -> tuple:
    """d/dv in characteristic 2: only odd v-exponents survive."""
    return _strip(f[j] if j % 2 == 1 else R.zero for j in range(1, len(f)))


def _det(R: Ring, mat: list):
    """Determinant over R by expansion along rows, memoized on the set of
    still-available columns (which determines the row index)."""
    n = len(mat)
    memo: dict = {}

    def minor(r: int, cols: int):
        if r == n:
            return R.one
        got = memo.get(cols)
        if got is not None:
            return got
        acc = R.zero
        rest = cols
        while rest:
            low = rest & -rest
            e = mat[r][low.bit_length() - 1]
            if e:
                acc = R.add(acc, R.mul(e, minor(r + 1, cols ^ low)))
            rest ^= low
        memo[cols] = acc
        return acc

    return minor(0, (1 << n) - 1)


def _resultant(R: Ring, f: tuple, g: tuple):
    f, g = _strip(f), _strip(g)
    if not f or not g:
        raise ValueError("resultant of the zero polynomial is not defined here")
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    if size == 0:
        return R.one
    fd, gd = f[::-1], g[::-1]
    rows = [[fd[j - i] if i <= j <= i + m else R.zero for j in range(size)] for i in range(n)]
    rows += [[gd[j - i] if i <= j <= i + n else R.zero for j in range(size)] for i in range(m)]
    return _det(R, rows)


# ---------------------------------------------------------------------------
# primitive-part Euclid in F[u][v]
# ---------------------------------------------------------------------------


def _primitive(R: Ring, f: tuple) -> tuple:
    """f divided by its content, the gcd of its u-coefficients."""
    c = R.zero
    for p in f:
        c = R.gcd(c, p)
        if R.degree(c) == 0:
            return f
    return tuple(R.divmod(p, c)[0] for p in f)


def _pseudo_rem_v(R: Ring, f: tuple, g: tuple) -> tuple:
    dg, lg = len(g) - 1, g[-1]
    while len(f) > dg:
        off, lf = len(f) - 1 - dg, f[-1]
        nxt = [R.mul(lg, c) for c in f]
        for j, c in enumerate(g):
            nxt[off + j] = R.add(nxt[off + j], R.mul(lf, c))
        assert not nxt[-1], "pseudo-division failed to cancel the top term"
        f = _strip(nxt)
    return f


def _gcd_v(R: Ring, f: tuple, g: tuple) -> tuple:
    """Gcd of the primitive parts: a gcd in F(u)[v], kept in F[u][v] and
    determined up to a unit of F, which changes neither the decision nor
    the exact divisions by it."""
    a, b = _primitive(R, f), _primitive(R, g)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(R, _pseudo_rem_v(R, a, b))
    return a


def _exact_div_v(R: Ring, f: tuple, d: tuple) -> tuple:
    f = list(f)
    dd = len(d) - 1
    lc = d[-1]
    q = [R.zero] * (len(f) - dd)
    for shift in range(len(f) - 1 - dd, -1, -1):
        top = f[shift + dd]
        if not top:
            continue
        qc, rem = R.divmod(top, lc)
        assert not rem, "division by a non-factor"
        q[shift] = qc
        for j, c in enumerate(d):
            f[shift + j] = R.add(f[shift + j], R.mul(qc, c))
    assert not any(f), "division by a non-factor"
    return _strip(q)


# ---------------------------------------------------------------------------
# the decision procedure
# ---------------------------------------------------------------------------


def _fiber_has_zero(R: Ring, pi, polys: list) -> bool:
    """Does the system vanish somewhere on the fiber u = (a root of pi)?"""
    K = ResidueField(R, pi)
    g: tuple = ()
    for p in polys:
        sp = poly_from_coeffs(K, [R.divmod(c, pi)[1] for c in p])
        if sp:
            g = poly_gcd(K, g, sp) if g else sp
            if poly_degree(g) == 0:
                return False
    return True


def _exists(R: Ring, polys) -> bool:
    nz = [p for p in map(_strip, polys) if p]
    if not nz:
        return True
    consts = [p[0] for p in nz if len(p) == 1]
    if consts:
        r = functools.reduce(R.gcd, consts)
        if R.degree(r) < 1:
            return False
        others = [p for p in nz if len(p) > 1]
        return any(_fiber_has_zero(R, pi, others) for pi, _ in factor(R, r))
    if len(nz) == 1:
        # a single curve of positive v-degree always has points over the closure
        return True
    nz.sort(key=len)
    f, g = nz[0], nz[1]
    res = _resultant(R, f, g)
    if res:
        if R.degree(res) < 1:
            return False
        return any(_fiber_has_zero(R, pi, nz) for pi, _ in factor(R, res))
    d = _gcd_v(R, f, g)
    rest = nz[2:]
    return (_exists(R, [d] + rest)
            or _exists(R, [_exact_div_v(R, f, d), _exact_div_v(R, g, d)] + rest))


# ---------------------------------------------------------------------------
# the public bindings: tuples over a field F, or packed rows over F_2
# ---------------------------------------------------------------------------


def biv_deriv_u(F, f: tuple) -> tuple:
    return _deriv_u(poly_ring(F), f)


def biv_deriv_v(F, f: tuple) -> tuple:
    return _deriv_v(poly_ring(F), f)


def resultant_v(F, f: tuple, g: tuple) -> tuple:
    """Sylvester resultant eliminating v; a polynomial in u.

    Lies in the ideal (f, g) of F[u][v], so it vanishes at the u-coordinate
    of every common zero.  Res of two v-constant polynomials is 1.
    """
    return _resultant(poly_ring(F), f, g)


def exists_common_zero(F, polys) -> bool:
    """True iff the bivariate system has a common zero over the closure of F."""
    return _exists(poly_ring(F), polys)


_F2_PACKED = F2X


def f2_biv_deriv_u(f: tuple) -> tuple:
    return _deriv_u(_F2_PACKED, f)


def f2_biv_deriv_v(f: tuple) -> tuple:
    return _deriv_v(_F2_PACKED, f)


def exists_common_zero_f2(polys) -> bool:
    """exists_common_zero over F = F_2, u-polynomials as packed ints."""
    return _exists(_F2_PACKED, polys)

"""Tests for the bivariate common-zero decision engine.

The brute-force oracle scans u0 over fields that together contain every
candidate u-coordinate, and at each u0 decides the univariate system in v.
It answers for systems with deg_v <= 1, where each nonzero polynomial is
a_i(u) v + b_i(u).  Take a common zero (u0, v0).  If some polynomial has
v-degree 0, or every a_i vanishes at u0, then u0 is a root of a nonzero
polynomial of degree <= deg_u.  Otherwise a_i(u0) != 0 for some i, so
v0 = b_i(u0)/a_i(u0), and every j has R_ij(u0) = 0 for
R_ij = a_i b_j + a_j b_i, of degree <= 2 deg_u.  If some R_ij is nonzero,
u0 has degree <= 2 deg_u.  If all vanish, every u with a_i(u) != 0
carries the common zero (u, b_i(u)/a_i(u)), and a_i has at most deg_u
roots, so any scanned field with more than deg_u elements holds such a u.

* deg_u <= 1, base F_2 or F_4: u0 can be taken of degree <= 2 over the
  base, so in F_16, and scanning F_16 decides the system.
* deg_u <= 2, base F_2: u0 can be taken of degree <= 4 over F_2, so in F_8
  (degrees 1, 3) or F_16 (degrees 1, 2, 4), and scanning both decides the
  system.  The resultants then have degree up to 4 and often several
  irreducible factors, so the engine's one-check-per-factor step is
  exercised.
"""

import random

import pytest

import genus4census.gfarith as gf
from genus4census import elimination as el

F2 = gf.F2
F4 = gf.field(2)


def P(F, rows):
    return el.biv_from_rows(F, rows)


def from_packed(p):
    """Convert a packed-int bivariate polynomial to the generic F_2 form."""
    return tuple(tuple((row >> i) & 1 for i in range(row.bit_length())) for row in p)


def to_packed(p):
    """Convert a generic F_2 bivariate polynomial to packed-int rows."""
    return tuple(sum(c << i for i, c in enumerate(row)) for row in p)


def exists_f2(polys):
    """The F_2 decision over both coefficient rings, which must agree."""
    got = el.exists_common_zero(F2, polys)
    assert el.exists_common_zero_f2([to_packed(p) for p in polys]) == got, polys
    return got


def brute_common_zero(spec, polys, search_ks=(4,)):
    return any(_brute_over(spec, polys, gf.field(k)) for k in search_ks)


def _brute_over(spec, polys, E):
    emb = gf.embedding(spec, E)
    epolys = [[tuple(emb(c) for c in row) for row in p] for p in polys]
    for u0 in E.elements():
        specialized = []
        blocked = False
        for p in epolys:
            sp = gf.poly_from_coeffs(E, [gf.poly_eval(E, row, u0) for row in p])
            if sp:
                if gf.poly_degree(sp) == 0:
                    blocked = True
                    break
                specialized.append(sp)
        if blocked:
            continue
        if not specialized:
            return True
        g = specialized[0]
        for sp in specialized[1:]:
            g = gf.poly_gcd(E, g, sp)
        if gf.poly_degree(g) >= 1:
            return True
    return False


def random_biv(F, rng, max_dv, max_du):
    rows = []
    for _ in range(rng.randrange(0, max_dv + 2)):
        rows.append([rng.randrange(F.order) for _ in range(rng.randrange(0, max_du + 2))])
    return P(F, rows)


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------


def test_biv_eval_mul_add_consistent():
    rng = random.Random(301)
    for _ in range(300):
        F = F4 if rng.random() < 0.5 else F2
        f = random_biv(F, rng, 2, 2)
        g = random_biv(F, rng, 2, 2)
        u0 = rng.randrange(F.order)
        v0 = rng.randrange(F.order)
        fv = el.biv_eval(F, f, u0, v0)
        gv = el.biv_eval(F, g, u0, v0)
        assert el.biv_eval(F, el.biv_mul(F, f, g), u0, v0) == F.mul(fv, gv)
        assert el.biv_eval(F, el.biv_add(F, f, g), u0, v0) == F.add(fv, gv)


def test_biv_derivatives_product_rule():
    rng = random.Random(302)
    for _ in range(200):
        f = random_biv(F2, rng, 2, 2)
        g = random_biv(F2, rng, 2, 2)
        prod = el.biv_mul(F2, f, g)
        for d in (el.biv_deriv_u, el.biv_deriv_v):
            lhs = d(F2, prod)
            rhs = el.biv_add(
                F2,
                el.biv_mul(F2, d(F2, f), g),
                el.biv_mul(F2, f, d(F2, g)),
            )
            assert lhs == rhs


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


def test_resultant_v_matches_specialization():
    rng = random.Random(303)
    checked = 0
    while checked < 200:
        F = F4 if rng.random() < 0.5 else F2
        f = random_biv(F, rng, 2, 2)
        g = random_biv(F, rng, 2, 2)
        if not f or not g:
            continue
        res = el.resultant_v(F, f, g)
        u0 = rng.randrange(F.order)
        if gf.poly_eval(F, f[-1], u0) == 0 or gf.poly_eval(F, g[-1], u0) == 0:
            continue  # degree drops; the specialization identity needs the lc alive
        fs = gf.poly_from_coeffs(F, [gf.poly_eval(F, row, u0) for row in f])
        gs = gf.poly_from_coeffs(F, [gf.poly_eval(F, row, u0) for row in g])
        want = gf.poly_resultant(F, fs, gs)
        assert gf.poly_eval(F, res, u0) == want
        checked += 1


def test_resultant_v_vanishes_on_shared_factor():
    rng = random.Random(304)
    for _ in range(100):
        m = random_biv(F2, rng, 1, 1)
        if len(m) < 2:
            continue  # need positive v-degree
        f = el.biv_mul(F2, m, random_biv(F2, rng, 1, 1))
        g = el.biv_mul(F2, m, random_biv(F2, rng, 1, 1))
        if not f or not g:
            continue
        assert el.resultant_v(F2, f, g) == ()


def test_resultant_v_of_constants_and_errors():
    one = P(F2, [[1]])
    assert el.resultant_v(F2, one, P(F2, [[1, 1]])) == (1,)
    with pytest.raises(ValueError):
        el.resultant_v(F2, (), one)


# ---------------------------------------------------------------------------
# the decision procedure: pinned cases
# ---------------------------------------------------------------------------


def test_exists_hand_cases():
    v = P(F2, [[], [1]])
    # cusp v^2 = u^3 meets v = 0 at the origin
    cusp = P(F2, [[0, 0, 0, 1], [], [1]])
    assert exists_f2([cusp, v])
    # ... and v = 1 where u^3 = 1
    v1 = P(F2, [[1], [1]])
    assert exists_f2([cusp, v1])
    # u*v = 1 and u^2*v = u + 1 force u = u + 1: empty
    f = P(F2, [[1], [0, 1]])
    g = P(F2, [[1, 1], [0, 0, 1]])
    assert not exists_f2([f, g])
    # parallel lines
    assert not exists_f2([P(F2, [[0, 1], [1]]), P(F2, [[1, 1], [1]])])
    # v^2+v+1 has zeros only over F_4, where the line v = u catches them
    assert exists_f2([P(F2, [[1], [1], [1]]), P(F2, [[0, 1], [1]])])


def test_exists_shared_factor_branch():
    # (v+u)(v+1) and (v+u)(v+u^2) share the component v = u
    f = el.biv_mul(F2, P(F2, [[0, 1], [1]]), P(F2, [[1], [1]]))
    g = el.biv_mul(F2, P(F2, [[0, 1], [1]]), P(F2, [[0, 0, 1], [1]]))
    assert el.resultant_v(F2, f, g) == ()
    assert el._resultant(el._F2_PACKED, to_packed(f), to_packed(g)) == 0
    assert exists_f2([f, g])
    # a third poly cutting the v = 1 component: zeros remain along v = 1
    h = P(F2, [[1], [1]])
    assert exists_f2([f, el.biv_mul(F2, P(F2, [[0, 1], [1]]), h), h])


def test_exists_degenerate_inputs():
    assert exists_f2([])
    assert exists_f2([(), ()])
    assert not exists_f2([(), P(F2, [[1]])])
    # u-only systems
    assert exists_f2([P(F2, [[0, 1, 1]])])  # u^2+u = 0
    assert not exists_f2([P(F2, [[0, 1]]), P(F2, [[1, 1]])])
    assert exists_f2([P(F2, [[0, 1, 1]]), P(F2, [[0, 1]])])
    # mixed u-constraint and v-constraint
    assert exists_f2([P(F2, [[0, 1]]), P(F2, [[1], [1]])])
    # u = 0 and u*v = 1 is empty
    assert not exists_f2([P(F2, [[0, 1]]), P(F2, [[1], [0, 1]])])


def test_exists_single_positive_v_degree_poly():
    rng = random.Random(305)
    for _ in range(50):
        f = random_biv(F2, rng, 3, 3)
        if len(f) >= 2:
            assert el.exists_common_zero(F2, [f])


# ---------------------------------------------------------------------------
# the decision procedure: randomized against the brute-force oracle
# ---------------------------------------------------------------------------


def test_exists_matches_brute_force_f2():
    rng = random.Random(306)
    agree_true = agree_false = 0
    for _ in range(300):
        polys = [random_biv(F2, rng, 1, 1) for _ in range(rng.randrange(1, 4))]
        want = brute_common_zero(F2, polys)
        got = el.exists_common_zero(F2, polys)
        assert got == want, polys
        assert el.exists_common_zero_f2([to_packed(p) for p in polys]) == want, polys
        if want:
            agree_true += 1
        else:
            agree_false += 1
    assert agree_true and agree_false  # both outcomes exercised


def test_exists_matches_brute_force_f2_u_degree_2():
    # two or three polynomials a(u) v + b(u) with deg a, deg b <= 2
    rng = random.Random(311)
    agree_true = agree_false = several_factors = 0
    for _ in range(300):
        polys = [P(F2, [[rng.randrange(2) for _ in range(3)] for _ in range(2)])
                 for _ in range(rng.randrange(2, 4))]
        want = brute_common_zero(F2, polys, search_ks=(3, 4))
        assert exists_f2(polys) == want, polys
        agree_true += want
        agree_false += not want
        res = el.resultant_v(F2, polys[0], polys[1]) if polys[0] and polys[1] else ()
        several_factors += bool(res) and len(gf.poly_factor(F2, res)) > 1
    assert agree_true > 50 and agree_false > 50
    assert several_factors > 50


def test_exists_matches_brute_force_f4():
    rng = random.Random(307)
    for _ in range(150):
        polys = [random_biv(F4, rng, 1, 1) for _ in range(rng.randrange(1, 4))]
        assert el.exists_common_zero(F4, polys) == brute_common_zero(F4, polys), polys


# ---------------------------------------------------------------------------
# the packed F_2[u] ring
# ---------------------------------------------------------------------------


def test_f2_resultant_matches_generic():
    rng = random.Random(308)
    for _ in range(300):
        f = tuple(rng.getrandbits(4) for _ in range(rng.randrange(1, 5)))
        g = tuple(rng.getrandbits(4) for _ in range(rng.randrange(1, 5)))
        if not any(f) or not any(g):
            continue
        res = el._resultant(el._F2_PACKED, f, g)
        want = el.resultant_v(F2, from_packed(f), from_packed(g))
        assert tuple((res >> i) & 1 for i in range(res.bit_length())) == want


def test_f2_derivatives_match_generic():
    rng = random.Random(309)
    for _ in range(200):
        f = tuple(rng.getrandbits(5) for _ in range(rng.randrange(0, 5)))
        assert from_packed(el.f2_biv_deriv_u(f)) == el.biv_deriv_u(F2, from_packed(f))
        assert from_packed(el.f2_biv_deriv_v(f)) == el.biv_deriv_v(F2, from_packed(f))


def test_f2_exists_matches_generic_engine():
    rng = random.Random(310)
    agree_true = agree_false = 0
    for _ in range(1000):
        polys = [
            tuple(rng.getrandbits(rng.randrange(1, 5)) for _ in range(rng.randrange(0, 5)))
            for _ in range(rng.randrange(0, 4))
        ]
        want = el.exists_common_zero(F2, [from_packed(p) for p in polys])
        got = el.exists_common_zero_f2(polys)
        assert got == want, polys
        if want:
            agree_true += 1
        else:
            agree_false += 1
    assert agree_true > 100 and agree_false > 100

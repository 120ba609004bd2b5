"""Curve models: tables, reduction, counting, transforms, smoothness,
automorphisms.

Point-count oracles: the projective enumeration tests recount every curve by
brute force over all of P^3 (resp. the affine hyperelliptic plane plus the
points at infinity of the smooth model), independently of the Segre / cone
parametrizations used by count_points.  The four fixed count vectors for the
named example curves are published values.
"""

import collections
import itertools
import random

import numpy as np
import pytest

from genus4census.curves import (
    MONOMIALS3,
    HyperellipticCurve,
    ProjectiveTransform,
    QuadricCubicCurve,
    SmoothnessResult,
    apply_transform,
    aut_order_f2,
    biv_from_rows,
    chart_polynomial,
    count_points,
    eval_cubic,
    eval_quadric,
    gl2_f2,
    hyperelliptic_from_masks,
    hyperelliptic_transformed,
    is_smooth,
    jacobian_aut_order,
    parse_curve_id,
    quadric_coeffs,
    quadric_curve,
    quadric_curve_from_mask,
    quadric_gradient,
    quadric_points,
    quadric_stabilizer_f2,
    reduce_cubic,
    substitute_cubic,
    substitute_quadric,
)
from genus4census.curves import (
    _MINOR_PAIRS,
    _chart_singular_fibre,
    _distinguished_checks,
    _hyp_images,
    _packed_chart,
    _quadric_image_tables,
    _quadric_images,
    _quadric_scan,
    _quadric_smooth_generic,
    _quadric_tables,
    _stabilizer_matrices,
)
from genus4census import elimination as el
from genus4census.elimination import biv_eval
from genus4census.gfarith import (F2, F2X, field, gf2x_gcd, gf2x_mul, poly_eval, poly_from_coeffs,
                                  poly_mul, poly_ring, xor_table)
from genus4census.kinds import DESCRIPTIONS

from oracles import cubic_partials, stabilizer_matrices_by_filter

IDX = {e: i for i, e in enumerate(MONOMIALS3)}


def curve_from_monomials(kind, mons, spec=F2):
    co = [0] * 20
    for m in mons:
        co[IDX[m]] = 1
    return quadric_curve(kind, spec, co)


# the example curves (coefficients as published, counts as published)
SMOOTH_SS = [(2, 0, 1, 0), (0, 2, 1, 0), (0, 1, 2, 0), (2, 0, 0, 1), (0, 2, 0, 1), (1, 0, 0, 2)]
N13_CURVE = [(1, 0, 0, 2), (2, 0, 0, 1), (0, 3, 0, 0), (2, 0, 1, 0), (1, 0, 2, 0)]
EO41_CONE = [(2, 0, 0, 1), (0, 3, 0, 0), (2, 0, 1, 0), (0, 0, 3, 0)]


# ---------------------------------------------------------------------------
# tables and reduction
# ---------------------------------------------------------------------------


def test_monomial_tables_frozen():
    assert len(MONOMIALS3) == 20
    assert MONOMIALS3[0] == (3, 0, 0, 0)
    assert MONOMIALS3[1] == (2, 1, 0, 0)
    assert MONOMIALS3[10] == (0, 3, 0, 0)
    assert MONOMIALS3[19] == (0, 0, 0, 3)
    assert DESCRIPTIONS["ns"].reduction == {8: 1, 14: 4, 17: 5, 18: 6}
    assert DESCRIPTIONS["cone"].reduction == {9: 1, 15: 4, 18: 5, 19: 6}
    assert DESCRIPTIONS["ns"].kept == (0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 15, 16, 19)
    assert DESCRIPTIONS["cone"].kept == (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 16, 17)


def test_reduce_cubic_folds_partners():
    # X*Z*T = X * (Z*T) is congruent to X * (X*Y) = X^2*Y on the ns quadric
    co = [0] * 20
    co[IDX[(1, 0, 1, 1)]] = 1
    red = reduce_cubic("ns", F2, co)
    assert red[IDX[(1, 0, 1, 1)]] == 0 and red[IDX[(2, 1, 0, 0)]] == 1
    # X*T^2 folds into X^2*Y on the cone (T^2 = X*Y there)
    co = [0] * 20
    co[IDX[(1, 0, 0, 2)]] = 1
    red = reduce_cubic("cone", F2, co)
    assert red[IDX[(1, 0, 0, 2)]] == 0 and red[IDX[(2, 1, 0, 0)]] == 1
    # folding adds: X^2*Y = 1 plus X*Z*T = 1 cancels over F_2
    co = [0] * 20
    co[IDX[(1, 0, 1, 1)]] = 1
    co[IDX[(2, 1, 0, 0)]] = 1
    red = reduce_cubic("ns", F2, co)
    assert red[IDX[(2, 1, 0, 0)]] == 0


def test_reduction_respects_values_on_quadric():
    # reduced and unreduced cubic agree at every point of the quadric
    rng = random.Random(11)
    K = field(2)
    pts = {
        "ns": [p for p in itertools.product(range(4), repeat=4) if eval_quadric("ns", K, p) == 0 and any(p)],
        "cone": [p for p in itertools.product(range(4), repeat=4) if eval_quadric("cone", K, p) == 0 and any(p)],
    }
    for _ in range(50):
        kind = rng.choice(("ns", "cone"))
        co = [rng.randrange(4) for _ in range(20)]
        red = reduce_cubic(kind, K, co)
        for p in pts[kind]:
            assert eval_cubic(K, co, p) == eval_cubic(K, red, p)


def test_example_masks_and_id_round_trip():
    ss = curve_from_monomials("ns", SMOOTH_SS)
    n13 = curve_from_monomials("ns", N13_CURVE)
    eo41 = curve_from_monomials("cone", EO41_CONE)
    assert ss.mask == 0x1D0C
    assert n13.mask == 0x38C
    assert eo41.mask == 0x420C
    assert ss.curve_id == "ns;c=0x1d0c"
    assert eo41.curve_id == "cone;c=0x420c"
    for c in (ss, n13, eo41):
        assert parse_curve_id(c.curve_id) == c
    h = hyperelliptic_from_masks(0x01, 0x220)
    assert h.curve_id == "hyp;h=0x01;f=0x220"
    assert parse_curve_id(h.curve_id) == h


def test_parse_curve_id_errors():
    for bad in ("", "ns", "ns;c=0xfffff", "pear;c=0x1", "hyp;h=0x00;f=0x220", "hyp;h=0x1", "ns;c=zz",
                # spellings of a real model's id other than its own curve_id
                " ns;c=0x1d0c", "ns;c=0x1d0c\n", "ns;c=0x1D0C", "ns;c=0x1d_0c", "ns;c=1d0c",
                "ns;c=0x0001d0c", "cone;c=0x1", "hyp;h=0x1;f=0x220", "hyp;h=0x01;f=0x0220",
                "hyp;h=0x01;f=0X220"):
        with pytest.raises(ValueError):
            parse_curve_id(bad)


def test_hyperelliptic_validation():
    with pytest.raises(ValueError):
        HyperellipticCurve(F2, (), (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1))  # h = 0
    with pytest.raises(ValueError):
        hyperelliptic_from_masks(0x01, 1 << 11)  # deg f = 11
    with pytest.raises(ValueError):
        hyperelliptic_from_masks(0x40, 0x220)  # deg h = 6
    with pytest.raises(ValueError):
        hyperelliptic_from_masks(0x01, 0xFF)  # max(2 deg h, deg f) = 7
    with pytest.raises(ValueError):
        HyperellipticCurve(F2, (1, 0), (0, 0, 0, 0, 0, 0, 0, 0, 0, 1))  # trailing zero in h
    # deg h = 5 with small f is a valid shape
    hyperelliptic_from_masks(0x20, 0x00)


# ---------------------------------------------------------------------------
# point counts
# ---------------------------------------------------------------------------


def test_counts_of_named_curves():
    ss = curve_from_monomials("ns", SMOOTH_SS)
    n13 = curve_from_monomials("ns", N13_CURVE)
    eo41 = curve_from_monomials("cone", EO41_CONE)
    hyp = hyperelliptic_from_masks(0x01, 0x220)
    assert [count_points(ss, n) for n in (1, 2, 3, 4)] == [7, 9, 13, 9]
    assert [count_points(n13, n) for n in (1, 2, 3, 4)] == [5, 9, 11, 17]
    assert [count_points(eo41, n) for n in (1, 2, 3, 4)] == [5, 9, 11, 25]
    assert [count_points(hyp, n) for n in (1, 2, 3, 4)] == [5, 5, 5, 9]


def _projective_points(spec):
    """All of P^3 over the given field, one representative per point."""
    seen = set()
    for p in itertools.product(range(spec.order), repeat=4):
        if not any(p):
            continue
        lead = next(c for c in p if c)
        inv = spec.inv(lead)
        q = tuple(spec.mul(inv, c) for c in p)
        seen.add(q)
    return sorted(seen)


def test_quadric_counts_match_projective_enumeration():
    rng = random.Random(202)
    for n, spec in ((1, F2), (2, field(2))):
        pts = _projective_points(spec)
        assert len(pts) == (spec.order ** 4 - 1) // (spec.order - 1)
        for _ in range(20):
            kind = rng.choice(("ns", "cone"))
            c = quadric_curve(kind, F2, [rng.randrange(2) for _ in range(20)])
            brute = sum(
                1
                for p in pts
                if eval_quadric(kind, spec, p) == 0 and eval_cubic(spec, c.coeffs, p) == 0
            )
            assert count_points(c, n, raw=True) == brute, (c.curve_id, n)


def test_hyperelliptic_counts_match_plane_enumeration():
    rng = random.Random(203)
    tried = 0
    while tried < 20:
        hm = rng.randrange(1, 64)
        fm = rng.randrange(1 << 11)
        try:
            c = hyperelliptic_from_masks(hm, fm)
        except ValueError:
            continue
        tried += 1
        for n, spec in ((1, F2), (2, field(2))):
            brute = 0
            for x in spec.elements():
                hx = poly_eval(spec, c.h, x)
                fx = poly_eval(spec, c.f, x)
                for y in spec.elements():
                    if spec.add(spec.add(spec.mul(y, y), spec.mul(hx, y)), fx) == 0:
                        brute += 1
            # points at infinity of the smooth model: w^2 + h5 w = f10
            h5 = c.h[5] if len(c.h) > 5 else 0
            f10 = c.f[10] if len(c.f) > 10 else 0
            for w in spec.elements():
                if spec.add(spec.add(spec.mul(w, w), spec.mul(h5, w)), f10) == 0:
                    brute += 1
            assert count_points(c, n, raw=True) == brute, (c.curve_id, n)


def test_count_points_guards():
    # a singular model must be counted with raw=True only
    sing = quadric_curve_from_mask("ns", 0x0001)  # X^3 alone: singular at (0:0:0:1)
    with pytest.raises(ValueError, match="singular"):
        count_points(sing, 1)
    assert count_points(sing, 1, raw=True) >= 1
    # extension cap
    big = QuadricCubicCurve("ns", field(8), curve_from_monomials("ns", SMOOTH_SS).coeffs)
    with pytest.raises(ValueError, match="out of range"):
        count_points(big, 3, raw=True)
    with pytest.raises(ValueError):
        count_points(sing, 0, raw=True)


# ---------------------------------------------------------------------------
# the affine charts
# ---------------------------------------------------------------------------


def test_chart_polynomials_match_cubic():
    # on every chart of every quadric kind (the smoothness cover and the
    # Cartier plane models) the chart point (v^i u^j per coordinate) lies on
    # the quadric and the chart polynomial at (v, u) is the cubic there
    rng = random.Random(31)
    K = field(3)
    for kind, (chart, cells) in ((d.name, c) for d in DESCRIPTIONS.values() for c in d.charts):
        for _ in range(10):
            c = quadric_curve(kind, K, [rng.randrange(8) for _ in range(20)])
            f = chart_polynomial(c, chart)
            for _ in range(10):
                v, u = rng.randrange(8), rng.randrange(8)
                pt = tuple(K.mul(K.pow(v, i), K.pow(u, j)) for i, j in cells)
                assert eval_quadric(kind, K, pt) == 0, (kind, chart, pt)
                assert biv_eval(K, f, u, v) == eval_cubic(K, c.coeffs, pt), (kind, chart, c.coeffs, pt)


def _ns_grid(c):
    """The bidegree-(3,3) grid of an ns model: the chart T = 1 polynomial as
    a 4x4 table, X^a Y^b Z^g T^d at cell (a+g, b+g)."""
    f = chart_polynomial(c, "T")
    return tuple(tuple(f[i][j] if i < len(f) and j < len(f[i]) else 0 for j in range(4))
                 for i in range(4))


def test_affine_grid_of_example():
    ss = curve_from_monomials("ns", SMOOTH_SS)
    g = _ns_grid(ss)
    assert g == ((0, 0, 1, 0), (1, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 0))
    ones = {(i, j) for i in range(4) for j in range(4) if g[i][j]}
    assert ones == {(1, 0), (2, 0), (0, 2), (3, 1), (1, 3), (2, 3)}


def test_affine_grid_single_monomials():
    # X^3 = (xz)^3 sits at (3, 0); X*Y*Z = x^2 y^2 z^2 t at (2, 2)
    c = curve_from_monomials("ns", [(3, 0, 0, 0)])
    assert _ns_grid(c)[3][0] == 1
    c = curve_from_monomials("ns", [(1, 1, 1, 0)])
    assert _ns_grid(c)[2][2] == 1


def test_grid_matches_affine_values():
    # the grid evaluated at (s, v) equals the cubic at the Segre point
    rng = random.Random(31)
    K = field(3)
    for _ in range(25):
        c = quadric_curve("ns", K, [rng.randrange(8) for _ in range(20)])
        g = _ns_grid(c)
        for _ in range(10):
            s, v = rng.randrange(8), rng.randrange(8)
            # Segre: (x:y) = (s:1), (z:t) = (v:1): point (s v, 1, v, s);
            # there X^a Y^b Z^g T^d = s^(a+d) v^(a+g) and the grid cell is
            # (a+g, b+g) = (a+g, 3-(a+d)), so s gets exponent 3-j
            pt = (K.mul(s, v), 1, v, s)
            lhs = eval_cubic(K, c.coeffs, pt)
            val = 0
            for i in range(4):
                for j in range(4):
                    if g[i][j]:
                        val = K.add(val, K.mul(g[i][j], K.mul(K.pow(v, i), K.pow(s, 3 - j))))
            assert lhs == val


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


# ns-quadric substitutions over F_4 = F_2[w]/(w^2 + w + 1), elements 0, 1, w = 2,
# w^2 = 3: (X + wZ, Y, Z, T + wY), (X, w^2 Y, w^2 Z, T), (Z, T, X, Y) and
# (X, Y + w^2 T, Z + w^2 X, T)
F4_NS_SUBSTITUTIONS = (
    ((1, 0, 2, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 2, 0, 1)),
    ((1, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 1)),
    ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)),
    ((1, 0, 0, 0), (0, 1, 0, 3), (3, 0, 1, 0), (0, 0, 0, 1)),
)


def test_compose_matches_sequential_application():
    rng = random.Random(41)
    pools = {
        F2: quadric_stabilizer_f2("ns"),
        field(2): tuple(ProjectiveTransform(field(2), rows) for rows in F4_NS_SUBSTITUTIONS),
    }
    for spec, pool in pools.items():
        for _ in range(30):
            c = quadric_curve("ns", spec, [rng.randrange(spec.order) for _ in range(20)])
            s = rng.choice(pool)
            t = rng.choice(pool)
            lhs = apply_transform(apply_transform(c, s), t)
            rhs = apply_transform(c, s.compose(t))
            assert lhs.coeffs == rhs.coeffs
            back = apply_transform(apply_transform(c, s), s.inverse())
            assert back.coeffs == c.coeffs


def test_transform_rejects_wrong_quadric():
    c = curve_from_monomials("ns", SMOOTH_SS)
    # X <-> Z does not preserve X*Y + Z*T
    swap = ProjectiveTransform(F2, ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)))
    with pytest.raises(ValueError, match="quadric"):
        apply_transform(c, swap)


# ---------------------------------------------------------------------------
# smoothness
# ---------------------------------------------------------------------------


def test_known_singularity_witnesses():
    # over F_2 the quadric scan names the first singular point of
    # quadric_points, over the smallest field that has one; the generic
    # route checks the distinguished points, then decides two charts by gcds
    f2_note = "rational singular point over F_2"
    # X^3 alone: both distinguished points satisfy their vanishing pattern
    c = quadric_curve_from_mask("ns", 0x0001)
    assert is_smooth(c) == SmoothnessResult(False, (1, (0, 0, 0, 1)), f2_note)
    assert _quadric_smooth_generic(c) == SmoothnessResult(False, (1, (0, 0, 0, 1)), "singular at (0:0:0:1)")
    # cone cubic avoiding Z^3: singular on the line {X = T = 0} before the vertex
    c = curve_from_monomials("cone", [(3, 0, 0, 0)])
    assert is_smooth(c) == SmoothnessResult(False, (1, (0, 1, 0, 0)), f2_note)
    assert _quadric_smooth_generic(c) == SmoothnessResult(False, (1, (0, 0, 1, 0)), "the cubic meets the cone vertex")
    # cubic containing the boundary line {Y = Z = 0}
    c = curve_from_monomials("ns", [(0, 1, 0, 2), (0, 1, 2, 0)])
    assert is_smooth(c) == SmoothnessResult(False, (1, (1, 0, 0, 0)), f2_note)
    assert _quadric_smooth_generic(c) == SmoothnessResult(False, None, "singular point inside the affine chart")
    # hyperelliptic: y^2 + x y = x^9 is singular at the origin
    r = is_smooth(hyperelliptic_from_masks(0x02, 0x200))
    assert not r.smooth and r.witness == (1, (0, 0))
    # y^2 + y = x^10 drops genus at infinity
    r = is_smooth(hyperelliptic_from_masks(0x01, 0x400))
    assert not r.smooth and "infinity" in r.note
    # the named example curves are smooth
    for c in (
        curve_from_monomials("ns", SMOOTH_SS),
        curve_from_monomials("ns", N13_CURVE),
        curve_from_monomials("cone", EO41_CONE),
        hyperelliptic_from_masks(0x01, 0x220),
    ):
        assert is_smooth(c).smooth


def _chart_singular_by_elimination(F, f):
    """Elimination's answer for a chart polynomial f over F: do f, f_u and
    f_v vanish together over the closure of F?"""
    return el.exists_common_zero(F, [f, el.biv_deriv_u(F, f), el.biv_deriv_v(F, f)])


def _smooth_by_elimination(curve):
    """The reference decision: the distinguished points by their
    coefficient patterns, then both charts of its kind's cover by elimination."""
    return _distinguished_checks(curve) is None and not any(
        _chart_singular_by_elimination(curve.spec, chart_polynomial(curve, chart))
        for chart in DESCRIPTIONS[curve.kind].cover)


def test_smoothness_engines_agree():
    # the F_2 route (scan, then gcds on one packed chart) and the generic
    # route (gcds on both charts) against the elimination reference
    rng = random.Random(61)
    smooth_seen = singular_seen = 0
    for i in range(1200):
        kind = "ns" if i % 2 == 0 else "cone"
        c = quadric_curve_from_mask(kind, rng.randrange(1 << 16))
        fast = is_smooth(c)
        slow = _smooth_by_elimination(c)
        assert fast.smooth == slow == _quadric_smooth_generic(c).smooth, (c.curve_id, fast, slow)
        smooth_seen += fast.smooth
        singular_seen += not fast.smooth
    assert smooth_seen > 150 and singular_seen > 150


def _chart_system_f2(f):
    """Packed elimination's answer for the chart polynomial f (packed
    f0..f3): do f, f_u and f_v vanish together over the closure of F_2?"""
    f = tuple(f)
    return el.exists_common_zero_f2([f, el.f2_biv_deriv_u(f), el.f2_biv_deriv_v(f)])


def test_chart_decision_matches_elimination():
    # the gcd-only chart decision against packed elimination on every
    # orbit representative the census decides, on every unflagged mask
    # whose gcd(f1, f3) or content is nontrivial, and on seeded random
    # systems of v-degree <= 3 and u-degree <= 6 (generic, f3 = 0,
    # f1 = f3 = 0, and a common u-factor of all four rows)
    systems = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0b10, 0, 0, 0]]
    for kind, orbits in (("ns", 257), ("cone", 275)):
        open_masks = np.flatnonzero(~_quadric_scan(kind, 0, 1 << 16)[1])
        reps = np.unique(_quadric_images(kind, open_masks).min(axis=1))
        assert len(reps) == orbits
        systems += [_packed_chart(kind, m) for m in reps.tolist()]
        for m in open_masks.tolist():
            f0, f1, f2, f3 = f = _packed_chart(kind, m)
            if gf2x_gcd(f1, f3) != 1 or gf2x_gcd(gf2x_gcd(f0, f1), gf2x_gcd(f2, f3)) != 1:
                systems.append(f)
    rng = random.Random(1979)
    for i in range(800):
        f = [rng.getrandbits(7) for _ in range(4)]
        if i % 4 == 1:
            f[3] = 0
        elif i % 4 == 2:
            f[1] = f[3] = 0
        elif i % 4 == 3:
            common = rng.choice([0b10, 0b11, 0b111, 0b1011])
            f = [gf2x_mul(common, rng.getrandbits(8 - common.bit_length())) for _ in range(4)]
        systems.append(f)
    reached = collections.Counter()
    for f in systems:
        fibre = _chart_singular_fibre(F2X, f)
        assert (fibre is not None) == _chart_system_f2(f), f
        reached[fibre] += 1
    assert set(reached) == {"A", "B", "C", None}, reached


@pytest.mark.parametrize("k", [2, 3, 4])
def test_chart_decision_matches_elimination_over_extensions(k):
    # the same gcd decision over F_{2^k}[u] against elimination, on both
    # charts of seeded random curves over F_{2^k} (and the curve's own
    # decision by the generic route), then on the zero system, whose
    # content is zero, and on seeded random systems of v-degree <= 3:
    # generic, f3 = 0, f1 = f3 = 0, and a common factor u + a of all four
    # rows, squared half the time so that dividing it out once is not enough
    F = field(k)
    R = poly_ring(F)
    rng = random.Random(2203 + k)
    reached = collections.Counter()

    def chart_singular(f):
        fibre = _chart_singular_fibre(R, f)
        want = _chart_singular_by_elimination(F, f)
        assert (fibre is not None) == want, (k, f)
        reached[fibre] += 1
        return want

    def random_poly(degree):
        return poly_from_coeffs(F, [rng.randrange(F.order) for _ in range(degree + 1)])

    smooth_seen = collections.Counter()
    for i in range(300):
        kind, density = ("ns", "cone")[i % 2], (0.5, 0.7, 0.9)[i % 3]
        c = quadric_curve(kind, F, [rng.randrange(F.order) if rng.random() < density else 0
                                    for _ in range(20)])
        singular = [chart_singular(chart_polynomial(c, chart)) for chart in DESCRIPTIONS[kind].cover]
        want = _distinguished_checks(c) is None and not any(singular)
        assert _quadric_smooth_generic(c).smooth == want, (k, c.coeffs)
        smooth_seen[want] += 1
    chart_singular(())
    for i in range(200):
        f = [random_poly(rng.randrange(4)) for _ in range(4)]
        if i % 4 == 1:
            f[3] = ()
        elif i % 4 == 2:
            f[1] = f[3] = ()
        elif i % 4 == 3:
            common = (rng.randrange(F.order), 1)
            if i % 8 == 7:
                common = poly_mul(F, common, common)
            f = [poly_mul(F, common, random_poly(2)) for _ in range(4)]
        chart_singular(biv_from_rows(F, f))
    assert set(reached) == {"A", "B", "C", None}, reached
    assert smooth_seen[True] > 50 and smooth_seen[False] > 50, smooth_seen


@pytest.mark.parametrize("kind", ["ns", "cone"])
def test_smoothness_survives_base_extension(kind):
    # an F_2 model read over F_4 and F_8 goes the generic route (the
    # distinguished points and both charts) and must get the F_2 route's
    # decision: flagged masks, unflagged masks and orbit representatives
    rng = random.Random(4242 + len(kind))
    flagged = _quadric_scan(kind, 0, 1 << 16)[1]
    open_masks = np.flatnonzero(~flagged)
    reps = np.unique(_quadric_images(kind, open_masks).min(axis=1))
    masks = ([int(m) for m in rng.sample(list(np.flatnonzero(flagged)), 24)]
             + [int(m) for m in rng.sample(list(open_masks), 24)]
             + [int(m) for m in rng.sample(list(reps), 48)])
    decided = set()
    for m in masks:
        curve = quadric_curve_from_mask(kind, m)
        want = is_smooth(curve).smooth
        decided.add(want)
        for k in (2, 3):
            assert is_smooth(quadric_curve(kind, field(k), curve.coeffs)).smooth == want, (hex(m), k)
    assert decided == {True, False}


# per distinguished point off the affine chart, the monomials whose
# vanishing makes it singular: (0:0:0:1) and (0:0:1:0) on ns, the cone vertex
DISTINGUISHED_PATTERNS = {
    "ns": (((0, 0, 0, 3), (1, 0, 0, 2), (0, 1, 0, 2)), ((0, 0, 3, 0), (1, 0, 2, 0), (0, 1, 2, 0))),
    "cone": (((0, 0, 3, 0),),),
}
# per line of the quadric off the packed engine's chart, the monomials the
# cubic restricts to on it: the cubic contains the line when all vanish
BOUNDARY_SLOTS = {
    # {Y = Z = 0} and {Y = T = 0}
    "ns": (((3, 0, 0, 0), (2, 0, 0, 1), (1, 0, 0, 2), (0, 0, 0, 3)),
           ((3, 0, 0, 0), (2, 0, 1, 0), (1, 0, 2, 0), (0, 0, 3, 0))),
    # {X = T = 0}
    "cone": (((0, 3, 0, 0), (0, 2, 1, 0), (0, 1, 2, 0), (0, 0, 3, 0)),),
}


@pytest.mark.parametrize("kind", ["ns", "cone"])
def test_scan_flags_every_off_chart_pattern(kind):
    # the packed engine checks only the affine chart: every mask singular at
    # a distinguished point, or whose cubic contains a boundary line, must
    # already be flagged by the quadric scan
    masks = np.arange(1 << 16)
    flagged = _quadric_scan(kind, 0, 1 << 16)[1]
    bit = {idx: b for b, idx in enumerate(DESCRIPTIONS[kind].kept)}

    def vanish(monomials):
        return (masks & sum(1 << bit[IDX[e]] for e in monomials)) == 0

    for hit in [vanish(p) for p in BOUNDARY_SLOTS[kind] + DISTINGUISHED_PATTERNS[kind]]:
        assert hit.any() and flagged[hit].all()


def _frobenius_representatives(kind):
    """(d, point) for the first member, in quadric_points order, of each
    Frobenius orbit of exact degree d over F_2..F_16, found by squaring
    the coordinates of one point at a time."""
    reps = []
    for d in (1, 2, 3, 4):
        K = field(d)
        pts = quadric_points(kind, K)
        pos = {pt: i for i, pt in enumerate(pts)}
        for i, pt in enumerate(pts):
            orbit = [pt]
            while (image := tuple(K.mul(c, c) for c in orbit[-1])) != pt:
                orbit.append(image)
            if len(orbit) == d and min(pos[q] for q in orbit) == i:
                reps.append((d, pt))
    return reps


def _quadric_tables_onehot(kind):
    """The scan tables built one monomial at a time: eval_cubic and
    cubic_partials on the one-hot cubic of each kept monomial, at the
    representative of each Frobenius orbit, packed as the scan packs them
    (the value in bits 0-3, the six minors in the nibbles above).  Oracle
    of the one-pass build."""
    points = _frobenius_representatives(kind)
    bits = np.zeros((16, len(points)), np.uint32)
    for bit, idx in enumerate(DESCRIPTIONS[kind].kept):
        onehot = tuple(int(i == idx) for i in range(len(MONOMIALS3)))
        for col, (d, pt) in enumerate(points):
            K = field(d)
            cp = cubic_partials(K, onehot, pt)
            qg = quadric_gradient(kind, K, pt)
            nibbles = [eval_cubic(K, onehot, pt)] + [
                K.add(K.mul(cp[i], qg[j]), K.mul(cp[j], qg[i])) for i, j in _MINOR_PAIRS]
            bits[bit, col] = sum(v << 4 * n for n, v in enumerate(nibbles))
    return xor_table(bits[:8]), xor_table(bits[8:]), tuple(points)


@pytest.mark.parametrize("kind", ["ns", "cone"])
def test_quadric_tables_match_onehot_build(kind):
    lo, hi, bounds, points = _quadric_tables(kind)
    want_lo, want_hi, want_points = _quadric_tables_onehot(kind)
    assert points == want_points
    assert [points[b][0] for b in bounds[:-1]] == [1, 2, 3, 4] and bounds[-1] == len(points)
    assert lo.dtype == hi.dtype == np.uint32
    assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)


@pytest.mark.parametrize("kind, sizes", [("ns", (9, 25, 81, 289)), ("cone", (7, 21, 73, 273))])
def test_frobenius_orbits_partition_the_quadric(kind, sizes):
    # the points over F_{2^n} are the orbits of degree d | n, d points each
    bounds = _quadric_tables(kind)[2]
    orbits = [bounds[d] - bounds[d - 1] for d in (1, 2, 3, 4)]
    assert [sum(d * orbits[d - 1] for d in (1, 2, 3, 4) if n % d == 0) for n in (1, 2, 3, 4)] == list(sizes)
    assert [len(quadric_points(kind, field(n))) for n in (1, 2, 3, 4)] == list(sizes)


@pytest.mark.parametrize("kind", ["ns", "cone"])
def test_quadric_image_tables_match_substitution(kind):
    # every stabilizer element and every mask bit: the bitset products of
    # the image tables against substitute_cubic followed by reduce_cubic
    lo, hi = _quadric_image_tables(kind)
    kept = DESCRIPTIONS[kind].kept
    group = quadric_stabilizer_f2(kind)
    assert lo.shape == hi.shape == (256, len(group))
    for g, t in enumerate(group):
        for bit, idx in enumerate(kept):
            onehot = tuple(int(i == idx) for i in range(len(MONOMIALS3)))
            image = reduce_cubic(kind, F2, substitute_cubic(F2, onehot, t.rows))
            want = sum(image[i] << b for b, i in enumerate(kept))
            got = lo[1 << bit, g] if bit < 8 else hi[1 << (bit - 8), g]
            assert int(got) == want, (kind, g, bit)


@pytest.mark.parametrize("kind", ["ns", "cone"])
def test_scan_decision_constant_on_orbits(kind):
    # every mask against its images under the whole stabilizer: being
    # flagged, and the least field degree of a rational singular point,
    # do not change along an orbit, which is what lets the census decide
    # one representative per orbit
    masks = np.arange(1 << 16)
    _, flagged, witness = _quadric_scan(kind, 0, 1 << 16)
    degree = np.searchsorted(_quadric_tables(kind)[2], witness, side="right").astype(np.uint8)
    images = _quadric_images(kind, masks)
    assert images.shape == (1 << 16, len(quadric_stabilizer_f2(kind)))
    assert (images == masks[:, None]).any(axis=1).all()
    assert (flagged[images] == flagged[:, None]).all()
    assert (degree[images] == degree[:, None])[flagged].all()
    assert set(degree[flagged].tolist()) == {1, 2, 3, 4}


def test_smoothness_generic_engine_over_f4():
    rng = random.Random(62)
    K = field(2)
    smooth_seen = 0
    for _ in range(60):
        c = quadric_curve("ns", K, [rng.randrange(4) for _ in range(20)])
        r = is_smooth(c)
        smooth_seen += r.smooth
        if r.smooth:
            # a smooth curve has no rational singular point in particular
            for p in _projective_points(K):
                if eval_quadric("ns", K, p) == 0 and eval_cubic(K, c.coeffs, p) == 0:
                    from genus4census.curves import quadric_gradient

                    gc = cubic_partials(K, c.coeffs, p)
                    gq = quadric_gradient("ns", K, p)
                    minors = [
                        K.add(K.mul(gc[i], gq[j]), K.mul(gc[j], gq[i]))
                        for i in range(4)
                        for j in range(i + 1, 4)
                    ]
                    assert any(minors), (c.coeffs, p)
    assert smooth_seen > 10


def test_hyperelliptic_smoothness_matches_rational_scan():
    # singular models have no rational singular point missed by the formula
    rng = random.Random(63)
    for _ in range(200):
        hm = rng.randrange(1, 64)
        fm = rng.randrange(1 << 11)
        try:
            c = hyperelliptic_from_masks(hm, fm)
        except ValueError:
            continue
        r = is_smooth(c)
        for spec in (F2, field(2), field(3)):
            for x in spec.elements():
                hx = poly_eval(spec, c.h, x)
                if hx:
                    continue
                fx = poly_eval(spec, c.f, x)
                y = spec.sqrt(fx)
                # (x, y) is a curve point with vanishing y-partial; smoothness
                # then needs a nonzero x-partial h'(x) y + f'(x)
                from genus4census.gfarith import poly_deriv

                dh = poly_eval(spec, poly_deriv(spec, c.h), x)
                df = poly_eval(spec, poly_deriv(spec, c.f), x)
                dx = spec.add(spec.mul(dh, y), df)
                if r.smooth:
                    assert dx != 0, (c.curve_id, spec.k, x)


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------


def test_stabilizer_sizes_and_closure():
    g_ns = quadric_stabilizer_f2("ns")
    g_cone = quadric_stabilizer_f2("cone")
    assert len(g_ns) == 72  # (PGL_2 x PGL_2) x swap on P^1 x P^1
    assert len(g_cone) == 48  # 6 conic motions x 8 choices for the Z row
    for kind, grp in (("ns", g_ns), ("cone", g_cone)):
        assert len(_stabilizer_matrices(kind)) == len(grp) == DESCRIPTIONS[kind].group_order
        q = quadric_coeffs(kind)
        rows = {t.rows for t in grp}
        # ascending in the 16-bit matrix whose row i is bits 4i..4i+3
        ms = [sum(c << (4 * i + j) for i, r in enumerate(t.rows) for j, c in enumerate(r)) for t in grp]
        assert ms == sorted(ms)
        for t in grp:
            assert substitute_quadric(F2, q, t.rows) == q
        rng = random.Random(71)
        for _ in range(200):
            s, t = rng.choice(grp), rng.choice(grp)
            assert s.compose(t).rows in rows


@pytest.mark.parametrize("kind", ["ns", "cone"])
def test_stabilizer_from_candidate_columns_is_the_filter_of_every_matrix(kind):
    # the matrices built from columns of the right quadric value are exactly
    # those of all 2^16 matrices that preserve the quadric, in the same order
    mats = _stabilizer_matrices(kind)
    assert mats.dtype == np.uint16 and not mats.flags.writeable
    assert np.array_equal(mats, stabilizer_matrices_by_filter(kind))


def test_aut_order_by_orbit_stabilizer():
    rng = random.Random(72)
    checked = 0
    while checked < 12:
        kind = rng.choice(("ns", "cone"))
        c = quadric_curve_from_mask(kind, rng.randrange(1 << 16))
        grp = quadric_stabilizer_f2(kind)
        orbit = {apply_transform(c, t).coeffs for t in grp}
        assert len(orbit) * aut_order_f2(c) == len(grp)
        checked += 1


def test_aut_of_named_curves():
    # the supersingular hyperelliptic pair: only the place at infinity is a
    # branch point, so x -> x + b, y -> y + t(x) are the only candidates;
    # b = 0 gives t in {0, 1} and b = 1 gives t in {x^4, x^4 + 1}
    hyp = hyperelliptic_from_masks(0x01, 0x220)
    twist = hyperelliptic_from_masks(0x01, 0x221)
    assert aut_order_f2(hyp) == 4
    assert aut_order_f2(twist) == 4
    assert jacobian_aut_order(hyp, aut_order_f2(hyp)) == 4
    ss = curve_from_monomials("ns", SMOOTH_SS)
    a = aut_order_f2(ss)
    orbit = {apply_transform(ss, t).coeffs for t in quadric_stabilizer_f2("ns")}
    assert a * len(orbit) == 72
    assert jacobian_aut_order(ss, aut_order_f2(ss)) == 2 * a
    # |Aut(Jacobian)| = j |Aut(C)|, j = 1 for hyperelliptic C and 2 otherwise
    cone = curve_from_monomials("cone", EO41_CONE)
    assert jacobian_aut_order(cone, 3) == 6
    for curve in (hyp, ss, cone):
        assert jacobian_aut_order(curve, 3) == DESCRIPTIONS[curve.kind].jacobian_factor * 3


def test_aut_hyperelliptic_orbit_stabilizer():
    # only smooth models: a singular one can leave the shape family under
    # the substitution group (its image may degenerate at infinity)
    rng = random.Random(73)
    mats = gl2_f2()
    assert len(mats) == 6
    assert len(mats) * 64 == DESCRIPTIONS["hyp"].group_order == 384
    checked = 0
    while checked < 4:
        hm = rng.randrange(1, 64)
        fm = rng.randrange(1 << 11)
        try:
            c = hyperelliptic_from_masks(hm, fm)
        except ValueError:
            continue
        if not is_smooth(c).smooth:
            continue
        orbit = set()
        for mat in mats:
            for tm in range(64):
                t = tuple((tm >> i) & 1 for i in range(6))
                img = hyperelliptic_transformed(c, mat, t)
                orbit.add((img.h, img.f))
        assert len(orbit) * aut_order_f2(c) == 384
        checked += 1


def _first_smooth_hyp(hm: int, fm: int) -> HyperellipticCurve:
    while not is_smooth(c := hyperelliptic_from_masks(hm, fm)).smooth:
        fm += 1
    return c


def test_hyp_images_match_generic_transport():
    # the packed image tables against hyperelliptic_transformed, element by
    # element over all 384 (mat, t), on one smooth model per deg h, class h
    # y^2 + y = x^9 + x^5 and its twist; deg h = 5 starts at f = 0, so the
    # shape rule is met by 2 deg h = 10 there and by deg f >= 9 elsewhere
    sample = [_first_smooth_hyp((1 << d) | (d > 0), 0 if d == 5 else 0x200) for d in range(6)]
    sample += [hyperelliptic_from_masks(0x01, 0x220), hyperelliptic_from_masks(0x01, 0x221)]
    masks = [c.masks for c in sample]
    assert sorted({hm.bit_length() - 1 for hm, _ in masks}) == [0, 1, 2, 3, 4, 5]
    assert any(fm < 0x200 for _, fm in masks) and any(hm < 0x20 for hm, _ in masks)
    shifts = [tuple((tm >> i) & 1 for i in range(6)) for tm in range(64)]
    for c in sample:
        want = [hyperelliptic_transformed(c, mat, t).masks for mat in gl2_f2() for t in shifts]
        assert _hyp_images(*c.masks) == want, c.curve_id


def test_aut_requires_f2():
    c = quadric_curve("ns", field(2), curve_from_monomials("ns", SMOOTH_SS).coeffs)
    with pytest.raises(ValueError, match="unsupported base field"):
        aut_order_f2(c)


def test_hyperelliptic_transform_is_isomorphism():
    # transformed smooth models keep their point counts
    rng = random.Random(74)
    mats = gl2_f2()
    checked = 0
    while checked < 10:
        hm = rng.randrange(1, 64)
        fm = rng.randrange(1 << 11)
        try:
            c = hyperelliptic_from_masks(hm, fm)
        except ValueError:
            continue
        if not is_smooth(c).smooth:
            continue
        mat = rng.choice(mats)
        t = tuple(rng.randrange(2) for _ in range(6))
        img = hyperelliptic_transformed(c, mat, t)
        assert is_smooth(img).smooth
        for n in (1, 2):
            assert count_points(img, n) == count_points(c, n)
        checked += 1

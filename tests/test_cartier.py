"""Cartier / Hasse-Witt machinery.

The smooth-quadric example matrix is a published value.  The hyperelliptic
rows for y^2 + y = x^9 + x^5 follow from the even/odd split by hand:
x^0, x^2 are squares (B = 0), x gives B = 1, x^3 gives B = x.  The cone
example's a-number 2 at 2-rank 0 is what the rank-3 quadric forces.  The 2-rank
cross-checks run against the Newton-polygon p-rank computed from point
counts, which exercises a completely different code path (zeta).
"""

import random

import numpy as np
import pytest

from genus4census.cartier import (
    GENUS,
    SemilinearOperator,
    a_number,
    cartier_operator,
    hasse_witt_rows,
    two_rank,
)
from genus4census import cartier, census
from genus4census.curves import (
    HyperellipticCurve,
    count_points,
    hyperelliptic_from_masks,
    is_smooth,
    quadric_curve_from_mask,
)
from genus4census.gfarith import F2, field, gf2x_degree, gf2x_factor, poly_from_coeffs, poly_mul, poly_shift
from genus4census.kinds import DESCRIPTIONS, Kind
from genus4census.zeta import newton_polygon, weil_from_counts

from oracles import is_type43_candidate

SS_MASK = 0x1D0C  # X^2Z + Y^2Z + YZ^2 + X^2T + Y^2T + XT^2 on the ns quadric


# ---------------------------------------------------------------------------
# the oracle: C^n by iterating the semilinear map on the standard basis, and
# ranks by Gaussian elimination over F
# ---------------------------------------------------------------------------


def semilinear_apply(op, vec):
    """C(v) = sum_i sqrt(v_i) rows[i]."""
    spec = op.spec
    out = [spec.zero] * GENUS
    for c, row in zip(vec, op.rows):
        if c:
            s = spec.sqrt(c)
            out = [spec.add(o, spec.mul(s, r)) for o, r in zip(out, row)]
    return tuple(out)


def semilinear_power(op, n):
    """Basis images of the n-fold composite C^n (a 1/2^n-linear map; the
    rows and their rank are exact for every n)."""
    if n < 0:
        raise ValueError("negative powers are not defined")
    rows = []
    for i in range(GENUS):
        v = tuple(op.spec.one if j == i else op.spec.zero for j in range(GENUS))
        for _ in range(n):
            v = semilinear_apply(op, v)
        rows.append(v)
    return SemilinearOperator(op.spec, tuple(rows))


def matrix_rank(spec, rows) -> int:
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = spec.inv(work[rank][col])
        work[rank] = [spec.mul(inv, c) for c in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [spec.add(a, spec.mul(factor, b)) for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def is_zero(op) -> bool:
    return not any(c for r in op.rows for c in r)


def oracle_invariants(op):
    """(a-number, 2-rank, type43) from the powers C, C^2, C^4."""
    rank = matrix_rank(op.spec, op.rows)
    s2 = matrix_rank(op.spec, semilinear_power(op, 4).rows)
    t43 = (rank == 2 and is_zero(semilinear_power(op, 2))) if s2 == 0 else None
    return GENUS - rank, s2, t43


def _assert_bit_route_matches_oracle(op):
    want = oracle_invariants(op)
    assert cartier.invariants(op) == want, (op.spec.k, op.rows)
    assert op.rank == GENUS - want[0]
    assert (a_number(op), two_rank(op)) == want[:2]
    if want[2] is None:
        with pytest.raises(ValueError, match="p-rank 0"):
            is_type43_candidate(op)
    else:
        assert is_type43_candidate(op) is want[2]
    return want


def _matmul(spec, a, b):
    n = len(a)
    return tuple(
        tuple(
            _fold(spec, (spec.mul(a[i][j], b[j][k]) for j in range(n)))
            for k in range(n)
        )
        for i in range(n)
    )


def _fold(spec, items):
    acc = spec.zero
    for x in items:
        acc = spec.add(acc, x)
    return acc


# ---------------------------------------------------------------------------
# the published example
# ---------------------------------------------------------------------------


def test_hasse_witt_of_example_curve():
    c = quadric_curve_from_mask("ns", SS_MASK)
    op = cartier_operator(c)
    hw = ((0, 1, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 1, 0))
    assert op.rows == hw  # F_2: Cartier equals Hasse-Witt
    assert hasse_witt_rows(op) == hw
    assert op.rank == 3
    assert a_number(op) == 1
    assert two_rank(op) == 0
    assert is_type43_candidate(op) is False


def test_hyperelliptic_cartier_rows():
    c = hyperelliptic_from_masks(0x01, 0x220)  # y^2 + y = x^9 + x^5
    op = cartier_operator(c)
    assert op.rows == ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0))
    assert op.rank == 2
    assert not is_zero(semilinear_power(op, 2))  # C^2(w4) = w1
    assert two_rank(op) == 0
    assert is_type43_candidate(op) is False
    # rows depend only on h: the twist has the same operator
    tw = cartier_operator(hyperelliptic_from_masks(0x01, 0x221))
    assert tw.rows == op.rows


def test_h_with_two_finite_branch_points():
    # h = x^2 + x: rows e1, e2, e2, e3; 2-rank 2 (three branch points)
    c = hyperelliptic_from_masks(0x06, 0x200)
    op = cartier_operator(c)
    assert op.rows == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert op.rank == 3
    assert matrix_rank(F2, semilinear_power(op, 4).rows) == 2
    assert two_rank(op) == 2
    with pytest.raises(ValueError, match="p-rank 0"):
        is_type43_candidate(op)


def test_type43_block_shape():
    # C(w2) = w1, C(w4) = w3, C(w1) = C(w3) = 0: rank 2 with square zero
    op = SemilinearOperator(F2, ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0)))
    assert two_rank(op) == 0
    assert is_type43_candidate(op) is True


def test_bit_route_matches_oracle_on_hand_made_nilpotents():
    # rank 2 with C^2 = 0, and rank 2 with C^2(w4) = w1, over F_2 and F_16
    square_zero = ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0))
    square_nonzero = ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0))
    for spec in (F2, field(4)):
        assert _assert_bit_route_matches_oracle(SemilinearOperator(spec, square_zero)) == (2, 0, True)
        assert _assert_bit_route_matches_oracle(SemilinearOperator(spec, square_nonzero)) == (2, 0, False)
    # the same shapes with coefficients that are not in F_2
    K = field(4)
    op = SemilinearOperator(K, ((0, 0, 0, 0), (7, 0, 0, 0), (0, 0, 0, 0), (0, 0, 11, 0)))
    assert _assert_bit_route_matches_oracle(op) == (2, 0, True)
    op = SemilinearOperator(K, ((0, 0, 0, 0), (7, 0, 0, 0), (0, 0, 0, 0), (0, 11, 0, 0)))
    assert _assert_bit_route_matches_oracle(op) == (2, 0, False)


def test_cartier_operator_dispatch():
    assert cartier_operator(hyperelliptic_from_masks(0x01, 0x220)).rank == 2
    assert cartier_operator(quadric_curve_from_mask("ns", SS_MASK)).rank == 3
    # the cone reads its chart X = 1, basis 1, u, u^2, v: C(u) = v, C(v) = 1
    cone = cartier_operator(quadric_curve_from_mask("cone", 0x4208))
    assert cone.rows == ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0), (1, 0, 0, 0))
    assert cartier.invariants(cone) == (2, 0, False)
    with pytest.raises(TypeError):
        cartier_operator("ns;c=0x1d0c")


def test_term_outside_the_basis_raises(monkeypatch):
    # x^4 in place of x^3: with h = x^3 the row of x^4 reads x^7 y, the cell of x^3
    hyp = dict(zip(Kind._fields, DESCRIPTIONS["hyp"]._values()), cartier_basis=((0, 0), (0, 1), (0, 2), (0, 4)))
    monkeypatch.setitem(DESCRIPTIONS, "hyp", Kind(**hyp))
    with pytest.raises(AssertionError, match="outside the differential basis"):
        cartier_operator(hyperelliptic_from_masks(0x08, 0x200))


# ---------------------------------------------------------------------------
# semilinear algebra
# ---------------------------------------------------------------------------


def test_even_odd_split_reconstructs():
    # hyperelliptic row i is the B of x^i h = A^2 + B^2 x: x^i h + B^2 x is a square
    rng = random.Random(81)
    for spec in (F2, field(2), field(3)):
        for _ in range(60):
            h = poly_from_coeffs(spec, [rng.randrange(spec.order) for _ in range(5)] + [1])
            f = poly_from_coeffs(spec, [rng.randrange(spec.order) for _ in range(11)])
            op = cartier_operator(HyperellipticCurve(spec, h, f))
            for i, row in enumerate(op.rows):
                b = poly_from_coeffs(spec, row)
                rest = list(poly_shift(spec, h, i)) + [0] * 12
                for j, c in enumerate(poly_mul(spec, b, b)):
                    rest[j + 1] = spec.add(rest[j + 1], c)
                assert not any(rest[1::2]), (spec.k, h, i)


def _random_operator(rng, spec, case):
    """Dense, sparse or strictly lower triangular (so nilpotent) in turn."""
    shape = case % 3
    rows = []
    for i in range(GENUS):
        rows.append(tuple(
            rng.randrange(spec.order) if (shape == 0 or (shape == 1 and rng.random() < 0.4)
                                          or (shape == 2 and j < i and rng.random() < 0.5)) else 0
            for j in range(GENUS)))
    return SemilinearOperator(spec, tuple(rows))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_bit_route_matches_oracle_on_random_operators(k):
    rng = random.Random(90 + k)
    spec = field(k)
    seen = set()
    for case in range(300):
        seen.add(_assert_bit_route_matches_oracle(_random_operator(rng, spec, case)))
    assert {s2 for _, s2, _ in seen} == {0, 1, 2, 3, 4}
    assert {t43 for _, _, t43 in seen} == {True, False, None}


def test_bit_route_matches_oracle_on_every_hyp_h():
    for hm in range(1, 64):
        op = cartier_operator(hyperelliptic_from_masks(hm, 1 << 10))
        assert census._hyp_cartier(hm) == _assert_bit_route_matches_oracle(op), hm


def test_hyp_cartier_word_matches_operator_on_every_h():
    # the XOR of the six basis words against cartier_operator, for f = x^10
    # and other f of the genus-4 shape: f does not enter the matrix
    for hm in range(1, 64):
        for fm in (1 << 10, 1 << 9, 0x7FF, 0x2A5, 0x4C3):
            op = cartier_operator(hyperelliptic_from_masks(hm, fm))
            assert cartier.hyp_cartier_word(hm) == cartier.cartier_word(op), (hex(hm), hex(fm))


def test_bit_route_matches_oracle_on_census_quadric_representatives():
    # the orbit representatives _quadric_chunk decides: least image of each
    # mask the scan leaves unflagged
    for kind, smooth_orbits in (("ns", 252), ("cone", 274)):
        _, flagged, _ = census._quadric_scan(kind, np.arange(1 << 16))
        open_masks = np.flatnonzero(~flagged)
        smooth = 0
        for rep in sorted(set(census._quadric_images(kind, open_masks).min(axis=1).tolist())):
            res, cart = census._quadric_orbit_decision(kind, rep)
            if res.smooth:
                assert cart == _assert_bit_route_matches_oracle(
                    cartier_operator(quadric_curve_from_mask(kind, rep))), (kind, rep)
                smooth += 1
        assert smooth == smooth_orbits


def _assert_word_matches_operator(kind: str, mask: int) -> None:
    op = cartier_operator(quadric_curve_from_mask(kind, mask))
    word = cartier.quadric_cartier_word(kind, mask)
    assert word == cartier.cartier_word(op), (kind, hex(mask))
    assert [[(word >> (4 * i + j)) & 1 for j in range(GENUS)] for i in range(GENUS)] == [list(r) for r in op.rows]
    assert cartier.word_invariants(word) == cartier.invariants(op), (kind, hex(mask))


def test_quadric_cartier_words_match_operator():
    # the XOR of basis words against cartier_operator: on every smooth orbit
    # representative the census decides, and on 2,000 seeded masks per kind
    # (the CI step covers all 2^16 masks of both kinds)
    rng = random.Random(2121)
    for kind, smooth_orbits in (("ns", 252), ("cone", 274)):
        _, flagged, _ = census._quadric_scan(kind, np.arange(1 << 16))
        reps = set(census._quadric_images(kind, np.flatnonzero(~flagged)).min(axis=1).tolist())
        smooth = [rep for rep in sorted(reps) if census._quadric_orbit_decision(kind, rep)[0].smooth]
        assert len(smooth) == smooth_orbits
        for mask in smooth + rng.sample(range(1 << 16), 2000):
            _assert_word_matches_operator(kind, mask)


def test_cartier_word_packs_f2_operators_only():
    op = cartier_operator(quadric_curve_from_mask("ns", SS_MASK))
    word = cartier.cartier_word(op)
    assert word == sum(c << (4 * i + j) for i, row in enumerate(op.rows) for j, c in enumerate(row))
    assert cartier.word_invariants(word) == cartier.invariants(op) == (1, 0, False)
    with pytest.raises(ValueError, match="over F_2"):
        cartier.cartier_word(SemilinearOperator(field(2), op.rows))


def test_power_matches_matrix_products_over_f2():
    rng = random.Random(82)
    for _ in range(50):
        rows = tuple(tuple(rng.randrange(2) for _ in range(4)) for _ in range(4))
        op = SemilinearOperator(F2, rows)
        m2 = _matmul(F2, rows, rows)
        assert semilinear_power(op, 2).rows == m2
        assert semilinear_power(op, 3).rows == _matmul(F2, m2, rows)
        assert semilinear_power(op, 3).rows == _matmul(F2, rows, m2)


def test_power_rank_matches_twisted_product_over_f4():
    # rank C^4 = rank(M sigma(M) sigma^2(M) sigma^3(M)), sigma = squaring
    rng = random.Random(83)
    K = field(2)
    for _ in range(40):
        rows = tuple(tuple(rng.randrange(4) for _ in range(4)) for _ in range(4))
        op = SemilinearOperator(K, rows)
        prod = rows
        twisted = rows
        for _ in range(3):
            twisted = tuple(tuple(K.mul(c, c) for c in r) for r in twisted)
            prod = _matmul(K, prod, twisted)
        assert matrix_rank(K, semilinear_power(op, 4).rows) == matrix_rank(K, prod)


def test_power_rank_monotone_and_stable():
    rng = random.Random(84)
    for spec in (F2, field(2)):
        for _ in range(40):
            rows = tuple(tuple(rng.randrange(spec.order) for _ in range(4)) for _ in range(4))
            op = SemilinearOperator(spec, rows)
            ranks = [matrix_rank(spec, semilinear_power(op, n).rows) for n in range(7)]
            assert ranks[0] == 4
            for a, b in zip(ranks, ranks[1:]):
                assert b <= a
            assert ranks[4] == ranks[5] == ranks[6]


def test_apply_is_semilinear():
    rng = random.Random(85)
    K = field(3)
    for _ in range(40):
        rows = tuple(tuple(rng.randrange(8) for _ in range(4)) for _ in range(4))
        op = SemilinearOperator(K, rows)
        u = tuple(rng.randrange(8) for _ in range(4))
        v = tuple(rng.randrange(8) for _ in range(4))
        lam = rng.randrange(8)
        left = semilinear_apply(op, tuple(K.add(a, b) for a, b in zip(u, v)))
        right = tuple(K.add(a, b) for a, b in zip(semilinear_apply(op, u), semilinear_apply(op, v)))
        assert left == right
        scaled = semilinear_apply(op, tuple(K.mul(K.mul(lam, lam), a) for a in u))
        expect = tuple(K.mul(lam, a) for a in semilinear_apply(op, u))
        assert scaled == expect


# ---------------------------------------------------------------------------
# cross-checks against point counts
# ---------------------------------------------------------------------------


def _quadric_two_ranks_match_slopes(kind, seed):
    rng = random.Random(seed)
    checked = 0
    while checked < 15:
        c = quadric_curve_from_mask(kind, rng.randrange(1 << 16))
        if not is_smooth(c).smooth:
            continue
        counts = [count_points(c, n) for n in (1, 2, 3, 4)]
        w = weil_from_counts(counts, q=2)
        p_rank = newton_polygon(w).p_rank
        assert two_rank(cartier_operator(c)) == p_rank, (c.curve_id, counts)
        checked += 1


def test_two_rank_matches_newton_polygon_ns():
    _quadric_two_ranks_match_slopes("ns", 86)


def test_two_rank_matches_newton_polygon_cone():
    _quadric_two_ranks_match_slopes("cone", 88)


def test_two_rank_matches_newton_polygon_hyp():
    rng = random.Random(87)
    checked = 0
    while checked < 15:
        hm = rng.randrange(1, 64)
        fm = rng.randrange(1 << 11)
        try:
            c = hyperelliptic_from_masks(hm, fm)
        except ValueError:
            continue
        if not is_smooth(c).smooth:
            continue
        counts = [count_points(c, n) for n in (1, 2, 3, 4)]
        w = weil_from_counts(counts, q=2)
        p_rank = newton_polygon(w).p_rank
        tr = two_rank(cartier_operator(c))
        assert tr == p_rank, (c.curve_id, counts)
        # branch-point count: distinct roots of h, plus infinity if deg h < 5
        hm_mask, _ = c.masks
        branch = sum(gf2x_degree(g) for g, _ in gf2x_factor(hm_mask))
        if gf2x_degree(hm_mask) < 5:
            branch += 1
        assert tr == branch - 1, (c.curve_id,)
        checked += 1

"""Tests for Weil polynomials, Newton polygons, strata, base extension."""
from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from genus4census import zeta
from genus4census.zeta import (
    NewtonPolygon,
    PointCounts,
    WeilPolynomial,
    base_extend,
    classify_stratum,
    newton_polygon,
    predicted_counts,
    weil_from_counts,
)

HALF = Fraction(1, 2)
SUPERSINGULAR = (HALF,) * 8


# ---------------------------------------------------------------------------
# weil_from_counts
# ---------------------------------------------------------------------------


def test_supersingular_example_polynomial():
    w = weil_from_counts((7, 9, 13, 9), 2)
    # t^8+4t^7+10t^6+20t^5+32t^4+40t^3+40t^2+32t+16, constant term first
    assert w.coeffs == (16, 32, 40, 40, 32, 20, 10, 4, 1)
    assert w.q == 2 and w.g == 4
    assert newton_polygon(w).slopes == tuple([HALF] * 8)
    assert classify_stratum(newton_polygon(w)) == zeta.StratumLabel("S4", 0)


def test_n13_example_polynomial():
    # hand-derived: s = (-2,-4,-2,-8); Newton's identities give
    # a_1..a_4 = 2,4,6,8, completed by a_5..a_8 = 12,16,16,16
    w = weil_from_counts((5, 9, 11, 17), 2)
    assert w.coeffs == (16, 16, 16, 12, 8, 6, 4, 2, 1)
    np_ = newton_polygon(w)
    assert np_.slopes == tuple(
        [Fraction(1, 3)] * 3 + [HALF] * 2 + [Fraction(2, 3)] * 3
    )
    assert classify_stratum(np_).name == "N13"


def test_n14_example_polynomial():
    # same as N13 input except N_4 = 25, which flips a_4 from 8 to 10
    w = weil_from_counts((5, 9, 11, 25), 2)
    assert w.coeffs == (16, 16, 16, 12, 10, 6, 4, 2, 1)
    np_ = newton_polygon(w)
    assert np_.slopes == tuple([Fraction(1, 4)] * 4 + [Fraction(3, 4)] * 4)
    assert classify_stratum(np_).name == "N14"


def test_hyperelliptic_class_polynomial():
    # y^2 + y = x^9 + x^5 has counts (5,5,5,9); its L-polynomial is
    # 16 + 16t + 8t^2 - 4t^4 + 2t^6 + 2t^7 + t^8 read off constant-first
    w = weil_from_counts((5, 5, 5, 9), 2)
    assert w.coeffs == (16, 16, 8, 0, -4, 0, 2, 2, 1)
    assert newton_polygon(w).slopes == SUPERSINGULAR


def test_round_trip_counts():
    for counts in [(7, 9, 13, 9), (5, 9, 11, 17), (5, 9, 11, 25), (5, 5, 5, 9)]:
        w = weil_from_counts(counts, 2)
        assert predicted_counts(w, 4) == counts
        # the extension counts N_5..N_8 must be nonnegative
        assert all(n >= 0 for n in predicted_counts(w, 8))


def test_arity_and_validation_errors():
    with pytest.raises(ValueError):
        PointCounts((3, 5, 9), 2)
    with pytest.raises(ValueError):
        PointCounts((3, 5, 9, 17, 33), 2)
    with pytest.raises(ValueError):
        PointCounts((3, -1, 9, 17), 2)
    with pytest.raises(ValueError):
        PointCounts((3, 5, 9, 17), 3)
    with pytest.raises(TypeError):
        weil_from_counts((3, 5, 9, 17))


def test_weil_bound_rejection():
    with pytest.raises(ValueError, match="not a genus-4 curve count sequence"):
        weil_from_counts((100, 9, 13, 9), 2)
    # parity failure: s_1 = -1, s_2 = -4 makes a_2 non-integral
    with pytest.raises(ValueError, match="not a genus-4 curve count sequence"):
        weil_from_counts((4, 9, 13, 9), 2)


def test_weil_from_counts_under_a_millisecond():
    import time

    best = float("inf")
    for _ in range(200):
        t0 = time.perf_counter()
        weil_from_counts((7, 9, 13, 9), 2)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3


# ---------------------------------------------------------------------------
# WeilPolynomial / NewtonPolygon validation
# ---------------------------------------------------------------------------


def test_weil_polynomial_validation():
    with pytest.raises(ValueError):
        WeilPolynomial((16, 32, 40, 40, 32, 20, 10, 4, 2), 2)  # not monic
    with pytest.raises(ValueError):
        WeilPolynomial((15, 32, 40, 40, 32, 20, 10, 4, 1), 2)  # functional eq
    with pytest.raises(ValueError):
        WeilPolynomial((3, 1, 1), 2)  # constant term 3 != q a_0 = 2
    with pytest.raises(ValueError):
        WeilPolynomial((2, 0, 1), 6)  # q not a power of two


def test_newton_polygon_validation():
    with pytest.raises(ValueError):
        NewtonPolygon((Fraction(1), Fraction(0)))  # not ascending
    with pytest.raises(ValueError):
        NewtonPolygon((Fraction(0), Fraction(1, 2)))  # asymmetric
    # ascending and symmetric, but a slope lies outside [0, 1]
    with pytest.raises(ValueError, match="within"):
        NewtonPolygon((Fraction(-1, 2), Fraction(3, 2)))
    with pytest.raises(ValueError, match="within"):
        NewtonPolygon((Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(4, 3)))
    # ascending within [0, 1], summing to 3/2 instead of g = 1 (symmetry
    # implies the sum, so this input also fails the symmetry test)
    with pytest.raises(ValueError, match="asymmetric"):
        NewtonPolygon((Fraction(1, 2), Fraction(1)))
    # ascending within [0, 1] and summing to g = 2, but not symmetric
    with pytest.raises(ValueError, match="asymmetric"):
        NewtonPolygon((Fraction(1, 4), Fraction(1, 4), HALF, Fraction(1)))
    # the accepted shapes, with mixed denominators
    NewtonPolygon((Fraction(1, 3),) * 3 + (HALF,) * 2 + (Fraction(2, 3),) * 3)
    NewtonPolygon(())


def test_stratum_label_table():
    assert classify_stratum(NewtonPolygon(tuple([HALF] * 8))).name == "S4"
    ordinary = NewtonPolygon(tuple([Fraction(0)] * 4 + [Fraction(1)] * 4))
    lab = classify_stratum(ordinary)
    assert lab.name == "Ordinary-or-other" and lab.p_rank == 4
    n14 = NewtonPolygon(tuple([Fraction(1, 4)] * 4 + [Fraction(3, 4)] * 4))
    assert classify_stratum(n14).name == "N14"
    mixed = NewtonPolygon(
        tuple([Fraction(0)] * 2 + [HALF] * 4 + [Fraction(1)] * 2)
    )
    lab = classify_stratum(mixed)
    assert lab.name == "Ordinary-or-other" and lab.p_rank == 2
    # p-rank 0 but not one of the three named shapes
    v0 = NewtonPolygon(
        tuple([Fraction(1, 4)] * 2 + [HALF] * 4 + [Fraction(3, 4)] * 2)
    )
    assert classify_stratum(v0).name == "V0-only"
    with pytest.raises(ValueError):
        classify_stratum(NewtonPolygon((HALF, HALF)))


# ---------------------------------------------------------------------------
# base extension
# ---------------------------------------------------------------------------


def _rational_resultant(a: list[Fraction], b: list[Fraction]) -> Fraction:
    """Signed resultant of two rational polynomials (constant term first)."""

    def trim(p: list[Fraction]) -> list[Fraction]:
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = trim(list(a)), trim(list(b))
    res = Fraction(1)
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        r = list(a)  # a mod b
        for shift in range(da - db, -1, -1):
            c = r[shift + db] / b[-1]
            for i, bc in enumerate(b):
                r[shift + i] -= bc * c
        r = trim(r)
        if not r:
            return Fraction(0)
        if (da * db) % 2:
            res = -res
        res *= b[-1] ** (da - (len(r) - 1))
        a, b = b, r
    return res * b[0] ** (len(a) - 1)


def _base_extend_resultant_oracle(w: WeilPolynomial, n: int) -> WeilPolynomial:
    """Independent method: Res_x(P(x), t - x^n) at t = 0..deg, then Lagrange
    interpolation over the rationals; the sign is fixed so the result is monic."""
    deg = len(w.coeffs) - 1
    p = [Fraction(c) for c in w.coeffs]
    ts = range(deg + 1)
    values = [_rational_resultant(p, [Fraction(t0)] + [Fraction(0)] * (n - 1) + [Fraction(-1)])
              for t0 in ts]
    out = [Fraction(0)] * (deg + 1)
    for i in ts:
        basis, denom = [Fraction(1)], Fraction(1)
        for j in ts:
            if j != i:
                denom *= i - j
                basis = [(basis[m - 1] if m else 0) - j * (basis[m] if m < len(basis) else 0)
                         for m in range(len(basis) + 1)]
        for m, c in enumerate(basis):
            out[m] += c * values[i] / denom
    if out[-1] == -1:
        out = [-c for c in out]
    assert out[-1] == 1 and all(c.denominator == 1 for c in out)
    return WeilPolynomial(tuple(int(c) for c in out), w.q**n)


def test_base_extension_examples():
    w = weil_from_counts((5, 5, 5, 9), 2)
    ext = base_extend(w, 4)
    # (t^4 - 4t^3 + 16t^2 - 64t + 256)^2, squared by hand
    assert ext.coeffs == (65536, -32768, 12288, -4096, 1280, -256, 48, -8, 1)
    assert ext.q == 16
    assert base_extend(w, 1) is w
    e = WeilPolynomial((2, 0, 1), 2)
    assert base_extend(e, 2).coeffs == (4, 4, 1)  # (t+2)^2


def test_base_extension_matches_resultant_oracle():
    rng = random.Random(201)
    polys = _sample_weil_polynomials(rng, 40)
    for w in polys:
        for n in (2, 3, 4):
            assert base_extend(w, n) == _base_extend_resultant_oracle(w, n)


def test_base_extension_multiplicative():
    rng = random.Random(202)
    for w in _sample_weil_polynomials(rng, 25):
        assert base_extend(base_extend(w, 2), 2) == base_extend(w, 4)
        assert base_extend(base_extend(w, 2), 3) == base_extend(w, 6)


def test_base_extension_preserves_supersingularity():
    # slopes are normalized by log_2 q, so extension keeps every slope
    w = weil_from_counts((7, 9, 13, 9), 2)
    for n in (1, 2, 3, 4):
        assert newton_polygon(base_extend(w, n)).slopes == SUPERSINGULAR
    w13 = weil_from_counts((5, 9, 11, 17), 2)
    for n in (1, 2, 3, 4):
        assert newton_polygon(base_extend(w13, n)).slopes == newton_polygon(w13).slopes
        assert newton_polygon(base_extend(w13, n)).slopes != SUPERSINGULAR


def _sample_weil_polynomials(rng, how_many):
    """Genus-4 Weil polynomials harvested from random plausible count vectors."""
    out = []
    while len(out) < how_many:
        counts = tuple(
            max(0, 2**n + 1 + rng.randint(-int(8 * 2 ** (n / 2)), int(8 * 2 ** (n / 2))))
            for n in range(1, 5)
        )
        try:
            out.append(weil_from_counts(counts, 2))
        except ValueError:
            continue
    return out


def test_ordinary_with_odd_a1_is_not_supersingular():
    w = WeilPolynomial((2, 1, 1), 2)
    assert newton_polygon(w).slopes == (Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# the array form: weil_rows_f2 against weil_from_counts and predicted_counts
# ---------------------------------------------------------------------------


def _scalar_weil_route(counts):
    """(L-coefficients or None, the reason weil_from_counts or the round
    trip of predicted_counts refuses counts, or None)."""
    try:
        w = weil_from_counts(counts, 2)
    except ValueError as exc:
        return None, str(exc)
    if predicted_counts(w)[:4] != tuple(counts):
        return None, "count/Weil round trip failed"
    return w.l_coeffs, None


def test_weil_rows_match_scalar_route_on_a_grid():
    # every N_1..N_4 grid point with N_1 <= 16, N_2 <= 21, N_3 <= 33 and
    # N_4 <= 49 (the 6-bit census keys cover this) by its failure code, and
    # the scalar route on up to 200 seeded points of each code
    grid = np.stack(np.meshgrid(*(np.arange(n) for n in (17, 22, 34, 50)), indexing="ij"), -1).reshape(-1, 4)
    a, fail = zeta.weil_rows_f2(grid)
    assert a.shape == (len(grid), 9) and a.dtype == np.int64 and fail.shape == (len(grid),)
    rng = np.random.default_rng(2121)
    codes = np.unique(fail).tolist()
    # sound rows, both kinds of Weil-bound failure, non-integer coefficients
    # and negative predicted counts all occur
    assert {0, 1, 6, 9, 10} <= set(codes)
    for code in codes:
        rows = np.flatnonzero(fail == code)
        for i in rng.choice(rows, min(200, len(rows)), replace=False).tolist():
            l_coeffs, why = _scalar_weil_route(tuple(grid[i].tolist()))
            assert why == (zeta.WEIL_ROW_FAILURES[code - 1] if code else None), grid[i]
            if code == 0:
                assert tuple(a[i].tolist()) == l_coeffs, grid[i]


def test_weil_rows_round_trip_is_checked(monkeypatch):
    # the round trip never fails on sound rows, so break predicted counts
    real = zeta._predicted_columns

    def off_by_one(a, q, upto):
        out = real(a, q, upto)
        out[2, 1] += 1  # N_3 of row 1
        return out

    monkeypatch.setattr(zeta, "_predicted_columns", off_by_one)
    _, fail = zeta.weil_rows_f2([(7, 9, 13, 9), (5, 9, 11, 17), (3, 5, 9, 9)])
    assert fail.tolist() == [0, len(zeta.WEIL_ROW_FAILURES), 0]
    assert zeta.WEIL_ROW_FAILURES[-1] == "count/Weil round trip failed"

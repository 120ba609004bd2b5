"""Randomized property suites.

Each suite_* function runs at least a thousand independently sampled cases
and returns the exact number executed; the pytest wrappers and the
acceptance test both call them.  All sampling is seeded, so failures
reproduce.
"""

import random
from fractions import Fraction

from genus4census.cartier import SemilinearOperator, a_number, cartier_operator, two_rank
from genus4census.curves import (
    apply_transform,
    count_points,
    gl2_f2,
    hyperelliptic_from_masks,
    hyperelliptic_transformed,
    is_smooth,
    quadric_curve_from_mask,
    quadric_stabilizer_f2,
)
from genus4census.gfarith import field
from genus4census.zeta import newton_polygon, predicted_counts, weil_from_counts

from oracles import base_extend
from test_cartier import matrix_rank, semilinear_power


def _random_quadric(rng, kind):
    return quadric_curve_from_mask(kind, rng.randrange(1 << 16))


def _random_smooth_quadric(rng, kind):
    while True:
        curve = _random_quadric(rng, kind)
        if is_smooth(curve).smooth:
            return curve


def _random_smooth_hyp(rng):
    while True:
        hm = rng.randrange(1, 64)
        fm = rng.randrange(0 if hm >= 32 else 512, 2048)
        curve = hyperelliptic_from_masks(hm, fm)
        if is_smooth(curve).smooth:
            return curve


def _counts(curve, upto):
    return tuple(count_points(curve, n, raw=True) for n in range(1, upto + 1))


# ---------------------------------------------------------------------------
# suite 1: isomorphisms preserve counts, smoothness, and the a-number
# ---------------------------------------------------------------------------


def suite_transform_invariance(seed=1201, cases=1000):
    rng = random.Random(seed)
    stab = {kind: quadric_stabilizer_f2(kind) for kind in ("ns", "cone")}
    mats = gl2_f2()
    done = 0
    while done < cases:
        branch = done % 3
        if branch < 2:
            kind = ("ns", "cone")[branch]
            curve = _random_quadric(rng, kind)
            other = apply_transform(curve, rng.choice(stab[kind]))
            smooth = is_smooth(curve).smooth
            assert smooth == is_smooth(other).smooth, (curve.curve_id, other.curve_id)
            assert _counts(curve, 2) == _counts(other, 2), (curve.curve_id, other.curve_id)
            if smooth:
                assert a_number(cartier_operator(curve)) == a_number(cartier_operator(other))
        else:
            curve = _random_smooth_hyp(rng)
            shift = tuple(rng.randrange(2) for _ in range(6))
            other = hyperelliptic_transformed(curve, rng.choice(mats), shift)
            assert is_smooth(other).smooth, (curve.curve_id, other.curve_id)
            assert _counts(curve, 2) == _counts(other, 2), (curve.curve_id, other.curve_id)
            assert a_number(cartier_operator(curve)) == a_number(cartier_operator(other))
        done += 1
    return done


# ---------------------------------------------------------------------------
# suite 2: iterated semilinear operators have monotone, stabilizing rank
# ---------------------------------------------------------------------------


def suite_semilinear_rank_chain(seed=1202, cases=1000):
    rng = random.Random(seed)
    for case in range(cases):
        spec = field(1 + case % 3)
        rows = tuple(tuple(rng.randrange(spec.order) for _ in range(4)) for _ in range(4))
        op = SemilinearOperator(spec, rows)
        ranks = [matrix_rank(spec, semilinear_power(op, k).rows) for k in range(1, 7)]
        assert all(ranks[i + 1] <= ranks[i] for i in range(5)), (rows, ranks)
        # a chain of subspaces of a 4-dimensional space stabilizes by step 4
        assert ranks[3] == ranks[4] == ranks[5], (rows, ranks)
        assert two_rank(op) == ranks[3]
    return cases


# ---------------------------------------------------------------------------
# suite 3: Newton polygons are symmetric with total slope g
# ---------------------------------------------------------------------------


def suite_newton_slope_symmetry(seed=1203, cases=1000):
    rng = random.Random(seed)
    for case in range(cases):
        if case % 10 == 0:
            curve = _random_smooth_quadric(rng, ("ns", "cone")[(case // 10) % 2])
        else:
            curve = _random_smooth_hyp(rng)
        poly = newton_polygon(weil_from_counts(_counts(curve, 4), 2))
        slopes = poly.slopes
        assert len(slopes) == 8 and sum(slopes) == 4, (curve.curve_id, slopes)
        assert slopes == tuple(sorted(slopes)), (curve.curve_id, slopes)
        assert all(slopes[i] + slopes[7 - i] == 1 for i in range(8)), (curve.curve_id, slopes)
        assert poly.p_rank == sum(1 for s in slopes if s == 0)
    return cases


# ---------------------------------------------------------------------------
# suite 4: 1 <= p-rank + a-number <= 4 on smooth models
# ---------------------------------------------------------------------------


def suite_prank_anumber_window(seed=1204, cases=1000):
    rng = random.Random(seed)
    for case in range(cases):
        if case % 10 == 0:
            curve = _random_smooth_quadric(rng, ("ns", "cone")[(case // 10) % 2])
        else:
            curve = _random_smooth_hyp(rng)
        op = cartier_operator(curve)
        pr = newton_polygon(weil_from_counts(_counts(curve, 4), 2)).p_rank
        a = a_number(op)
        assert 1 <= pr + a <= 4, (curve.curve_id, pr, a)
        # a = 0 exactly when the curve is ordinary
        assert (a == 0) == (pr == 4), (curve.curve_id, pr, a)
    return cases


# ---------------------------------------------------------------------------
# suite 5: matrix-side 2-rank equals the number of zero slopes
# ---------------------------------------------------------------------------


def suite_two_rank_matches_slopes(seed=1205, cases=1000):
    rng = random.Random(seed)
    for case in range(cases):
        if case % 10 == 0:
            curve = _random_smooth_quadric(rng, ("ns", "cone")[(case // 10) % 2])
        else:
            curve = _random_smooth_hyp(rng)
        op = cartier_operator(curve)
        poly = newton_polygon(weil_from_counts(_counts(curve, 4), 2))
        assert two_rank(op) == poly.p_rank, (curve.curve_id, two_rank(op), poly.p_rank)
    return cases


# ---------------------------------------------------------------------------
# suite 6: base extension is multiplicative on point counts
# ---------------------------------------------------------------------------


def suite_base_extension_multiplicative(seed=1206, cases=1000):
    rng = random.Random(seed)
    pairs = [(d, n) for d in (2, 3, 4) for n in range(1, 8 // d + 1)]
    done = 0
    while done < cases:
        curve = _random_smooth_hyp(rng)
        w = weil_from_counts(_counts(curve, 4), 2)
        over_q = predicted_counts(w)
        assert base_extend(w, 1) == w
        for d, n in pairs:
            ext = base_extend(w, d)
            assert ext.q == 2 ** d
            assert predicted_counts(ext)[n - 1] == over_q[d * n - 1], (curve.curve_id, d, n)
            if d % 2 == 0:
                assert base_extend(base_extend(w, d // 2), 2) == ext
            done += 1
    return done


SUITES = (
    suite_transform_invariance,
    suite_semilinear_rank_chain,
    suite_newton_slope_symmetry,
    suite_prank_anumber_window,
    suite_two_rank_matches_slopes,
    suite_base_extension_multiplicative,
)


def test_transform_invariance():
    assert suite_transform_invariance() >= 1000


def test_semilinear_rank_chain():
    assert suite_semilinear_rank_chain() >= 1000


def test_newton_slope_symmetry():
    assert suite_newton_slope_symmetry() >= 1000


def test_prank_anumber_window():
    assert suite_prank_anumber_window() >= 1000


def test_two_rank_matches_slopes():
    assert suite_two_rank_matches_slopes() >= 1000


def test_base_extension_multiplicative():
    assert suite_base_extension_multiplicative() >= 1000


def test_slopes_are_fractions():
    rng = random.Random(7)
    curve = _random_smooth_hyp(rng)
    poly = newton_polygon(weil_from_counts(_counts(curve, 4), 2))
    assert all(isinstance(s, Fraction) for s in poly.slopes)

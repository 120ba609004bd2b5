"""Acceptance gate: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion.  The slow criteria share the session-wide census fixture.
"""

import time
from fractions import Fraction

from genus4census import census, dieudonne
from genus4census.cartier import a_number, cartier_operator, hasse_witt_rows, two_rank
from genus4census.census import (
    discrepancy_report,
    group_isogeny_classes,
    record_to_json,
    run_census,
    verify_propositions,
)
from genus4census.curves import aut_order_f2, parse_curve_id, quadric_curve_from_mask
from genus4census.dieudonne import (
    STANDARD_DECOMPOSITIONS,
    canonical_filtration,
    catalog,
    direct_sum,
    final_to_young,
    final_type_of_module,
    standard_module,
    young_to_final,
)
from genus4census.zeta import WeilPolynomial, classify_stratum, newton_polygon, weil_from_counts

from oracles import base_extend
from test_properties import SUITES

HALF = Fraction(1, 2)


def _best_time(fn, runs=5):
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_zeta_recovery():
    def job():
        return weil_from_counts((7, 9, 13, 9), 2)

    w = job()  # warm call, outside the timed runs
    assert w.coeffs == (16, 32, 40, 40, 32, 20, 10, 4, 1)
    assert w.q == 2
    assert _best_time(job) < 1e-3


def test_criterion_2_newton_classification():
    expect = {
        (7, 9, 13, 9): ("S4", (HALF,) * 8),
        (5, 9, 11, 17): ("N13", (Fraction(1, 3),) * 3 + (HALF,) * 2 + (Fraction(2, 3),) * 3),
        (5, 9, 11, 25): ("N14", (Fraction(1, 4),) * 4 + (Fraction(3, 4),) * 4),
    }
    for counts, (name, slopes) in expect.items():
        poly = newton_polygon(weil_from_counts(counts, 2))
        assert classify_stratum(poly).name == name
        assert poly.slopes == slopes


def test_criterion_3_hasse_witt_matrix():
    curve = quadric_curve_from_mask("ns", 0x1D0C)
    op = cartier_operator(curve)
    assert hasse_witt_rows(op) == ((0, 1, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 1, 0))
    assert op.rank == 3
    assert a_number(op) == 1
    assert two_rank(op) == 0


def test_criterion_4_base_extension_to_f16():
    w = WeilPolynomial(census.CLASS_H_WEIL, 2)
    ext = base_extend(w, 4)
    # (t^4 - 4t^3 + 16t^2 - 64t + 256)^2, ascending coefficients
    assert ext.q == 16
    assert ext.coeffs == (65536, -32768, 12288, -4096, 1280, -256, 48, -8, 1)


def test_criterion_5_dieudonne_round_trips():
    t0 = time.perf_counter()
    mus = [(4,), (4, 1), (4, 2), (4, 3), (4, 2, 1), (4, 3, 1), (4, 3, 2), (4, 3, 2, 1)]
    assert sorted(mus) == sorted(STANDARD_DECOMPOSITIONS)
    for mu in mus:
        nu = young_to_final(mu)
        assert final_type_of_module(standard_module(nu)) == nu
        assert final_to_young(nu) == mu

    # the rank-6 a-number-2 module: D6 > D3 > D1 with F^{-1}(D1) = D4
    m = catalog("I_{3,2}")
    spaces = canonical_filtration(m)
    by_dim = {len(s): s for s in spaces}
    assert dieudonne._image(m.v_rows, by_dim[6]) == by_dim[3]
    assert dieudonne._image(m.v_rows, by_dim[3]) == by_dim[1]
    assert dieudonne._preimage(m.f_rows, by_dim[1], 6) == by_dim[4]

    for mu, names in STANDARD_DECOMPOSITIONS.items():
        total = standard_module(())
        for name in names:
            total = direct_sum(total, catalog(name))
        assert final_type_of_module(total) == young_to_final(mu), (mu, names)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_6_full_census_verified(full_census):
    records, elapsed = full_census
    assert elapsed < 900
    totals = {}
    for rec in records:
        totals[rec.kind] = totals.get(rec.kind, 0) + 1
    assert totals["ns"] + totals["cone"] == 131072
    assert totals["hyp"] == 113152

    report = verify_propositions(records)
    assert report.ok, report.lines
    smooth = [rec for rec in records if rec.smooth]
    assert not [r for r in smooth if r.kind == "ns" and r.type43]
    assert all(r.eo_mu == (4, 2) for r in smooth if r.kind == "hyp" and r.two_rank == 0)
    assert not [r for r in smooth if r.a_number is not None and r.a_number >= 3]
    assert len({r.weil for r in smooth if r.stratum == "S4"}) <= 65

    # determinism: an independent two-worker rerun of one kind is byte-identical
    cone = [record_to_json(r) for r in records if r.kind == "cone"]
    rerun = [record_to_json(r) for r in run_census(kinds="cone", workers=2)]
    assert rerun == cone


def test_criterion_7_stack_counts(full_census):
    records, _ = full_census
    class_h, twist = group_isogeny_classes(
        records, [census.CLASS_H_WEIL, census.CLASS_H_TWIST_WEIL])

    for report in (class_h, twist):
        assert len(report.iso_rep_ids) == 1
        rep_id = report.iso_rep_ids[0]
        assert rep_id.startswith("hyp;")
        assert aut_order_f2(parse_curve_id(rep_id)) == 4
        assert report.jacobian_auts == (4,)
        assert report.stack_count == Fraction(1, 4)

    text = discrepancy_report(class_h)
    assert "curve-side stack count:   1/4" in text
    assert "abelian-side stack count: 7/4" in text
    assert "1/4 != 7/4" in text


def test_criterion_8_property_suites():
    assert len(SUITES) == 6
    for suite in SUITES:
        assert suite() >= 1000, suite.__name__

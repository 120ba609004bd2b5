"""Census pipeline tests.

The fast counting paths are checked against the generic per-curve engines
(count_points, is_smooth), which test_curves.py validates against brute
enumeration; the named example curves pin the classification columns.
"""

import functools
import gc
import random
import re
import zlib
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from genus4census import census, zeta
from genus4census.census import (
    CensusRecord,
    classify_model,
    discrepancy_report,
    group_isogeny_classes,
    read_records,
    record_from_json,
    record_to_json,
    run_census,
    verify_propositions,
    write_records,
)
from genus4census.curves import (
    apply_transform,
    aut_order_f2,
    count_points,
    cubic_partials,
    eval_cubic,
    gl2_f2,
    hyperelliptic_from_masks,
    hyperelliptic_transformed,
    is_smooth,
    parse_curve_id,
    quadric_curve_from_mask,
    quadric_gradient,
    quadric_points,
    quadric_stabilizer_f2,
)
from genus4census.curves import _HYP_AFFINE_NOTE, _HYP_INFINITY_NOTE, _quadric_tables, _scan_singular
from genus4census.gfarith import embedding, field, gf2x_degree, gf2x_gcd, gf2x_mul


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumeration_sizes_and_order():
    # deg h = 5 admits every f; deg h <= 4 forces deg f in {9, 10}
    records = run_census(kinds="hyp", id_filter=lambda cid: cid.startswith(("hyp;h=0x01;", "hyp;h=0x20;")))
    ids = [rec.id for rec in records]
    assert len(ids) == 1536 + 2048
    assert ids == sorted(ids) and len(set(ids)) == len(ids)
    assert ids[0] == "hyp;h=0x01;f=0x200" and ids[-1] == "hyp;h=0x20;f=0x7ff"
    assert "hyp;h=0x01;f=0x220" in ids
    assert "hyp;h=0x01;f=0x1ff" not in ids
    assert "hyp;h=0x20;f=0x000" in ids

    with pytest.raises(ValueError, match="unknown model kind"):
        run_census(kinds="elliptic")


# ---------------------------------------------------------------------------
# quadric fast path vs the generic engines
# ---------------------------------------------------------------------------


def _rational_singular_point(curve):
    """The first point of the quadric over F_2..F_16 where the model is
    singular (on the cubic, Jacobian of rank <= 1), by brute force; None if
    there is none."""
    for d in (1, 2, 3, 4):
        K = field(d)
        co = tuple(map(embedding(curve.spec, K), curve.coeffs))
        for pt in quadric_points(curve.kind, K):
            if eval_cubic(K, co, pt):
                continue
            grad_c = cubic_partials(K, co, pt)
            grad_q = quadric_gradient(curve.kind, K, pt)
            if not any(K.add(K.mul(grad_c[i], grad_q[j]), K.mul(grad_c[j], grad_q[i]))
                       for i in range(4) for j in range(i + 1, 4)):
                return d, pt
    return None


@pytest.mark.parametrize("kind", ["ns", "cone"])
def test_quadric_scan_matches_engines(kind):
    counts, flagged, witness = census._quadric_scan(kind, 0, 1 << 16)
    rng = random.Random(5150 + len(kind))
    masks = [rng.randrange(1 << 16) for _ in range(40)] + [0, 0xFFFF]
    if kind == "ns":
        masks.append(0x1D0C)
    assert 0 < sum(bool(flagged[m]) for m in masks) < len(masks)
    for m in masks:
        curve = quadric_curve_from_mask(kind, m)
        want = tuple(count_points(curve, n, raw=True) for n in (1, 2, 3, 4))
        assert tuple(int(c) for c in counts[m]) == want, hex(m)
        # flagged exactly when a rational singular point exists, and the
        # witness is the first one
        found = _rational_singular_point(curve)
        assert bool(flagged[m]) == (found is not None), (hex(m), found)
        if found is not None:
            assert _quadric_tables(kind)[3][witness[m]] == found, hex(m)


def test_quadric_scan_chunks_agree():
    whole = census._quadric_scan("ns", 0, 1 << 16)
    lo = census._quadric_scan("ns", 0, 21000)
    hi = census._quadric_scan("ns", 21000, 1 << 16)
    one = census._quadric_scan("ns", 0x1D0C, 0x1D0D)
    for i in range(3):
        assert np.array_equal(whole[i], np.concatenate([lo[i], hi[i]]))
        assert np.array_equal(whole[i][0x1D0C:0x1D0D], one[i])


# ---------------------------------------------------------------------------
# hyperelliptic fast path vs the generic engines
# ---------------------------------------------------------------------------


def test_hyp_counts_match_engine():
    rng = random.Random(90125)
    for _ in range(80):
        hm = rng.randrange(1, 64)
        fm = rng.randrange(0 if hm >= 32 else 512, 2048)
        got = tuple(int(c) for c in census._hyp_counts_vector(hm, np.array([fm]))[0])
        curve = hyperelliptic_from_masks(hm, fm)
        assert got == tuple(count_points(curve, n, raw=True) for n in (1, 2, 3, 4))


def _hyp_count_data_oracle(hm: int):
    """The count functionals of one h built one field element at a time:
    (bases, functionals, starts) with N_n(f) = bases[n-1] - 2 sum_l
    parity(f & l) over the functionals from starts[n-1] up to the next
    degree's start.  Each degree's run starts with the functional 0 and
    holds one functional per x with h(x) != 0, Tr(x^i/h(x)^2) in bit i,
    then the f10 functional of infinity when deg h = 5."""
    bases, lms, starts = [], [], []
    for n in (1, 2, 3, 4):
        K = field(n)
        starts.append(len(lms))
        lms.append(0)
        h_roots = 0
        for x in K.elements():
            hx = 0
            xp = K.one
            for i in range(6):
                if (hm >> i) & 1:
                    hx ^= xp
                xp = K.mul(xp, x)
            if hx == 0:
                h_roots += 1
                continue
            w = K.inv(K.mul(hx, hx))
            lm = 0
            xp = K.one
            for i in range(11):
                lm |= K.trace(K.mul(xp, w)) << i
                xp = K.mul(xp, x)
            lms.append(lm)
        if (hm >> 5) & 1:
            lms.append((n & 1) << 10)
        bases.append(h_roots + (0 if (hm >> 5) & 1 else 1) + 2 * (len(lms) - 1 - starts[-1]))
    return np.array(bases), np.array(lms), np.array(starts)


def test_hyp_count_tables_match_per_element_oracle():
    # every h and every f of the genus-4 shape: the counts from the
    # functionals built for all h at once against the per-element build
    parity = np.array([bin(v).count("1") & 1 for v in range(2048)])
    for hm in range(1, 64):
        farr = np.arange(0 if hm >= 32 else 512, 2048)
        bases, lms, starts = _hyp_count_data_oracle(hm)
        want = bases - 2 * np.add.reduceat(parity[farr[:, None] & lms], starts, axis=1)
        got = census._hyp_counts_vector(hm, farr)
        assert np.array_equal(got, want), hex(hm)


def test_hyp_smoothness_matches_engine():
    rng = random.Random(2112)
    seen_smooth = seen_singular = 0
    for _ in range(150):
        hm = rng.randrange(1, 64)
        fm = rng.randrange(0 if hm >= 32 else 512, 2048)
        note = census._HYP_NOTES[census._hyp_smooth_masks(hm)[fm]]
        ok = not note
        res = is_smooth(hyperelliptic_from_masks(hm, fm))
        assert ok == res.smooth, (hm, fm, note, res.note)
        seen_smooth += ok
        seen_singular += not ok
    assert seen_smooth > 30 and seen_singular > 30


def _hyp_smooth_oracle(hm: int, fm: int) -> str:
    """The per-model packed-int smoothness test: gcd(h, f'^2 + f h'^2), then
    the point at infinity."""
    fd = (fm >> 1) & 0x155  # d/dx keeps odd-exponent bits
    hd = (hm >> 1) & 0x15
    crit = gf2x_mul(fd, fd) ^ gf2x_mul(fm, gf2x_mul(hd, hd))
    if gf2x_degree(gf2x_gcd(hm, crit)) >= 1:
        return _HYP_AFFINE_NOTE
    if not (hm >> 5) & 1 and not (((fm >> 9) & 1) ^ ((fm >> 10) & (hm >> 4) & 1)):
        return _HYP_INFINITY_NOTE
    return ""


def test_hyp_smoothness_table_matches_per_model_oracle():
    # every one of the 113152 models: the per-residue table against the
    # per-model gcd, note for note
    seen = set()
    for hm in range(1, 64):
        codes = census._hyp_smooth_masks(hm)
        assert len(codes) == 2048
        for fm in range(0 if hm >= 32 else 512, 2048):
            want = _hyp_smooth_oracle(hm, fm)
            assert census._HYP_NOTES[codes[fm]] == want, (hex(hm), hex(fm))
            seen.add(want)
    assert seen == {"", _HYP_AFFINE_NOTE, _HYP_INFINITY_NOTE}


def test_hyp_cartier_shared_by_h():
    a, s2, t43 = census._hyp_cartier(0x01)  # h = 1: one branch point, at infinity
    assert (a, s2, t43) == (2, 0, False)
    a, s2, t43 = census._hyp_cartier(0x06)  # h = x^2 + x: 3 branch points
    assert s2 == 2 and t43 is None
    a, s2, t43 = census._hyp_cartier(0x20)  # h = x^5: root 0 plus nothing at infinity
    assert s2 == 0


# ---------------------------------------------------------------------------
# record assembly and the consistency aborts
# ---------------------------------------------------------------------------


def test_classified_record_consistency_abort():
    # counts of a supersingular curve (zero slopes: none) against a fake
    # Cartier result claiming 2-rank 4 must abort, naming the curve id
    with pytest.raises(RuntimeError, match="hyp;h=0x01;f=0x220"):
        census._classified_record("hyp", "hyp;h=0x01;f=0x220", (5, 5, 5, 9), (0, 4, None))
    # nothing is cached per (counts, Cartier) key, so a second model with
    # the same key aborts too, under its own id
    with pytest.raises(RuntimeError) as exc:
        census._classified_record("hyp", "hyp;h=0x01;f=0x221", (5, 5, 5, 9), (0, 4, None))
    assert "hyp;h=0x01;f=0x221" in str(exc.value) and "f=0x220" not in str(exc.value)


def test_classified_record_bad_counts_abort():
    # counts violating the Weil bound cannot come from a smooth curve
    with pytest.raises(RuntimeError, match="ns;c=0xbeef"):
        census._classified_record("ns", "ns;c=0xbeef", (40, 2, 2, 2), (1, 0, False))


def test_smooth_rows_match_scalar_zeta_route(full_census):
    # every distinct (counts, Cartier) key of the full census through one
    # array pass, against the scalar zeta functions per count vector and
    # against the census's own rows
    keys = {}
    for row in full_census[0].rows:
        if row[1]:
            keys.setdefault((row[3], row[8:11]), row)
    assert len({counts for counts, _ in keys}) == 507
    got = census._smooth_rows(np.array([counts for counts, _ in keys]), [cart for _, cart in keys],
                              [f"key {k}" for k in range(len(keys))])
    assert len(got) == len(keys)
    for ((counts, cart), row), fields in zip(keys.items(), got):
        w = zeta.weil_from_counts(counts, 2)
        assert zeta.predicted_counts(w)[:4] == counts
        poly = zeta.newton_polygon(w)
        stratum = zeta.classify_stratum(poly)
        assert fields[:5] == (counts, w.coeffs, poly.slopes, stratum.name, poly.p_rank), counts
        assert fields[5:8] == cart and fields == row[3:13], counts
        assert all(type(c) is int for c in fields[0] + fields[1]) and type(fields[4]) is int


# a sound supersingular count vector with its Cartier data, and a second
# sound one; the failing rows below break one check each
_SOUND = ((7, 9, 13, 9), (1, 0, False))
_SOUND_TOO = ((5, 9, 11, 17), (1, 0, False))
_ROW_FAILURES = {
    "weil-bound": (((40, 2, 2, 2), (1, 0, False)), "Weil bound violated at n=1"),
    "non-integer": (((0, 1, 0, 0), (1, 0, False)), "non-integer coefficient at k=2"),
    "negative-count": (((0, 2, 3, 6), (1, 0, False)), "negative predicted point count at n=5"),
    "two-rank": (((7, 9, 13, 9), (0, 4, None)), "2-rank 4 from the Cartier operator, 0 zero slopes"),
}


def _row_table_of(models):
    """census._row_table over models, each (counts, Cartier data), named m0, m1, ..."""
    heads = list(dict.fromkeys(cart for _, cart in models))
    head = np.array([heads.index(cart) for _, cart in models], np.intp)
    counts = np.array([counts for counts, _ in models], np.int16)
    return census._row_table("ns", [f"m{i}" for i in range(len(models))], head, heads, counts)


@pytest.mark.parametrize("check", sorted(_ROW_FAILURES))
def test_smooth_rows_failure_names_first_member(check):
    bad, why = _ROW_FAILURES[check]
    # the failing key's first member is m1; a later key (m3) that fails the
    # Weil bound has a smaller packed key and an earlier check, and m4
    # repeats the failing key
    earlier_check = ((40, 0, 0, 0), (1, 0, False))
    models = [_SOUND, bad, _SOUND_TOO, earlier_check, bad]
    with pytest.raises(RuntimeError, match=rf"^inconsistent invariants for m1: .*{re.escape(why)}$"):
        _row_table_of(models)
    # alone, the failing row is named by its own first member
    with pytest.raises(RuntimeError, match=rf"^inconsistent invariants for m2: .*{re.escape(why)}$"):
        _row_table_of([_SOUND, _SOUND, bad, _SOUND_TOO])
    # and the sound rows build
    row, rows = _row_table_of([_SOUND, _SOUND_TOO, _SOUND])
    assert row.tolist() == [0, 1, 0] and [r[3] for r in rows] == [_SOUND[0], _SOUND_TOO[0]]


def test_smooth_rows_round_trip_failure_names_first_member(monkeypatch):
    # the round trip cannot fail on counts alone: predicted counts that are
    # off for one Weil polynomial stand in for a broken inverse
    real = zeta._predicted_columns

    def off(a, q, upto):
        out = real(a, q, upto)
        out[0, a[1] == 2] += 1  # a_1 = N_1 - 3 is 2 only for (5, 9, 11, 17) here
        return out

    monkeypatch.setattr(zeta, "_predicted_columns", off)
    with pytest.raises(RuntimeError, match=r"^inconsistent invariants for m1: count/Weil round trip failed$"):
        _row_table_of([_SOUND, _SOUND_TOO, ((40, 0, 0, 0), (1, 0, False)), _SOUND_TOO])


NAMED_EXPECTATIONS = {
    # id: (counts, stratum, a_number, two_rank, type43, eo_mu)
    "ns;c=0x1d0c": ((7, 9, 13, 9), "S4", 1, 0, False, (4,)),
    "ns;c=0x038c": ((5, 9, 11, 17), "N13", 1, 0, False, (4,)),
    "cone;c=0x4208": ((3, 5, 9, 9), "N14", 2, 0, False, (4, 1)),
    "hyp;h=0x01;f=0x220": ((5, 5, 5, 9), "S4", 2, 0, False, (4, 2)),
    "hyp;h=0x01;f=0x221": ((1, 5, 13, 9), "S4", 2, 0, False, (4, 2)),
}


def test_run_census_filtered_named_curves():
    wanted = set(NAMED_EXPECTATIONS)
    records = run_census(id_filter=wanted.__contains__)
    assert sorted(r.id for r in records) == sorted(wanted)
    for rec in records:
        counts, stratum, a, s2, t43, mu = NAMED_EXPECTATIONS[rec.id]
        assert rec.smooth and rec.counts == counts and rec.stratum == stratum
        assert (rec.a_number, rec.two_rank, rec.type43, rec.eo_mu) == (a, s2, t43, mu)
        assert rec.p_rank == 0 and rec.eo_candidates is None


def test_classify_model_matches_census_rows():
    for cid, (counts, stratum, a, s2, t43, mu) in NAMED_EXPECTATIONS.items():
        rec = classify_model(parse_curve_id(cid))
        assert (rec.id, rec.counts, rec.stratum) == (cid, counts, stratum)
        assert (rec.a_number, rec.two_rank, rec.type43, rec.eo_mu) == (a, s2, t43, mu)
    sing = classify_model(quadric_curve_from_mask("ns", 0x0000))
    assert not sing.smooth and sing.counts is None and sing.note


def test_classify_model_matches_census_hyp_records():
    # the per-curve route (generic smoothness, direct counts) and the packed
    # census route agree field for field, singular notes included
    hs = ("hyp;h=0x01;", "hyp;h=0x03;", "hyp;h=0x20;")
    records = run_census(kinds="hyp", id_filter=lambda cid: cid.startswith(hs))
    assert len(records) == 1536 * 2 + 2048
    assert sum(not rec.smooth for rec in records) > 1000
    for rec in records:
        assert classify_model(parse_curve_id(rec.id)) == rec, rec.id


# the one cone orbit singular inside the affine chart (24 models) has
# representative 0x4f47; this member is not it, so its record comes from
# the broadcast of a decision about another mask
CONE_CHART_SINGULAR = "cone;c=0xfb1d"


def test_classify_model_matches_census_quadric_records():
    # a fixed CRC-32 sample of ns and cone ids: the per-curve route (a
    # one-mask scan, then is_smooth, direct counts and the model's own
    # Cartier operator) against the census records, which decide one
    # representative per orbit; singular notes included
    records = run_census(kinds=("ns", "cone"), id_filter=lambda cid: zlib.crc32(cid.encode()) % 193 == 0
                         or cid == CONE_CHART_SINGULAR)
    assert len(records) >= 500
    seen = {(rec.kind, rec.smooth) for rec in records}
    assert seen == {(k, s) for k in ("ns", "cone") for s in (True, False)}
    notes = {rec.note for rec in records if not rec.smooth}
    assert "rational singular point over F_2" in notes and len(notes) > 2
    chart = {rec.kind for rec in records if rec.note == "singular point inside the affine chart"}
    assert chart == {"ns", "cone"}
    for rec in records:
        assert classify_model(parse_curve_id(rec.id)) == rec, rec.id


@pytest.fixture
def fresh_orbit_decisions():
    # the per-representative decisions are cached per process; a test that
    # patches what they call must neither see nor leave cached entries
    census._quadric_orbit_decision.cache_clear()
    yield
    census._quadric_orbit_decision.cache_clear()


def test_orbit_broadcast_checked_per_member(monkeypatch, fresh_orbit_decisions):
    # a wrong 2-rank for one representative of each quadric kind reaches its
    # members through the broadcast, and the first member's own counts refuse it
    real = census._ns_cartier
    for kind, mask in (("ns", 0x1D0C), ("cone", 0x4208)):
        row = census._quadric_images(kind, [mask])[0]
        rep = int(row.min())
        members = {f"{kind};c=0x{int(m):04x}" for m in row if m != rep}
        assert len(members) > 1

        def wrong(curve, rep=rep):
            a, s2, t43 = real(curve)
            return (a, s2 + 1, t43) if curve.mask == rep else (a, s2, t43)

        monkeypatch.setattr(census, "_ns_cartier", wrong)
        with pytest.raises(RuntimeError, match=f"inconsistent invariants for {min(members)}"):
            run_census(kinds=kind, id_filter=members.__contains__)


def test_orbit_representative_flagged_aborts(monkeypatch, fresh_orbit_decisions):
    # the scan flags the zero cubic; an unflagged model mapped onto it
    # breaks the orbit invariance, and the census names both
    monkeypatch.setattr(census, "_quadric_images", lambda kind, masks: np.zeros((len(masks), 1), np.uint16))
    with pytest.raises(RuntimeError, match="representative cone;c=0x0000 of cone;c=0x4208"):
        run_census(kinds="cone", id_filter={"cone;c=0x4208"}.__contains__)


def test_hyp_cartier_checked_per_member_of_its_h(monkeypatch):
    # the hyp twin of the broadcast test: a wrong 2-rank for one h reaches
    # every smooth model of that h through its rows, and the census names
    # the least smooth id of that h that the filter keeps
    real = census._hyp_cartier
    bad_h = 0x0B

    def wrong(hm):
        a, s2, t43 = real(hm)
        return (a, s2 + 1, t43) if hm == bad_h else (a, s2, t43)

    def keep(cid):
        return cid.startswith(("hyp;h=0x0a;", "hyp;h=0x0b;", "hyp;h=0x0c;")) and zlib.crc32(cid.encode()) % 7 == 0

    codes = census._hyp_smooth_masks(bad_h)
    fms = [fm for fm in range(512, 2048)
           if not census._HYP_NOTES[codes[fm]] and keep(f"hyp;h=0x{bad_h:02x};f=0x{fm:03x}")]
    smooth = [f"hyp;h=0x{bad_h:02x};f=0x{fm:03x}" for fm in fms]
    # the least id's key is not the least key of its h, so the name comes
    # from the order of first members, not from the order of keys
    packed = census._packed_counts(census._hyp_counts_vector(bad_h, np.array(fms)), smooth, range(len(fms)))
    assert len(smooth) > 1 and packed[0] != packed.min()
    monkeypatch.setattr(census, "_hyp_cartier", wrong)
    with pytest.raises(RuntimeError, match=f"inconsistent invariants for {smooth[0]}:"):
        run_census(kinds="hyp", id_filter=keep)


@pytest.mark.parametrize("kind", ["ns", "cone"])
def test_quadric_chunk_ids_are_curve_ids(kind):
    # all 2^16 masks: the ids joined from byte halves against each model's
    # own curve_id
    ids = census._quadric_chunk(kind)[0]
    assert ids == [quadric_curve_from_mask(kind, m).curve_id for m in range(1 << 16)]


@pytest.mark.parametrize("kind", ["ns", "cone"])
def test_flagged_notes_built_once_per_field(monkeypatch, kind):
    # all 2^16 masks: the note a flagged mask gets from its row is the one
    # _scan_singular gives the mask itself, and the job builds one note per
    # field degree, not one per flagged mask
    calls = []
    monkeypatch.setattr(census, "_scan_singular", lambda *args: calls.append(args) or _scan_singular(*args))
    ids, row, rows = census._quadric_chunk(kind)
    assert ids == [f"{kind};c=0x{m:04x}" for m in range(1 << 16)]
    _, flagged, witness = census._quadric_scan(kind, 0, 1 << 16)
    notes = [rows[r][2] for r in row.tolist()]
    flagged_masks = np.flatnonzero(flagged).tolist()
    assert len(flagged_masks) > 40000
    for m in flagged_masks:
        assert notes[m] == _scan_singular(kind, int(witness[m])).note, hex(m)
    assert 1 < len(calls) <= 4
    assert len({notes[m] for m in flagged_masks}) == len(calls)


def test_counts_wider_than_the_row_key_abort(monkeypatch):
    # a model's key packs each count into 6 bits; a count that does not fit
    # aborts the census, naming the model, instead of aliasing another key
    real = census._quadric_scan

    def wide(kind, m0, m1):
        counts, flagged, witness = real(kind, m0, m1)
        counts = counts.copy()
        counts[0x4208 - m0, 3] = 64
        return counts, flagged, witness

    monkeypatch.setattr(census, "_quadric_scan", wide)
    with pytest.raises(RuntimeError, match=r"counts \(3, 5, 9, 64\) of cone;c=0x4208 exceed"):
        run_census(kinds="cone", id_filter={"cone;c=0x4208"}.__contains__)


def test_orbit_table_matches_orbit_walk():
    # on a CRC-32 sample of smooth quadric models: the orbit that
    # _isomorphism_orbit reads from the image tables, its minimum and its
    # stabilizer count against an explicit apply_transform walk over the
    # quadric's stabilizer
    checked = 0
    for kind in ("ns", "cone"):
        group = quadric_stabilizer_f2(kind)
        masks = [m for m in range(1 << 16) if zlib.crc32(f"{kind};c=0x{m:04x}".encode()) % 1009 == 0]
        for m in masks:
            curve = quadric_curve_from_mask(kind, m)
            if not is_smooth(curve).smooth:
                continue
            walk = [apply_transform(curve, t).curve_id for t in group]
            orbit, order = census._isomorphism_orbit(curve)
            assert orbit == set(walk) and order == len(group), curve.curve_id
            assert census.isomorphism_canonical_id(curve) == min(walk)
            assert walk.count(curve.curve_id) == aut_order_f2(curve) == order // len(orbit), curve.curve_id
            checked += 1
    assert checked >= 30


def test_cached_invariants_match_direct_zeta():
    # a 1/97 sample of every kind: each smooth record's zeta fields, built
    # once per (counts, Cartier) key, against the uncached zeta functions
    records = run_census(id_filter=lambda cid: zlib.crc32(cid.encode()) % 97 == 0)
    smooth = [rec for rec in records if rec.smooth]
    assert {rec.kind for rec in smooth} == set(census.KINDS)
    assert len({rec.counts for rec in smooth}) < len(smooth)
    for rec in smooth:
        w = zeta.weil_from_counts(rec.counts, 2)
        assert zeta.predicted_counts(w)[:4] == rec.counts, rec.id
        poly = zeta.newton_polygon(w)
        assert rec.weil == w.coeffs and rec.slopes == poly.slopes, rec.id
        assert rec.stratum == zeta.classify_stratum(poly).name, rec.id
        assert rec.p_rank == poly.p_rank, rec.id


def test_cache_key_includes_cartier_data():
    # same counts, different Cartier data: the a-number must not be shared
    one = classify_model(parse_curve_id("hyp;h=0x06;f=0x281"))
    two = classify_model(parse_curve_id("hyp;h=0x0a;f=0x205"))
    assert one.counts == two.counts == (3, 3, 9, 15)
    assert (one.a_number, two.a_number) == (1, 2)


def test_workers_byte_identity(full_census):
    # two quadric kinds are two jobs, so the 2-worker run goes through a pool;
    # the 1-worker side is the session's full census, filtered by kind
    one = [rec for rec in full_census[0] if rec.kind in ("cone", "ns")]
    two = run_census(kinds=("cone", "ns"), workers=2)
    assert [record_to_json(r) for r in one] == [record_to_json(r) for r in two]
    assert list(two) == one
    assert all(type(r) is CensusRecord for r in two)


def _bench_sample_ids():
    """The ids that the benchmark's sample keeps: CRC-32 of the id mod 16 == 0."""
    ids = [f"{kind};c=0x{m:04x}" for kind in ("cone", "ns") for m in range(1 << 16)]
    ids += [f"hyp;h=0x{hm:02x};f=0x{fm:03x}" for hm in range(1, 64) for fm in range(0 if hm >= 32 else 512, 2048)]
    return frozenset(cid for cid in ids if zlib.crc32(cid.encode()) % 16 == 0)


@pytest.mark.parametrize("workers", [1, 2])
def test_sampled_census_is_the_full_census_filtered(full_census, workers):
    # the path the benchmark times: every job scans the whole space and
    # keeps 1/16 of the ids; the filter pickles as a frozenset method
    keep = _bench_sample_ids().__contains__
    want = [rec for rec in full_census[0] if keep(rec.id)]
    got = run_census(id_filter=keep, workers=workers)
    assert len(want) > 15000
    assert list(got) == want
    assert [record_to_json(r) for r in got] == [record_to_json(r) for r in want]
    _assert_rows_share_fields(got)


def test_job_row_tables():
    # each job: one uint16 row index per kept model, every row referenced,
    # rows pairwise distinct (as values and by the key the census compares)
    for job in census._census_jobs(census.KINDS, 2, None):
        ids, row, rows = census._census_job(job)
        assert row.dtype == np.uint16 and row.shape == (len(ids),), job
        assert ids == sorted(ids) and len(ids) == (_hyp_models(*job[1:3]) if job[0] == "hyp" else 1 << 16)
        assert set(row.tolist()) == set(range(len(rows))), job
        assert len(set(rows)) == len({census._row_key(r) for r in rows}) == len(rows), job
        assert all(len(r) == len(CensusRecord._fields) - 1 for r in rows)


def test_one_record_build_per_smooth_row(monkeypatch):
    # each job builds one record per distinct smooth row: orbits and h's
    # that share their counts and Cartier data share the build, and one
    # _smooth_rows call checks and builds all of a job's smooth rows
    builds, calls = [], []
    real = census._smooth_rows

    def spy(counts, carts, ids):
        calls.append(len(ids))
        builds.extend(ids)
        return real(counts, carts, ids)

    monkeypatch.setattr(census, "_smooth_rows", spy)
    for job in census._census_jobs(census.KINDS, 2, None):
        builds.clear()
        calls.clear()
        rows = census._census_job(job)[2]
        assert len(builds) == sum(row[1] for row in rows) > 0, job
        assert len(calls) == 1, job


def test_run_census_leaves_the_collector_as_it_found_it():
    # run_census leaves the collector enabled or disabled, as it found it
    keep = set(NAMED_EXPECTATIONS).__contains__
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert len(run_census(id_filter=keep)) == len(NAMED_EXPECTATIONS)
            assert gc.isenabled() == enabled
    finally:
        gc.enable()


def _assert_rows_share_fields(records) -> int:
    """Records of one row share their counts, weil and slopes objects, also
    across jobs run in different processes; returns the number of rows."""
    first = {}
    for rec in records:
        other = first.setdefault(census._row_key(rec[1:]), rec)
        assert rec[1:] == other[1:]
        assert rec.counts is other.counts and rec.weil is other.weil and rec.slopes is other.slopes, rec.id
    return len(first)


def test_records_of_one_row_share_field_objects(full_census):
    assert _assert_rows_share_fields(full_census[0]) == 679


def _hyp_models(h0, h1):
    return sum(2048 - (0 if hm >= 32 else 512) for hm in range(h0, h1))


@pytest.mark.parametrize("workers", [1, 2, 3, 4, 5, 6, 7, 8])
def test_job_plan_one_job_per_quadric_kind_and_balanced_hyp(workers):
    jobs = census._census_jobs(census.KINDS, workers, None)
    quadric = [job for job in jobs if job[0] != "hyp"]
    assert quadric == [("cone", None), ("ns", None)]
    assert jobs[:2] == quadric  # the largest jobs go first
    ranges = [job[1:3] for job in jobs if job[0] == "hyp"]
    assert len(ranges) == workers
    assert ranges[0][0] == 1 and ranges[-1][1] == 64
    assert all(a[1] == b[0] and a[0] < a[1] for a, b in zip(ranges, ranges[1:]))
    sizes = [_hyp_models(h0, h1) for h0, h1 in ranges]
    assert sum(sizes) == 113152
    assert max(sizes) - min(sizes) <= 2048, sizes


def test_job_plan_cuts_hyp_at_most_once_per_h():
    assert census._hyp_ranges(100) == [(hm, hm + 1) for hm in range(1, 64)]
    assert census._census_jobs(["ns"], 4, None) == [("ns", None)]


class _RecordingExecutor:
    """Runs the pool's jobs in this process and records the pool size."""

    sizes: list = []

    def __init__(self, max_workers=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))


@pytest.mark.parametrize("kinds, workers, pool", [
    ("ns", 2, []),
    (("cone", "ns"), 3, [2]),
    ("hyp", 3, [3]),
    (census.KINDS, 2, [2]),
])
def test_pool_runs_no_more_processes_than_jobs(monkeypatch, kinds, workers, pool):
    monkeypatch.setattr(census, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(_RecordingExecutor, "sizes", [])
    keep = {"ns;c=0x1d0c", "cone;c=0x4208", "hyp;h=0x01;f=0x221"}.__contains__
    records = run_census(kinds=kinds, workers=workers, id_filter=keep)
    assert records
    assert _RecordingExecutor.sizes == pool


def test_hyp_workers_byte_identity(full_census):
    one = [rec for rec in full_census[0] if rec.kind == "hyp"]
    two = run_census(kinds="hyp", workers=2)
    assert len(one) == 113152
    assert [record_to_json(r) for r in one] == [record_to_json(r) for r in two]


def test_three_workers_byte_identity_on_a_sample():
    # every kind at three workers: two quadric jobs and three hyp ranges in
    # a pool of three processes; the filter pickles as a frozenset method
    ids = [f"{kind};c=0x{m:04x}" for kind in ("cone", "ns") for m in range(1 << 16)]
    ids += [f"hyp;h=0x{hm:02x};f=0x{fm:03x}" for hm in range(1, 64)
            for fm in range(0 if hm >= 32 else 512, 2048)]
    keep = frozenset(cid for cid in ids if zlib.crc32(cid.encode()) % 61 == 0).__contains__
    one = run_census(workers=1, id_filter=keep)
    three = run_census(workers=3, id_filter=keep)
    assert {rec.kind for rec in one if rec.smooth} == set(census.KINDS)
    assert [record_to_json(r) for r in one] == [record_to_json(r) for r in three]


def test_jsonl_round_trip(tmp_path):
    records = run_census(id_filter=set(NAMED_EXPECTATIONS).__contains__)
    path = tmp_path / "records.jsonl"
    write_records(path, records)
    assert list(read_records(path)) == list(records)
    for rec in records:
        assert record_from_json(record_to_json(rec)) == rec

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"schema":"g4c2-census/0","records":0}\n')
    with pytest.raises(ValueError, match="schema"):
        read_records(bad)


def _mixed_records():
    """Singular records of every kind, smooth records sharing keys, one
    record with aut and jacobian_aut set and one note that JSON escapes
    (the last two under the last two ns ids, which read_records accepts)."""
    records = run_census(id_filter=lambda cid: cid.startswith(
        ("cone;c=0x42", "hyp;h=0x01;f=0x2", "hyp;h=0x01;f=0x40", "ns;c=0x00")))
    smooth = next(r for r in records if r.smooth)
    singular = next(r for r in records if not r.smooth)
    return list(records) + [smooth._replace(id="ns;c=0xfffe", aut=6, jacobian_aut=12),
                      singular._replace(id="ns;c=0xffff", note='a "quoted" \\ note,\twith\u00e9 escapes')]


def test_write_records_lines_are_record_to_json(tmp_path):
    records = _mixed_records()
    assert {(r.kind, r.smooth) for r in records} == {
        (kind, smooth) for kind in census.KINDS for smooth in (False, True)} - {("ns", True)}
    path = tmp_path / "records.jsonl"
    write_records(path, records)
    lines = path.read_text(encoding="ascii").splitlines()[1:]
    assert lines == [record_to_json(r) for r in records]
    assert '"jacobian_aut":12' in lines[-2] and '\\"quoted\\"' in lines[-1]

    back = read_records(path)
    assert list(back) == records
    first_of_key = {}
    for rec in back:
        first = first_of_key.setdefault(rec[1:], rec)
        assert rec.counts is first.counts and rec.weil is first.weil
    assert len(first_of_key) < len([r for r in back if r.smooth])


@pytest.mark.parametrize("cid", ['hyp;"x"', "hyp;\\x", "hyp;\tx", "hyp;\u00e9", "", 7, "ns;c=0x1d_0c", "zz;x"])
def test_write_records_refuses_id_outside_the_rule(tmp_path, cid):
    path = tmp_path / "records.jsonl"
    records = _h1_subset()[:3]
    write_records(path, records)
    before = path.read_bytes()
    with pytest.raises(ValueError, match=r"record id .* is not the curve_id of a census model"):
        write_records(path, records[:2] + [records[2]._replace(id=cid)])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"]


@pytest.mark.parametrize("order", [(0, 1, 2, 2), (1, 0, 2)], ids=["duplicate", "out-of-order"])
def test_write_records_refuses_id_that_does_not_follow(tmp_path, order):
    # the reader refuses such a file ("ids must be strictly ascending"), so
    # the writer refuses to write it, naming both ids, and keeps the old file
    path = tmp_path / "records.jsonl"
    records = _h1_subset()[:3]
    write_records(path, records)
    before = path.read_bytes()
    bad = [records[i] for i in order]
    i = next(i for i in range(1, len(bad)) if bad[i].id <= bad[i - 1].id)
    with pytest.raises(ValueError, match=re.escape(f"record id {bad[i].id!r} does not follow {bad[i - 1].id!r}")):
        write_records(path, bad)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"]


@pytest.mark.parametrize("edit", [
    pytest.param(lambda line: line.replace('{', '{"id":"cone;c=0x4207",', 1), id="two-ids"),
    pytest.param(lambda line: line.replace('}', ',"id":""}', 1), id="two-ids-empty-last"),
    pytest.param(lambda line: line.replace('"id":"cone;c=0x4208",', ""), id="no-id"),
    pytest.param(lambda line: line.replace('"cone;c=0x4208"', "4208"), id="number-id"),
    pytest.param(lambda line: line.replace("cone;c=0x4208", 'cone;c=\\"0x4208'), id="quote-escape"),
    pytest.param(lambda line: line.replace("cone;c=0x4208", "cone;c=0x420\\u0038"), id="u-escape"),
    pytest.param(lambda line: line[:line.index("cone;c=0x42")] + "cone;c=0x42\n", id="cut-in-id"),
    pytest.param(lambda line: line.replace('"slopes":["', '"slopes":["1/0","', 1), id="zero-denominator"),
])
def test_read_records_refuses_malformed_line(tmp_path, edit):
    path, lines = _written_lines(tmp_path)
    assert '"id":"cone;c=0x4208"' in lines[1]
    path.write_text("".join(lines[:1] + [edit(lines[1])] + lines[2:]))
    with pytest.raises(ValueError, match=r"records\.jsonl: line 2: malformed record"):
        read_records(path)


@pytest.mark.parametrize("encoding", ["latin-1", "utf-8"])
def test_read_records_refuses_non_ascii_byte(tmp_path, encoding):
    path = tmp_path / "records.jsonl"
    write_records(path, _h1_subset()[:5])
    lines = path.read_text(encoding="ascii").splitlines(keepends=True)
    lines[3] = lines[3].replace('"hyp"', '"hyp\u00e9"', 1)
    path.write_text("".join(lines), encoding=encoding)
    with pytest.raises(ValueError, match=r"records\.jsonl: line 4: non-ASCII byte 0x(e9|c3) at column"):
        read_records(path)
    path.write_text("\u00e9" + "".join(lines[:3]), encoding=encoding)
    with pytest.raises(ValueError, match=r"records\.jsonl: line 1: non-ASCII byte"):
        read_records(path)


@pytest.mark.parametrize("count", ["", ',"records":"5"', ',"records":-1', ',"records":true',
                                   ',"records":5.0'])
def test_read_records_refuses_header_without_a_record_count(tmp_path, count):
    path, lines = _written_lines(tmp_path)
    path.write_text("".join(['{"schema":"g4c2-census/1"' + count + "}\n"] + lines[1:]))
    with pytest.raises(ValueError, match=r"records\.jsonl: line 1: header records count .* non-negative integer"):
        read_records(path)


@pytest.mark.parametrize("first", ["[]\n", "null\n", "7\n", "not json\n", ""])
def test_read_records_refuses_header_that_is_not_an_object(tmp_path, first):
    path = tmp_path / "bad.jsonl"
    path.write_text(first)
    with pytest.raises(ValueError, match=r"bad\.jsonl: line 1: header is not a JSON object"):
        read_records(path)


def test_write_records_failure_leaves_target_unchanged(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(path, _h1_subset()[:3])
    before = path.read_bytes()

    class Breaks(list):
        def __iter__(self):
            yield from self[:2]
            raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_records(path, Breaks(_h1_subset()))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"]


def test_write_records_template_outlives_its_slopes(tmp_path):
    # records built on the fly, each with a fresh slopes tuple freed after its
    # line is written, all other fields equal: a freed tuple's id must not
    # pick up the template of another tuple
    base = next(r for r in _h1_subset() if r.smooth)
    values = (Fraction(0), Fraction(1, 2), Fraction(1))

    class OnTheFly:
        def __len__(self):
            return 40

        def __iter__(self):
            for i in range(40):
                yield base._replace(id=f"ns;c=0x{i:04x}", slopes=(values[i % 3], values[i % 2]))

    path = tmp_path / "records.jsonl"
    write_records(path, OnTheFly())
    lines = path.read_text(encoding="ascii").splitlines()[1:]
    assert lines == [record_to_json(r) for r in OnTheFly()]


def test_read_records_interns_slopes(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(path, _h1_subset())
    back = [rec for rec in read_records(path) if rec.weil == census.CLASS_H_WEIL]
    assert len(back) == 32
    assert all(rec.slopes is back[0].slopes for rec in back)


def test_read_records_shares_one_fraction_per_slope_string(tmp_path):
    # records of different remainders (different counts) that share a slope
    # value share one Fraction object for it
    path = tmp_path / "records.jsonl"
    write_records(path, _h1_subset())
    objects: dict[Fraction, set[int]] = {}
    remainders: dict[Fraction, set[tuple]] = {}
    for rec in read_records(path):
        for s in rec.slopes or ():
            objects.setdefault(s, set()).add(id(s))
            remainders.setdefault(s, set()).add(rec.counts)
    assert Fraction(1, 2) in objects and len(remainders[Fraction(1, 2)]) > 1
    assert all(len(ids) == 1 for ids in objects.values()), objects


@functools.lru_cache(maxsize=None)
def _named_records():
    return run_census(id_filter=set(NAMED_EXPECTATIONS).__contains__)


def _written_lines(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(path, _named_records())
    return path, path.read_text().splitlines(keepends=True)


def test_read_records_refuses_second_spelling_of_an_id(tmp_path):
    # one model under its own id and under a second spelling that int()
    # accepts: the ids ascend, so only the id grammar refuses the file
    path = tmp_path / "twice.jsonl"
    rec = classify_model(parse_curve_id("ns;c=0x1d0c"))
    write_records(path, [rec, rec._replace(id="ns;c=0x1d0d")])
    path.write_text(path.read_text().replace("ns;c=0x1d0d", "ns;c=0x1d_0c"))
    with pytest.raises(ValueError, match=r"twice\.jsonl: line 3: malformed record: .*'ns;c=0x1d_0c' is not the "
                                         "curve_id of a census model"):
        read_records(path)


def test_read_records_id_grammar_is_the_census_id_domain():
    # every id of the model space and nothing else: all 2^16 masks of each
    # quadric kind; hyp with h != 0 in the genus-4 shape
    grammar = re.compile(census._CURVE_ID)
    for kind in ("ns", "cone"):
        assert all(grammar.fullmatch(f"{kind};c=0x{m:04x}") for m in range(1 << 16))
    hyp = [(h, f) for h in range(64) for f in range(2048)
           if grammar.fullmatch(f"hyp;h=0x{h:02x};f=0x{f:03x}")]
    assert hyp == [(h, f) for h in range(1, 64) for f in range(census._hyp_f_min(h), 2048)]
    assert len(hyp) == 113152
    for bad in ("ns;c=0x1D0C", "ns;c=0x1d0", "ns;c=0x01d0c", "ns;c=1d0c", "ell;c=0x1d0c", "cone;c=0x1d0c ",
                "hyp;h=0x00;f=0x200", "hyp;h=0x1f;f=0x1ff", "hyp;h=0x40;f=0x000", "hyp;h=0x20;f=0x800",
                "hyp;h=0x3;f=0x200", "hyp;f=0x200;h=0x03"):
        assert not grammar.fullmatch(bad), bad


def test_read_records_refuses_truncated_file(tmp_path):
    path, lines = _written_lines(tmp_path)
    path.write_text("".join(lines[:-1]))
    with pytest.raises(ValueError, match="header promises 5 records, the body has 4"):
        read_records(path)
    # cut inside the last line
    path.write_text("".join(lines)[:-10])
    with pytest.raises(ValueError, match="line 6: malformed record"):
        read_records(path)


def test_read_records_refuses_duplicated_or_moved_line(tmp_path):
    path, lines = _written_lines(tmp_path)
    path.write_text("".join(lines[:4] + lines[3:]))
    with pytest.raises(ValueError, match=r"line 5: id 'hyp;h=0x01;f=0x221' does not follow"):
        read_records(path)
    path.write_text("".join(lines[:1] + lines[2:3] + lines[1:2] + lines[3:]))
    with pytest.raises(ValueError, match=r"line 3: id 'cone;c=0x4208' does not follow"):
        read_records(path)


# ---------------------------------------------------------------------------
# full-census facts (session fixture; engine-validated regression values)
# ---------------------------------------------------------------------------


def test_census_totals(full_census):
    records, _ = full_census
    assert len(records) == 244224
    totals = {}
    smooth = {}
    for rec in records:
        totals[rec.kind] = totals.get(rec.kind, 0) + 1
        smooth[rec.kind] = smooth.get(rec.kind, 0) + rec.smooth
    assert totals == {"cone": 1 << 16, "ns": 1 << 16, "hyp": 113152}
    assert smooth == {"cone": 12288, "ns": 16020, "hyp": 49152}
    ids = [rec.id for rec in records]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)


def test_census_smooth_records_carry_matrix_invariants(full_census):
    # every smooth model, cone included, gets its a-number and 2-rank from a matrix
    records, _ = full_census
    smooth = [rec for rec in records if rec.smooth]
    assert all(rec.a_number is not None and rec.two_rank is not None for rec in smooth)
    assert all(rec.two_rank == rec.p_rank for rec in smooth)


def test_census_cone_cartier_table(full_census):
    records, _ = full_census
    table = Counter((rec.two_rank, rec.a_number) for rec in records if rec.smooth and rec.kind == "cone")
    assert table == {(0, 2): 768, (1, 1): 768, (1, 2): 768, (2, 1): 768,
                     (2, 2): 1536, (3, 1): 1536, (4, 0): 6144}
    assert {rec.type43 for rec in records if rec.smooth and rec.kind == "cone" and rec.p_rank == 0} == {False}


def test_census_spot_records_against_direct_computation(full_census):
    records, _ = full_census
    by_id = {rec.id: rec for rec in records}
    rng = random.Random(777)
    picks = rng.sample([r.id for r in records if r.smooth], 25)
    for cid in picks:
        assert by_id[cid] == classify_model(parse_curve_id(cid)), cid
    for cid in rng.sample([r.id for r in records if not r.smooth], 25):
        assert not is_smooth(parse_curve_id(cid)).smooth, cid


def test_census_supersingular_classes(full_census):
    records, _ = full_census
    ss = {rec.weil for rec in records if rec.smooth and rec.stratum == "S4"}
    assert len(ss) == 15
    assert census.CLASS_H_WEIL in ss and census.CLASS_H_TWIST_WEIL in ss
    members = {census.CLASS_H_WEIL: 0, census.CLASS_H_TWIST_WEIL: 0}
    for rec in records:
        if rec.smooth and rec.weil in members:
            members[rec.weil] += 1
            assert rec.kind == "hyp", rec.id
    assert members == {census.CLASS_H_WEIL: 96, census.CLASS_H_TWIST_WEIL: 96}


def test_census_prank0_classification_tallies(full_census):
    records, _ = full_census
    tallies = {}
    for rec in records:
        if rec.smooth and rec.p_rank == 0:
            tallies[(rec.kind, rec.eo_mu)] = tallies.get((rec.kind, rec.eo_mu), 0) + 1
    # every p-rank-0 cone model lands in N14 with EO [4,1]: no smooth cone
    # curve over F_2 is in N13 or S4
    assert tallies == {
        ("cone", (4, 1)): 768,
        ("hyp", (4, 2)): 3072,
        ("ns", (4,)): 1008,
    }
    strata = {rec.stratum for rec in records if rec.smooth and rec.kind == "cone" and rec.p_rank == 0}
    assert strata == {"N14"}


def test_census_hyp_orbits_partition_smooth_models(full_census):
    # the table orbits of the smooth hyp records are disjoint, cover them
    # exactly and each lies inside one Weil class
    records, _ = full_census
    weil = {rec.id: rec.weil for rec in records if rec.smooth and rec.kind == "hyp"}
    seen: set[str] = set()
    orbits = 0
    for cid in weil:
        if cid in seen:
            continue
        orbit, order = census._isomorphism_orbit(parse_curve_id(cid))
        assert order == 384 and not orbit & seen, cid
        assert {weil.get(member) for member in orbit} == {weil[cid]}, cid
        seen |= orbit
        orbits += 1
    assert len(weil) == 49152 and seen == set(weil)
    assert orbits == 264


def test_census_seven_orbit_class(full_census):
    records, _ = full_census
    (rep,) = group_isogeny_classes(records, [(16, 0, 8, 0, 3, 0, 2, 0, 1)])
    assert len(rep.member_ids) == 960
    assert rep.iso_rep_ids == (
        "cone;c=0x4b6a",
        "hyp;h=0x19;f=0x201", "hyp;h=0x19;f=0x20b", "hyp;h=0x19;f=0x302", "hyp;h=0x19;f=0x308",
        "ns;c=0x03b5", "ns;c=0x07ff",
    )
    assert rep.jacobian_auts == (2,) * 7
    assert rep.stack_count == Fraction(7, 2)


def test_class_members_match_the_per_record_filter(full_census, tmp_path):
    # every Weil class, on the census table and on the table read back from
    # its file: member_ids equals [r.id for r in records if r.smooth and
    # r.weil == key], computed here in one pass over the expanded records
    records, _ = full_census
    want: dict[tuple, list[str]] = {}
    for rec in records:
        if rec.smooth:
            want.setdefault(rec.weil, []).append(rec.id)
    assert len(want) == 507
    path = tmp_path / "records.jsonl"
    write_records(path, records)
    for table in (records, read_records(path)):
        reports = group_isogeny_classes(table, list(want))
        assert [list(rep.member_ids) for rep in reports] == list(want.values())


# ---------------------------------------------------------------------------
# isogeny classes, stack counts, discrepancy
# ---------------------------------------------------------------------------


def _h1_subset():
    return run_census(kinds="hyp", id_filter=lambda cid: cid.startswith("hyp;h=0x01;"))


def test_group_isogeny_classes_keyed():
    records = _h1_subset()
    keyed = group_isogeny_classes(records, [census.CLASS_H_WEIL])
    (rep,) = keyed
    assert len(rep.member_ids) == 32  # f = x^9 + x^5 + t^2 + t, 32 distinct f
    assert rep.iso_rep_ids == ("hyp;h=0x01;f=0x220",)
    assert rep.jacobian_auts == (4,)
    assert rep.stack_count == Fraction(1, 4)
    assert rep.abelian_side == Fraction(7, 4)


def test_orbit_walk_matches_fixed_point_count():
    # |G| / |orbit| against the explicit stabilizer count, on smooth models
    rng = random.Random(4242)
    for kind in census.KINDS:
        checked = 0
        while checked < 4:
            if kind == "hyp":
                hm = rng.randrange(1, 64)
                curve = hyperelliptic_from_masks(hm, rng.randrange(0 if hm >= 32 else 512, 2048))
            else:
                curve = quadric_curve_from_mask(kind, rng.randrange(1 << 16))
            if not is_smooth(curve).smooth:
                continue
            orbit, order = census._isomorphism_orbit(curve)
            assert curve.curve_id in orbit
            assert order // len(orbit) == aut_order_f2(curve), curve.curve_id
            assert census.isomorphism_canonical_id(curve) == min(orbit)
            assert all(is_smooth(parse_curve_id(cid)).smooth for cid in orbit)
            checked += 1


def test_orbit_of_singular_hyp_model_refused():
    # an image of this model leaves the genus-4 shape, where the generic
    # transport refuses to build it
    curve = parse_curve_id("hyp;h=0x01;f=0x406")
    assert is_smooth(curve).note == _HYP_INFINITY_NOTE
    with pytest.raises(ValueError, match="genus-4 shape"):
        for mat in gl2_f2():
            for tm in range(64):
                hyperelliptic_transformed(curve, mat, tuple((tm >> i) & 1 for i in range(6)))
    with pytest.raises(ValueError, match=r"^hyp;h=0x01;f=0x406: .*genus-4 shape"):
        census._isomorphism_orbit(curve)


def test_group_isogeny_classes_empty_class():
    records = _h1_subset()
    # an isogeny class of an elliptic-curve power that no census member hits
    ordinary = (16, 16, 16, 12, 9, 6, 4, 2, 1)
    (rep,) = group_isogeny_classes(records, [ordinary])
    assert rep.member_ids == () and rep.stack_count == Fraction(0)
    assert rep.abelian_side is None


def test_discrepancy_report_text():
    records = _h1_subset()
    (rep,) = group_isogeny_classes(records, [census.CLASS_H_WEIL])
    text = discrepancy_report(rep)
    assert "curve-side stack count:   1/4" in text
    assert "abelian-side stack count: 7/4" in text
    assert "1/4 != 7/4: supersingular locus not contained in Torelli locus (evidence)" in text

    (other,) = group_isogeny_classes(records, [(16, 16, 16, 12, 9, 6, 4, 2, 1)])
    with pytest.raises(ValueError, match="no published abelian-side count"):
        discrepancy_report(other)


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------


def _fake_smooth(cid, kind, **kw):
    base = dict(
        id=cid, kind=kind, smooth=True, counts=(5, 5, 5, 9),
        weil=census.CLASS_H_WEIL, slopes=(Fraction(1, 2),) * 8, stratum="S4",
        p_rank=0, a_number=2, two_rank=0, type43=False, eo_mu=(4, 2),
    )
    base.update(kw)
    return CensusRecord(**base)


def test_verify_propositions_negative_paths():
    records = _h1_subset()
    assert verify_propositions(records).ok

    fake = _fake_smooth("ns;c=0xdead", "ns", type43=True, eo_mu=(4, 3), a_number=2)
    rep = verify_propositions(list(records) + [fake])
    assert not rep.ok and "ns;c=0xdead" in rep.failures
    assert any(line.startswith("FAIL") and "[4,3]" in line for line in rep.lines)

    fake = _fake_smooth("hyp;h=0x3f;f=0x7ff", "hyp", eo_mu=(4, 1), stratum="N14",
                        slopes=(Fraction(1, 4),) * 4 + (Fraction(3, 4),) * 4)
    rep = verify_propositions(list(records) + [fake])
    assert not rep.ok and "hyp;h=0x3f;f=0x7ff" in rep.failures

    fake = _fake_smooth("ns;c=0xfeed", "ns", a_number=3, eo_candidates=((4, 2, 1),), eo_mu=None)
    rep = verify_propositions(list(records) + [fake])
    assert not rep.ok and "ns;c=0xfeed" in rep.failures

    # 66 distinct fake supersingular Weil keys break the class bound
    fakes = [_fake_smooth(f"ns;c=0x{m:04x}", "ns", weil=(16, 16, 8, 0, -4, 0, 2, 2, m + 2))
             for m in range(66)]
    rep = verify_propositions(fakes)
    assert not rep.ok
    assert any("66 distinct supersingular" in line for line in rep.lines)


def test_verify_propositions_subset_vacuous():
    records = _h1_subset()
    rep = verify_propositions(records)
    assert rep.ok and len(rep.lines) == 4
    assert all(line.startswith("PASS") for line in rep.lines)

"""Census pipeline tests.

The fast counting paths are checked against the generic per-curve engines
(count_points, is_smooth), which test_curves.py validates against brute
enumeration; the named example curves pin the classification columns.
"""

import functools
import gc
import json
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
from genus4census.gfarith import (F2X, _squarefree_decomposition, embedding, field, gf2x_degree, gf2x_factor,
                                  gf2x_gcd, gf2x_mul)
from genus4census.kinds import DESCRIPTIONS

from oracles import cubic_partials, index_entries, record_json, reseal, with_index_entry


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


def test_hyp_branch_points_from_the_radical():
    """For every h, the degree of the radical counts the distinct roots, as
    the distinct irreducible factors do, and _hyp_cartier's 2-rank is that
    count plus the point at infinity (a branch point when deg h < 5), less 1."""
    for hm in range(1, 64):
        radical = sum(gf2x_degree(s) for s, _ in _squarefree_decomposition(F2X, hm))
        assert radical == sum(gf2x_degree(p) for p, _ in gf2x_factor(hm)), hex(hm)
        assert radical == census._hyp_cartier(hm)[1] + 1 - (gf2x_degree(hm) < 5), hex(hm)


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
    return census._row_table("ns", lambda i: [f"m{j}" for j in i], head, heads, counts)


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
        out[0][a[1] == 2] += 1  # a_1 = N_1 - 3 is 2 only for (5, 9, 11, 17) here
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


def test_orbit_count_constancy_kills_a_one_member_bump(monkeypatch, fresh_orbit_decisions):
    # one member of cone;c=0x4208's orbit gets the counts of another smooth
    # representative with the same Cartier data: every later check accepts
    # those counts, so only the orbit-constancy check can refuse the model
    real = census._quadric_scan
    counts, flagged, _ = real("cone", 0, 1 << 16)
    rep = 0x4208
    member = int(min(m for m in census._quadric_images("cone", [rep])[0].tolist() if m != rep))
    cart = census._quadric_orbit_decision("cone", rep)[1]
    reps = set(census._quadric_images("cone", np.flatnonzero(~flagged)).min(axis=1).tolist())
    donor = min(r for r in reps if census._quadric_orbit_decision("cone", r)[1] == cart
                and (counts[r] != counts[rep]).any())

    def bumped(kind, m0, m1):
        counts, flagged, witness = real(kind, m0, m1)
        counts = counts.copy()
        counts[member - m0] = counts[donor - m0]
        return counts, flagged, witness

    monkeypatch.setattr(census, "_quadric_scan", bumped)
    member_id = f"cone;c=0x{member:04x}"
    with pytest.raises(RuntimeError, match=f"the scan flags or counts the orbit representative "
                                           f"cone;c=0x{rep:04x} of {member_id} otherwise than {member_id} itself"):
        run_census(kinds="cone", id_filter={member_id}.__contains__)


@pytest.mark.parametrize("job", [("cone",), ("ns",), ("hyp", 30, 34)], ids=["cone", "ns", "hyp-30-34"])
def test_id_filter_sees_every_id_of_the_job_once_in_order(job):
    # a spy on one job of each quadric kind and on an h-range across
    # deg h = 4 (f from 0x200) and deg h = 5 (every f); it keeps a CRC-32
    # share, and the job's positions are exactly the kept ids'
    if job[0] == "hyp":
        lo, hi = census._FIRST["hyp"][job[1]], census._FIRST["hyp"][job[2]]
    else:
        lo = census._START[job[0]]
        hi = lo + (1 << 16)
    seen = []

    def spy(cid):
        seen.append(cid)
        return zlib.crc32(cid.encode()) % 3 == 0

    pos, _, _ = census._census_job((*job, spy))
    want = census._curve_ids(np.arange(lo, hi))
    assert seen == want
    assert pos.tolist() == [p for p, cid in zip(range(lo, hi), want) if zlib.crc32(cid.encode()) % 3 == 0]


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
    packed = census._packed_counts(census._hyp_counts_vector(bad_h, np.array(fms)), lambda i: [smooth[j] for j in i])
    assert len(smooth) > 1 and packed[0] != packed.min()
    monkeypatch.setattr(census, "_hyp_cartier", wrong)
    with pytest.raises(RuntimeError, match=f"inconsistent invariants for {smooth[0]}:"):
        run_census(kinds="hyp", id_filter=keep)


@pytest.mark.parametrize("kind", ["ns", "cone"])
def test_quadric_chunk_ids_are_curve_ids(kind):
    # all 2^16 masks: the ids spelled from the job's positions against each
    # model's own curve_id
    ids = census._curve_ids(census._quadric_chunk(kind)[0])
    assert ids == [quadric_curve_from_mask(kind, m).curve_id for m in range(1 << 16)]


@pytest.mark.parametrize("kind", ["ns", "cone"])
def test_flagged_notes_built_once_per_field(monkeypatch, kind):
    # all 2^16 masks: the note a flagged mask gets from its row is the one
    # _scan_singular gives the mask itself, and the job builds one note per
    # field degree, not one per flagged mask
    calls = []
    monkeypatch.setattr(census, "_scan_singular", lambda *args: calls.append(args) or _scan_singular(*args))
    pos, row, rows = census._quadric_chunk(kind)
    assert census._curve_ids(pos) == [f"{kind};c=0x{m:04x}" for m in range(1 << 16)]
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


@functools.lru_cache(maxsize=None)
def _all_ids() -> list[str]:
    """Every curve id of the model space, in id order."""
    return sorted([f"{kind};c=0x{m:04x}" for kind in ("cone", "ns") for m in range(1 << 16)]
                  + [f"hyp;h=0x{hm:02x};f=0x{fm:03x}" for hm in range(1, 64)
                     for fm in range(0 if hm >= 32 else 512, 2048)])


def _bench_sample_ids():
    """The ids that the benchmark's sample keeps: CRC-32 of the id mod 16 == 0."""
    return frozenset(cid for cid in _all_ids() if zlib.crc32(cid.encode()) % 16 == 0)


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
        pos, row, rows = census._census_job(job)
        ids = census._curve_ids(pos)
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
    """Runs the pool's jobs in this process and records the pool size and
    the jobs handed to the pool."""

    sizes: list = []
    jobs: list = []

    def __init__(self, max_workers=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        self.jobs.extend(jobs)
        return list(map(fn, jobs))


@pytest.mark.parametrize("kinds, workers, pool", [
    ("ns", 2, []),
    (("cone", "ns"), 3, [1]),
    ("hyp", 3, [2]),
    (census.KINDS, 2, [1]),
])
def test_pool_runs_no_more_processes_than_jobs(monkeypatch, kinds, workers, pool):
    # the census process is one of the computing processes, so the pool
    # has one process fewer than min(workers, jobs)
    monkeypatch.setattr(census, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(_RecordingExecutor, "sizes", [])
    keep = {"ns;c=0x1d0c", "cone;c=0x4208", "hyp;h=0x01;f=0x221"}.__contains__
    records = run_census(kinds=kinds, workers=workers, id_filter=keep)
    assert records
    assert _RecordingExecutor.sizes == pool


@pytest.mark.parametrize("kinds, workers, pool_jobs", [
    (census.KINDS, 2, [("ns",), ("hyp", 36, 64)]),
    (census.KINDS, 3, [("ns",), ("hyp", 1, 26), ("hyp", 46, 64)]),
    ("hyp", 3, [("hyp", 26, 46), ("hyp", 46, 64)]),
    (("cone", "ns"), 2, [("ns",)]),
])
def test_pool_gets_exactly_its_share_of_the_plan(monkeypatch, kinds, workers, pool_jobs):
    # with p processes the census process runs every p-th job of the plan
    # from the first (at two workers, cone and the lower h-range), the pool
    # the rest, in plan order; the table is the one-process table
    monkeypatch.setattr(census, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(_RecordingExecutor, "jobs", [])
    keep = frozenset(NAMED_EXPECTATIONS).__contains__
    got = run_census(kinds=kinds, workers=workers, id_filter=keep)
    assert [job[:-1] for job in _RecordingExecutor.jobs] == pool_jobs
    assert all(job[-1] is keep for job in _RecordingExecutor.jobs)
    one = run_census(kinds=kinds, workers=1, id_filter=keep)
    assert got == one and list(got) == list(one)


_CENSUS_JOB = census._census_job


def _job_failing_for(failing, job):
    """census._census_job, except that the jobs whose kind and h-range are
    in failing raise; module-level, so a pool process can unpickle it."""
    if job[:-1] in failing:
        raise RuntimeError(f"job {job[:-1]} failed")
    return _CENSUS_JOB(job)


@pytest.mark.parametrize("failing", [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
def test_failure_names_the_earliest_failing_job_in_plan_order(monkeypatch, failing):
    # the 2-worker plan is cone, ns, hyp 1..35, hyp 36..63; the census
    # process runs jobs 0 and 2, a real pool jobs 1 and 3, and two of the
    # four fail; the error is the earlier one's, whichever process ran it
    keep = frozenset(NAMED_EXPECTATIONS).__contains__
    jobs = [job[:-1] for job in census._census_jobs(census.KINDS, 2, keep)]
    assert jobs == [("cone",), ("ns",), ("hyp", 1, 36), ("hyp", 36, 64)]
    monkeypatch.setattr(census, "_census_job",
                        functools.partial(_job_failing_for, frozenset(jobs[i] for i in failing)))
    with pytest.raises(RuntimeError, match=re.escape(f"job {jobs[failing[0]]} failed")):
        run_census(workers=2, id_filter=keep)


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
    assert read_records(path) == records
    assert list(read_records(path)) == list(records)
    for rec in records:
        assert record_from_json(record_to_json(rec)) == rec

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"schema":"g4c2-census/0","records":0}\n')
    with pytest.raises(ValueError, match="schema"):
        read_records(bad)


def test_read_records_refuses_schema_1(tmp_path):
    # the layout of one line per model, which the reader no longer reads
    path = tmp_path / "old.jsonl"
    rec = classify_model(parse_curve_id("ns;c=0x1d0c"))
    path.write_text('{"records":1,"schema":"g4c2-census/1"}\n' + record_to_json(rec) + "\n")
    with pytest.raises(ValueError, match=r"old\.jsonl: line 1: records schema /1 is no longer read"):
        read_records(path)


@pytest.mark.parametrize("workers", [1, 2])
def test_sampled_census_round_trip(tmp_path, workers):
    # the benchmark's sample: written, read back and rewritten, the table,
    # its bytes and its dropped-model markers survive
    keep = _bench_sample_ids().__contains__
    table = run_census(id_filter=keep, workers=workers)
    path = tmp_path / "sample.jsonl"
    write_records(path, table)
    back = read_records(path)
    assert back == table and len(back) == len(table) > 15000
    assert list(back) == list(table)
    write_records(tmp_path / "again.jsonl", back)
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["rows"] == len(table.rows) == len(lines) - 4
    assert header["records"] == dict(Counter(rec.kind for rec in table))
    entries = [e for line in lines[-3:] for e in index_entries(line)]
    everyone = _all_ids()
    assert len(entries) == len(everyone) == 244224
    assert [cid for cid, e in zip(everyone, entries) if e == 0xFFFF] == [cid for cid in everyone if not keep(cid)]
    assert [(cid, *table.rows[e]) for cid, e in zip(everyone, entries) if e != 0xFFFF] == list(table)


def test_read_records_names_the_kind_edited_line_of_a_sampled_file(tmp_path):
    # the first row, cone's, edited to ns equals an ns row on a later line;
    # the edited line is refused, for its kind, before any repeat is seen
    table = run_census(id_filter=_bench_sample_ids().__contains__)
    path = tmp_path / "sample.jsonl"
    write_records(path, table)
    lines = path.read_text().splitlines(keepends=True)
    (first,) = census._curve_ids(table.pos[:1])
    assert first.startswith("cone;") and table.row[0] == 0
    for kind in ("ns", "hyp"):
        edited = lines[1].replace('"kind":"cone"', f'"kind":"{kind}"')
        if kind == "ns":
            assert edited in lines[2:]
        path.write_text("".join(lines[:1] + [edited] + lines[2:]))
        with pytest.raises(ValueError, match=re.escape(f"line 2: kind '{kind}' contradicts id '{first}'")):
            read_records(path)


def test_lookup_finds_one_model_by_id():
    keep = frozenset(NAMED_EXPECTATIONS).__contains__
    table = run_census(id_filter=keep)
    assert [table.lookup(rec.id) for rec in table] == list(table)
    assert table.lookup("ns;c=0x1d0c") == classify_model(parse_curve_id("ns;c=0x1d0c"))
    # valid ids that id_filter dropped: before, between and after the kept ones
    for cid in ("cone;c=0x0000", "hyp;h=0x01;f=0x222", "ns;c=0xffff"):
        assert not keep(cid) and table.lookup(cid) is None
    for cid in ("ns;c=0x1D0C", "hyp;h=0x01;f=0x021", "quartic;c=0x0000", 7):
        with pytest.raises(ValueError, match="is not the curve_id of a census model"):
            table.lookup(cid)


def _mixed_records():
    """Singular records of every kind, smooth records sharing keys, one
    record with aut and jacobian_aut set and one note that JSON escapes
    (the last two under the last two ns ids and kind ns, which read_records
    accepts)."""
    records = run_census(id_filter=lambda cid: cid.startswith(
        ("cone;c=0x42", "hyp;h=0x01;f=0x2", "hyp;h=0x01;f=0x40", "ns;c=0x00")))
    smooth = next(r for r in records if r.smooth)
    singular = next(r for r in records if not r.smooth)
    return list(records) + [smooth._replace(id="ns;c=0xfffe", kind="ns", aut=6, jacobian_aut=12),
                      singular._replace(id="ns;c=0xffff", kind="ns", note='a "quoted" \\ note,\twith\u00e9 escapes')]


def test_write_records_lines_are_record_to_json(tmp_path):
    # the row lines are record_to_json of the rows without their empty id,
    # followed by one index line per kind
    records = _mixed_records()
    assert {(r.kind, r.smooth) for r in records} == {
        (kind, smooth) for kind in census.KINDS for smooth in (False, True)}
    path = tmp_path / "records.jsonl"
    write_records(path, records)
    rows = census.CensusTable.of(records).row_records()
    lines = path.read_text(encoding="ascii").splitlines()[1:]
    assert lines[:len(rows)] == [record_to_json(r).replace('"id":"",', "") for r in rows]
    assert [json.loads(line)["kind"] for line in lines[len(rows):]] == list(census.KINDS)
    assert '"jacobian_aut":12' in lines[len(rows) - 2] and '\\"quoted\\"' in lines[len(rows) - 1]

    back = read_records(path)
    assert list(back) == records
    first_of_key = {}
    for rec in back:
        first = first_of_key.setdefault(rec[1:], rec)
        assert rec.counts is first.counts and rec.weil is first.weil
    assert len(first_of_key) < len([r for r in back if r.smooth])


def test_row_lines_are_the_dict_spelling(full_census):
    # the writer spells each field itself; json.dumps of the record's dict,
    # sorted keys, is the oracle, on every row of the census
    records, _ = full_census
    slopes_text: dict = {}
    assert [census._row_json(row, slopes_text) for row in records.rows] == [
        record_json(CensusRecord("", *row), with_id=False) for row in records.rows]
    # one slopes text per slopes tuple, which rows of a job share
    assert len(slopes_text) == len({id(row[5]) for row in records.rows if row[5] is not None}) < len(records.rows) / 4


def test_record_to_json_is_the_dict_spelling():
    # the fields the census never sets, escapes, an empty partition list
    # and ids, against the oracle
    smooth = classify_model(parse_curve_id("ns;c=0x1d0c"))
    singular = next(r for r in _h1_subset() if not r.smooth)
    for rec in (smooth, singular, smooth._replace(aut=6, jacobian_aut=12),
                smooth._replace(eo_mu=None, eo_candidates=((4, 2), (4, 1), (3,))),
                smooth._replace(eo_candidates=(), counts=(), slopes=()),
                singular._replace(note='a "quoted" \\ note,\twith\u00e9 escapes', id='hyp;"x"\u00e9'),
                smooth._replace(id="", stratum="s\u00e9", type43=True, p_rank=0, a_number=None)):
        assert record_to_json(rec) == record_json(rec)
        assert census._row_json(rec[1:], {}) == record_json(rec, with_id=False)


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


def test_write_records_refuses_kind_that_contradicts_id(tmp_path):
    """A cone record moved under an ns id is refused before the file is
    opened, naming the line read_records would name: the line of the cone
    row, which the ns id uses."""
    records = _mixed_records()
    i = len(records) - 2
    cone = next(r for r in records if r.kind == "cone")
    moved = records[:i] + [cone._replace(id=records[i].id)] + records[i + 1:]
    r = int(census.CensusTable.of(moved).row[i])
    message = rf"line {r + 2}: kind 'cone' contradicts id 'ns;c=0xfffe'"
    path = tmp_path / "records.jsonl"
    with pytest.raises(ValueError, match=message):
        write_records(path, moved)
    assert list(tmp_path.iterdir()) == []
    write_records(path, records)
    before = path.read_bytes()
    with pytest.raises(ValueError, match=message):
        write_records(path, moved)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"]


@pytest.mark.parametrize("order", [(0, 1, 2, 2), (1, 0, 2)], ids=["duplicate", "out-of-order"])
def test_write_records_refuses_id_that_does_not_follow(tmp_path, order):
    # a table holds each model once, in id order, so the writer refuses
    # such records, naming both ids, and keeps the old file
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


_MALFORMED = r"records\.jsonl: line 2: malformed record: .*, the row of 'cone;c=0x4208'$"


# the cases of the layout with one line per model, each carried over to the
# row line of the model it edited: an id in the row, a row without a field
# it needs, a field of another type, escapes and a cut
@pytest.mark.parametrize("edit, why", [
    pytest.param(lambda line: line.replace('{', '{"id":"cone;c=0x4207",', 1), _MALFORMED, id="two-ids"),
    pytest.param(lambda line: line.replace('}', ',"id":""}', 1), _MALFORMED, id="two-ids-empty-last"),
    pytest.param(lambda line: line.replace('"kind":"cone",', ""), _MALFORMED, id="no-id"),
    pytest.param(lambda line: line.replace('"kind":"cone"', '"kind":4208'), _MALFORMED, id="number-id"),
    pytest.param(lambda line: line.replace('"counts":["3"', '"counts":["\\"3"'), _MALFORMED, id="quote-escape"),
    # the same row spelled another way: only the body's SHA-256 sees it
    pytest.param(lambda line: line.replace('"kind":"cone"', '"kind":"con\\u0065"'),
                 r"records\.jsonl: line 1: the body's SHA-256 is [0-9a-f]{64}, not the header's '[0-9a-f]{64}'$",
                 id="u-escape"),
    pytest.param(lambda line: line[:line.index('"kind":"co')] + '"kind":"co\n', _MALFORMED, id="cut-in-id"),
    pytest.param(lambda line: line.replace('"slopes":["', '"slopes":["1/0","', 1), _MALFORMED, id="zero-denominator"),
])
def test_read_records_refuses_malformed_line(tmp_path, edit, why):
    path, lines = _written_lines(tmp_path)
    assert lines[1].startswith('{"a_number":2,"counts":["3","5","9","9"]') and '"kind":"cone"' in lines[1]
    path.write_text("".join(lines[:1] + [edit(lines[1])] + lines[2:]))
    with pytest.raises(ValueError, match=why):
        read_records(path)


@pytest.mark.parametrize("old, new, why", [
    ('"smooth":true', '"smooth":1', "field 'smooth' is 1, not of type bool"),
    ('"type43":false', '"type43":0', "field 'type43' is 0, not of type bool"),
    ('"p_rank":0', '"p_rank":false', "field 'p_rank' is False, not of type int"),
    ('"kind":"cone"', '"kind":["cone"]', "field 'kind' is ['cone'], not of type str"),
    ('"counts":["3","5","9","9"]', '"counts":"3599"', "field 'counts' is '3599', not a list of decimal strings"),
    ('"weil":["16"', '"weil":[16', "field 'weil' is [16, '0', '0', '0', '-2', '0', '0', '0', '1'], not a list of "
                                   "decimal strings"),
    ('"counts":["3"', '"counts":["03"', "field 'counts' is ['03', '5', '9', '9'], not a list of decimal strings"),
    ('"1/4"', '"0.25"', "field 'slopes' is ['0.25', '1/4', '1/4', '1/4', '3/4', '3/4', '3/4', '3/4'], not a list "
                        "of fraction strings"),
    ('"eo_mu":[4,1]', '"eo_mu":[4,true]', "field 'eo_mu' is [4, True], not a list of integers"),
    # a nested object prints as a dict, even one that spells a row; a key
    # repeated at any depth is refused first
    ('"kind":"cone"', '"kind":{"kind":"cone","smooth":true}',
     "field 'kind' is {'kind': 'cone', 'smooth': True}, not of type str"),
    ('"counts":["3"', '"counts":[{"3":[]}', "field 'counts' is [{'3': []}, '5', '9', '9'], not a list of decimal strings"),
    ('"kind":"cone"', '"kind":"cone","kind":"cone"', "repeated key 'kind'"),
    ('"kind":"cone"', '"kind":1,"note":{"b":1,"a":2,"b":3}', "repeated key 'b'"),
], ids=["smooth-1", "type43-0", "p-rank-false", "kind-list", "counts-string", "weil-number", "count-leading-zero",
        "slope-decimal-point", "eo-mu-true", "kind-row-object", "counts-object", "repeated-key", "nested-repeated-key"])
def test_read_records_refuses_field_of_another_json_type(tmp_path, old, new, why):
    # each of these reads as a row the writer never writes: a smooth flag
    # of 1, counts (3, 5, 9, 9) from the string "3599", ...
    path, lines = _written_lines(tmp_path)
    assert old in lines[1]
    path.write_text("".join(lines[:1] + [lines[1].replace(old, new, 1)] + lines[2:]))
    with pytest.raises(ValueError, match=r"records\.jsonl: line 2: malformed record: .*" + re.escape(why)
                       + ".*, the row of 'cone;c=0x4208'"):
        read_records(path)


@pytest.mark.parametrize("lineno, kind", [(2, "hyp"), (4, "ns"), (6, "cone"), (2, "quartic")])
def test_read_records_refuses_kind_that_contradicts_its_id(tmp_path, lineno, kind):
    # the row on line lineno, edited to another kind, named with the first id that uses it
    path, lines = _written_lines(tmp_path)
    table = _named_records()
    cid = table[table.row.tolist().index(lineno - 2)].id
    lines[lineno - 1] = re.sub('"kind":"[a-z]+"', f'"kind":"{kind}"', lines[lineno - 1])
    path.write_text("".join(lines))
    why = f"records.jsonl: line {lineno}: kind {kind!r} contradicts id {cid!r}"
    with pytest.raises(ValueError, match=re.escape(why)):
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
    # the header's records count is the number of kept models of each kind
    path, lines = _written_lines(tmp_path)
    path.write_text("".join(['{"rows":5,"schema":"g4c2-census/2"' + count + "}\n"] + lines[1:]))
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
    # records built on the fly, each with a fresh slopes tuple freed after
    # it is read, all other fields equal: rows that differ only in their
    # slopes stay apart, each written as its own row line
    base = next(r for r in _h1_subset() if r.smooth)
    values = (Fraction(0), Fraction(1, 2), Fraction(1))

    class OnTheFly:
        def __len__(self):
            return 40

        def __iter__(self):
            for i in range(40):
                yield base._replace(id=f"ns;c=0x{i:04x}", kind="ns", slopes=(values[i % 3], values[i % 2]))

    path = tmp_path / "records.jsonl"
    write_records(path, OnTheFly())
    lines = path.read_text(encoding="ascii").splitlines()[1:]
    assert lines[:-1] == [record_to_json(r._replace(id="")).replace('"id":"",', "") for r in list(OnTheFly())[:6]]
    assert list(read_records(path)) == list(OnTheFly())


def test_read_records_interns_slopes(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(path, _h1_subset())
    back = [rec for rec in read_records(path) if rec.weil == census.CLASS_H_WEIL]
    assert len(back) == 32
    assert all(rec.slopes is back[0].slopes for rec in back)


def test_read_records_shares_one_fraction_per_slope_string(tmp_path):
    # records of different rows (different counts) that share a slope value
    # share one Fraction object for it
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
    """The file of the named records: the header, the five rows of
    cone;c=0x4208, hyp;h=0x01;f=0x220, hyp;h=0x01;f=0x221, ns;c=0x038c and
    ns;c=0x1d0c on lines 2 to 6, and the index lines of cone, hyp and ns."""
    path = tmp_path / "records.jsonl"
    write_records(path, _named_records())
    return path, path.read_text().splitlines(keepends=True)


def test_read_records_refuses_second_spelling_of_an_id(tmp_path):
    # ids are never spelled in the file, so a model is read under one id;
    # its row, spelled a second way on a second line, is refused as a repeat
    path = tmp_path / "twice.jsonl"
    rec = classify_model(parse_curve_id("ns;c=0x1d0c"))
    write_records(path, [rec, rec._replace(id="ns;c=0x1d0d")])
    header, row, index = path.read_text().splitlines(keepends=True)
    again = row.replace('"kind":"ns"', '"kind":"n\\u0073"')
    path.write_text(header.replace('"rows":1', '"rows":2') + row + again + with_index_entry(index, 0x1d0d, 1))
    with pytest.raises(ValueError, match=r"twice\.jsonl: line 3: repeats the row of line 2, "
                                         "the row of 'ns;c=0x1d0d'"):
        read_records(path)


def test_read_records_id_grammar_is_the_census_id_domain():
    # every id of the model space and nothing else: all 2^16 masks of each
    # quadric kind; hyp with h != 0 in the genus-4 shape
    grammar = re.compile(census._CURVE_ID)
    for kind in ("ns", "cone"):
        assert all(grammar.fullmatch(f"{kind};c=0x{m:04x}") for m in range(1 << 16))
    hyp = [(h, f) for h in range(64) for f in range(2048)
           if grammar.fullmatch(f"hyp;h=0x{h:02x};f=0x{f:03x}")]
    assert hyp == [(h, f) for h in range(1, 64) for f in range(DESCRIPTIONS["hyp"].first_tail[h], 2048)]
    assert len(hyp) == 113152
    for bad in ("ns;c=0x1D0C", "ns;c=0x1d0", "ns;c=0x01d0c", "ns;c=1d0c", "ell;c=0x1d0c", "cone;c=0x1d0c ",
                "hyp;h=0x00;f=0x200", "hyp;h=0x1f;f=0x1ff", "hyp;h=0x40;f=0x000", "hyp;h=0x20;f=0x800",
                "hyp;h=0x3;f=0x200", "hyp;f=0x200;h=0x03"):
        assert not grammar.fullmatch(bad), bad
    # the positions of the model space spell the same ids, in id order
    assert census._curve_ids(np.arange(244224)) == _all_ids()


def test_read_records_refuses_truncated_file(tmp_path):
    path, lines = _written_lines(tmp_path)
    path.write_text("".join(lines[:-1]))
    with pytest.raises(ValueError, match="line 9: missing; the header promises 5 rows and 3 index lines"):
        read_records(path)
    # cut inside the last index line
    path.write_text("".join(lines)[:-10])
    with pytest.raises(ValueError, match="line 9: malformed index line of kind 'ns'"):
        read_records(path)


def test_read_records_refuses_duplicated_or_moved_line(tmp_path):
    path, lines = _written_lines(tmp_path)
    path.write_text("".join(lines[:4] + lines[3:]))
    with pytest.raises(ValueError, match=r"line 5: repeats the row of line 4, the row of 'ns;c=0x038c'"):
        read_records(path)
    # the rows of two kinds swapped: the kind check names the first
    path.write_text("".join(lines[:1] + lines[2:3] + lines[1:2] + lines[3:]))
    with pytest.raises(ValueError, match=r"line 2: kind 'hyp' contradicts id 'cone;c=0x4208'"):
        read_records(path)
    # the rows of two hyp models swapped: only the body's SHA-256 sees it
    path.write_text("".join(lines[:2] + lines[3:4] + lines[2:3] + lines[4:]))
    with pytest.raises(ValueError, match=r"line 1: the body's SHA-256 is [0-9a-f]{64}, not the header's"):
        read_records(path)


# index lines that json.loads reads as the writer's, or with a hex string that
# is not a whole number of bytes; resealed, so that only the spelling is refused
@pytest.mark.parametrize("edit, lineno, kind, why", [
    pytest.param(lambda lines: lines[:7] + [lines[7].replace('"kind":"hyp"', '"kind": "hyp"')] + lines[8:],
                 8, "hyp", 'not {"kind":"hyp","rows":...}', id="space-after-colon"),
    pytest.param(lambda lines: lines[:7] + [json.dumps({"rows": json.loads(lines[7])["rows"], "kind": "hyp"},
                                                       separators=(",", ":")) + "\n"] + lines[8:],
                 8, "hyp", 'not {"kind":"hyp","rows":...}', id="swapped-keys"),
    pytest.param(lambda lines: [line.replace("\n", "\r\n") for line in lines],
                 7, "cone", 'not {"kind":"cone","rows":...}', id="crlf"),
    pytest.param(lambda lines: lines[:7] + [lines[7].replace('"rows":"', '"rows":"0')] + lines[8:],
                 8, "hyp", "Odd-length string", id="odd-length-hex"),
    pytest.param(lambda lines: lines[:7] + [lines[7].replace('"rows":"ffff', '"rows":"fffg')] + lines[8:],
                 8, "hyp", "Non-hexadecimal digit found", id="non-hex-digit"),
    pytest.param(lambda lines: lines[:8] + [lines[8].replace('"}', '"} ')],
                 9, "ns", 'not {"kind":"ns","rows":...}', id="byte-after-the-brace"),
])
def test_read_records_refuses_index_line_in_another_spelling(tmp_path, edit, lineno, kind, why):
    path, lines = _written_lines(tmp_path)
    edited = edit(lines)
    assert len(edited) == len(lines) and edited != lines
    path.write_text("".join(edited))
    reseal(path)
    with pytest.raises(ValueError, match=re.escape(
            f"records.jsonl: line {lineno}: malformed index line of kind {kind!r}: {why}")):
        read_records(path)


def test_read_records_decodes_row_lines_only(tmp_path, monkeypatch):
    # the JSON decoder runs once per row line; the index lines are read from the bytes
    path, lines = _written_lines(tmp_path)
    decoded, decode = [], census._decode
    monkeypatch.setattr(census, "_decode", lambda line: decoded.append(line) or decode(line))
    assert read_records(path) == _named_records()
    assert decoded == [line.rstrip("\n") for line in lines[1:6]]


@pytest.mark.parametrize("lineno, first", [(2, "cone;c=0x4208"), (5, "ns;c=0x038c")])
@pytest.mark.parametrize("sealed", [False, True])
def test_read_records_refuses_row_line_broken_in_two(tmp_path, lineno, first, sealed):
    # each row line is decoded on its own, so an object that opens on one
    # line and closes on the next is refused, naming the line where it opens
    path, lines = _written_lines(tmp_path)
    head, cut, rest = lines[lineno - 1].partition('"counts":[')
    assert cut
    path.write_text("".join(lines[:lineno - 1] + [head + cut + "\n", rest] + lines[lineno:]))
    if sealed:
        reseal(path)
    with pytest.raises(ValueError, match=re.escape(f"records.jsonl: line {lineno}: malformed record: JSONDecodeError(")
                       + r".*, the row of " + re.escape(repr(first)) + "$"):
        read_records(path)


def test_read_records_takes_a_resealed_row_line_padded_with_whitespace(tmp_path):
    # JSON whitespace around and inside a row line reads as the same row;
    # only the body's SHA-256 sees it, so resealed the file reads as written
    path, lines = _written_lines(tmp_path)
    padded = " \t" + lines[1].rstrip("\n").replace(",", " ,\t").replace(":", ": ") + "\t \n"
    path.write_text("".join(lines[:1] + [padded] + lines[2:]))
    with pytest.raises(ValueError, match=r"records\.jsonl: line 1: the body's SHA-256 is [0-9a-f]{64}, not the "):
        read_records(path)
    reseal(path)
    assert read_records(path) == _named_records()


def _header_with(lines, **change):
    header = json.loads(lines[0])
    header.update(change)
    return json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("edit, why", [
    pytest.param(lambda lines: [_header_with(lines, rows="5")] + lines[1:],
                 r"line 1: header records count .* or row count '5' is not a non-negative integer",
                 id="row-count-not-int"),
    pytest.param(lambda lines: lines[:7] + [lines[7].replace('"rows":"', '"rows":"0000')] + lines[8:],
                 r"line 8: malformed index line of kind 'hyp': 113153 entries, not one for each of the 113152",
                 id="index-too-long"),
    pytest.param(lambda lines: lines[:6] + lines[8:9] + lines[7:8] + lines[6:7],
                 'line 7: malformed index line of kind \'cone\': not {"kind":"cone","rows":...}', id="index-lines-moved"),
    pytest.param(lambda lines: lines[:6] + [with_index_entry(lines[6], 0, 1)] + lines[7:],
                 "line 7: index of kind 'cone' keeps 2 models, the header promises 1", id="index-keeps-more"),
    pytest.param(lambda lines: lines[:6] + [lines[1].replace('"a_number":2', '"a_number":1')] + lines[6:],
                 "line 1: header promises 5 rows, the body has 6", id="extra-row"),
    pytest.param(lambda lines: lines[:6] + [with_index_entry(lines[6], 0x4208, 5)] + lines[7:],
                 "line 7: index of kind 'cone' gives 'cone;c=0x4208' row 5, beyond the 5 rows", id="index-beyond"),
    pytest.param(lambda lines: lines[:7] + [with_index_entry(lines[7], 0x221 - 512, 1)] + lines[8:],
                 "line 4: a row no model uses", id="unused-row"),
    pytest.param(lambda lines: lines[:3] + [lines[3].replace('"13"', '"12"')] + lines[4:],
                 r"line 1: the body's SHA-256 is [0-9a-f]{64}, not the header's '[0-9a-f]{64}'", id="edited-row"),
])
def test_read_records_refuses_inconsistent_table(tmp_path, edit, why):
    # every other way the rows, the index lines and the header can disagree
    path, lines = _written_lines(tmp_path)
    path.write_text("".join(edit(lines)))
    with pytest.raises(ValueError, match=rf"records\.jsonl: {why}"):
        read_records(path)


def test_write_records_refuses_rows_beyond_the_index_digits(tmp_path):
    # four hex digits per model, ffff marking a dropped model, leave room
    # for rows 0..0xfffe; a table with more is refused before the file is opened
    rows = tuple(CensusRecord("", "cone", False, f"note {i}")[1:] for i in range(0x10000))
    path = tmp_path / "records.jsonl"
    write_records(path, census.CensusTable(np.arange(0xFFFF), np.arange(0xFFFF), rows[:0xFFFF]))
    assert path.read_text().splitlines()[-1].endswith('fffdfffeffff"}')  # the last mask dropped
    path.unlink()
    with pytest.raises(ValueError, match="65536 rows do not fit the index's four hex digits"):
        write_records(path, census.CensusTable(np.arange(0x10000), np.arange(0x10000), rows))
    assert list(tmp_path.iterdir()) == []


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
    assert {kind: desc.domain for kind, desc in DESCRIPTIONS.items()} == totals
    assert sum(desc.domain for desc in DESCRIPTIONS.values()) == 244224
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

    # a smooth model without an a-number fails the a-number line too
    fake = _fake_smooth("ns;c=0xfeed", "ns", a_number=None)
    rep = verify_propositions(list(records) + [fake])
    assert not rep.ok and rep.failures == ("ns;c=0xfeed",)
    assert rep.lines[2] == "FAIL: no smooth model has a-number >= 3 (1 violations: ns;c=0xfeed)"

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

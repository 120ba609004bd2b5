"""Census pipeline tests.

The fast counting paths are checked against the generic per-curve engines
(count_points, is_smooth), which test_curves.py validates against brute
enumeration; the named example curves pin the classification columns.
"""

import functools
import random
import re
import zlib
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
    gl2_f2,
    hyperelliptic_from_masks,
    hyperelliptic_transformed,
    is_smooth,
    parse_curve_id,
    quadric_curve_from_mask,
    quadric_stabilizer_f2,
)
from genus4census.curves import _HYP_AFFINE_NOTE, _HYP_INFINITY_NOTE, _quadric_smooth_generic
from genus4census.gfarith import gf2x_degree, gf2x_gcd, gf2x_mul


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


@pytest.mark.parametrize("kind", ["ns", "cone"])
def test_quadric_scan_matches_engines(kind):
    counts, flagged, witness = census._quadric_scan(kind, 0, 1 << 16)
    rng = random.Random(5150 + len(kind))
    masks = [rng.randrange(1 << 16) for _ in range(40)] + [0, 0xFFFF]
    if kind == "ns":
        masks.append(0x1D0C)
    for m in masks:
        curve = quadric_curve_from_mask(kind, m)
        want = tuple(count_points(curve, n, raw=True) for n in (1, 2, 3, 4))
        assert tuple(int(c) for c in counts[m]) == want, hex(m)
        res = _quadric_smooth_generic(curve)
        if res.smooth:
            # no false singularity flags on smooth curves
            assert not flagged[m], hex(m)
        elif res.witness is not None and res.witness[0] <= 4:
            # a rational singular point of degree <= 4 must be flagged
            assert flagged[m], (hex(m), res)


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


def test_hyp_smoothness_matches_engine():
    rng = random.Random(2112)
    seen_smooth = seen_singular = 0
    for _ in range(150):
        hm = rng.randrange(1, 64)
        fm = rng.randrange(0 if hm >= 32 else 512, 2048)
        note = census._hyp_smooth_masks(hm)[fm]
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
        notes = census._hyp_smooth_masks(hm)
        assert len(notes) == 2048
        for fm in range(0 if hm >= 32 else 512, 2048):
            want = _hyp_smooth_oracle(hm, fm)
            assert notes[fm] == want, (hex(hm), hex(fm))
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
    # the invariants are cached per (counts, Cartier) key; a bad key is not,
    # so a second model with the same key aborts too, under its own id
    with pytest.raises(RuntimeError) as exc:
        census._classified_record("hyp", "hyp;h=0x01;f=0x221", (5, 5, 5, 9), (0, 4, None))
    assert "hyp;h=0x01;f=0x221" in str(exc.value) and "f=0x220" not in str(exc.value)


def test_classified_record_bad_counts_abort():
    # counts violating the Weil bound cannot come from a smooth curve
    with pytest.raises(RuntimeError, match="ns;c=0xbeef"):
        census._classified_record("ns", "ns;c=0xbeef", (40, 2, 2, 2), None)


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
    # a wrong 2-rank for one ns representative reaches its members through
    # the broadcast, and the first member's own counts refuse it
    row = census._quadric_images("ns", [0x1D0C])[0]
    rep = int(row.min())
    members = {f"ns;c=0x{int(m):04x}" for m in row if m != rep}
    assert len(members) > 1
    real = census._ns_cartier

    def wrong(curve):
        a, s2, t43 = real(curve)
        return (a, s2 + 1, t43) if curve.mask == rep else (a, s2, t43)

    monkeypatch.setattr(census, "_ns_cartier", wrong)
    with pytest.raises(RuntimeError, match=f"inconsistent invariants for {min(members)}"):
        run_census(kinds="ns", id_filter=members.__contains__)


def test_orbit_representative_flagged_aborts(monkeypatch, fresh_orbit_decisions):
    # the scan flags the zero cubic; an unflagged model mapped onto it
    # breaks the orbit invariance, and the census names both
    monkeypatch.setattr(census, "_quadric_images", lambda kind, masks: np.zeros((len(masks), 1), np.uint16))
    with pytest.raises(RuntimeError, match="representative cone;c=0x0000 of cone;c=0x4208"):
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


def test_workers_byte_identity():
    # two quadric kinds are two jobs, so the 2-worker run goes through a pool
    one = run_census(kinds=("cone", "ns"), workers=1)
    two = run_census(kinds=("cone", "ns"), workers=2)
    assert [record_to_json(r) for r in one] == [record_to_json(r) for r in two]
    assert two == one
    assert all(type(r) is CensusRecord for r in two)


def _hyp_models(h0, h1):
    return sum(2048 - (0 if hm >= 32 else 512) for hm in range(h0, h1))


@pytest.mark.parametrize("workers", [1, 2, 3, 4, 5, 6, 7, 8])
def test_job_plan_one_job_per_quadric_kind_and_balanced_hyp(workers):
    jobs = census._census_jobs(census.KINDS, workers, None)
    quadric = [job for job in jobs if job[0] != "hyp"]
    assert quadric == [("cone", 0, 1 << 16, None), ("ns", 0, 1 << 16, None)]
    assert jobs[:2] == quadric  # the largest jobs go first
    ranges = [(h0, h1) for kind, h0, h1, _ in jobs if kind == "hyp"]
    assert len(ranges) == workers
    assert ranges[0][0] == 1 and ranges[-1][1] == 64
    assert all(a[1] == b[0] and a[0] < a[1] for a, b in zip(ranges, ranges[1:]))
    sizes = [_hyp_models(h0, h1) for h0, h1 in ranges]
    assert sum(sizes) == 113152
    assert max(sizes) - min(sizes) <= 2048, sizes


def test_job_plan_cuts_hyp_at_most_once_per_h():
    assert census._hyp_ranges(100) == [(hm, hm + 1) for hm in range(1, 64)]
    assert census._census_jobs(["ns"], 4, None) == [("ns", 0, 1 << 16, None)]


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


def test_hyp_workers_byte_identity():
    one = run_census(kinds="hyp", workers=1)
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
    return records + [smooth._replace(id="ns;c=0xfffe", aut=6, jacobian_aut=12),
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
    assert back == records
    first_of_key = {}
    for rec in back:
        first = first_of_key.setdefault(rec[1:], rec)
        assert rec.counts is first.counts and rec.weil is first.weil
    assert len(first_of_key) < len([r for r in back if r.smooth])


@pytest.mark.parametrize("cid", ['hyp;"x"', "hyp;\\x", "hyp;\tx", "hyp;\u00e9", "", 7])
def test_write_records_refuses_id_outside_the_rule(tmp_path, cid):
    path = tmp_path / "records.jsonl"
    records = _h1_subset()[:3]
    write_records(path, records)
    before = path.read_bytes()
    with pytest.raises(ValueError, match=r"record id .* is not printable ASCII"):
        write_records(path, records[:2] + [records[2]._replace(id=cid)])
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
                yield base._replace(id=f"x{i:02d}", slopes=(values[i % 3], values[i % 2]))

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
    write_records(path, [rec, rec._replace(id="ns;c=0x1d_0c")])
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
    rep = verify_propositions(records + [fake])
    assert not rep.ok and "ns;c=0xdead" in rep.failures
    assert any(line.startswith("FAIL") and "[4,3]" in line for line in rep.lines)

    fake = _fake_smooth("hyp;h=0x3f;f=0x7ff", "hyp", eo_mu=(4, 1), stratum="N14",
                        slopes=(Fraction(1, 4),) * 4 + (Fraction(3, 4),) * 4)
    rep = verify_propositions(records + [fake])
    assert not rep.ok and "hyp;h=0x3f;f=0x7ff" in rep.failures

    fake = _fake_smooth("ns;c=0xfeed", "ns", a_number=3, eo_candidates=((4, 2, 1),), eo_mu=None)
    rep = verify_propositions(records + [fake])
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

"""Command-line interface tests, driving cli.main in process."""

import json

import pytest

from genus4census import census
from genus4census.census import CensusRecord, write_records
from genus4census.cli import _poly_str, main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------


def test_zeta_supersingular_example(capsys):
    rc, out, _ = run_cli(capsys, "zeta", "--counts", "7,9,13,9")
    assert rc == 0
    assert json.loads(out) == {
        "weil": ["16", "32", "40", "40", "32", "20", "10", "4", "1"],
        "weil_str": "t^8 + 4*t^7 + 10*t^6 + 20*t^5 + 32*t^4 + 40*t^3 + 40*t^2 + 32*t + 16",
        "slopes": ["1/2"] * 8,
        "p_rank": 0,
        "stratum": "S4",
    }


def test_zeta_strata_trio(capsys):
    for counts, stratum in [("7,9,13,9", "S4"), ("5,9,11,17", "N13"), ("3,5,9,9", "N14")]:
        rc, out, _ = run_cli(capsys, "zeta", "--counts", counts)
        assert rc == 0 and json.loads(out)["stratum"] == stratum


def test_zeta_impossible_counts(capsys):
    rc, _, err = run_cli(capsys, "zeta", "--counts", "40,2,2,2")
    assert rc == 2 and "error:" in err and "Weil bound" in err


def test_poly_str_edge_cases():
    assert _poly_str((16, -16, 8, 0, -4, 0, 2, -2, 1)) == \
        "t^8 - 2*t^7 + 2*t^6 - 4*t^4 + 8*t^2 - 16*t + 16"
    assert _poly_str((0, 1)) == "t"
    assert _poly_str((0,)) == "0"
    assert _poly_str((-3,)) == "-3"


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_smooth_curve(capsys):
    rc, out, _ = run_cli(capsys, "classify", "--curve", "ns;c=0x1d0c")
    assert rc == 0
    rec = json.loads(out)
    assert rec["smooth"] is True
    assert rec["counts"] == ["7", "9", "13", "9"]
    assert rec["stratum"] == "S4" and rec["a_number"] == 1
    assert rec["eo_mu"] == [4]


def test_classify_singular_curve(capsys):
    rc, out, _ = run_cli(capsys, "classify", "--curve", "ns;c=0x0000")
    assert rc == 0
    rec = json.loads(out)
    assert rec == {"id": "ns;c=0x0000", "kind": "ns", "smooth": False,
                   "note": "rational singular point over F_2"}


def test_classify_bad_id(capsys):
    rc, _, err = run_cli(capsys, "classify", "--curve", "ns;c=0xmuch")
    assert rc == 2 and "error:" in err


# ---------------------------------------------------------------------------
# hasse-witt
# ---------------------------------------------------------------------------


def test_hasse_witt_example(capsys):
    rc, out, _ = run_cli(capsys, "hasse-witt", "--curve", "ns;c=0x1d0c")
    assert rc == 0
    assert json.loads(out) == {
        "cartier": [[0, 1, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 1, 0]],
        "hasse_witt": [[0, 1, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 1, 0]],
        "rank": 3,
        "a_number": 1,
        "two_rank": 0,
        "type43": False,
    }


def test_hasse_witt_positive_two_rank_leaves_type43_open(capsys):
    rc, out, _ = run_cli(capsys, "hasse-witt", "--curve", "hyp;h=0x06;f=0x200")
    assert rc == 0
    rec = json.loads(out)
    assert rec["two_rank"] == 2 and rec["type43"] is None


def test_hasse_witt_cone_refused(capsys):
    rc, _, err = run_cli(capsys, "hasse-witt", "--curve", "cone;c=0x4208")
    assert rc == 2 and "cone" in err


# ---------------------------------------------------------------------------
# dieudonne
# ---------------------------------------------------------------------------


def test_dieudonne_labels(capsys):
    rc, out, _ = run_cli(capsys, "dieudonne", "--mu", "4,1")
    assert rc == 0
    assert json.loads(out) == {"mu": [4, 1], "final_type": [0, 1, 2, 2],
                               "p_rank": 0, "a_number": 2, "codim": 5}
    rc, out, _ = run_cli(capsys, "dieudonne", "--mu", "4,3,2,1")
    assert rc == 0
    assert json.loads(out) == {"mu": [4, 3, 2, 1], "final_type": [0, 0, 0, 0],
                               "p_rank": 0, "a_number": 4, "codim": 10}


def test_dieudonne_bad_mu(capsys):
    rc, _, err = run_cli(capsys, "dieudonne", "--mu", "1,4")
    assert rc == 2 and "error:" in err


# ---------------------------------------------------------------------------
# census / stack-count / verify / discrepancy, end to end on one kind
# ---------------------------------------------------------------------------


def test_hyp_census_pipeline(capsys, tmp_path):
    out_path = str(tmp_path / "hyp.jsonl")
    rc, out, _ = run_cli(capsys, "census", "--kind", "hyp", "--workers", "2",
                         "--out", out_path)
    assert rc == 0
    assert "hyp: 113152 models, 49152 smooth" in out
    assert f"wrote 113152 records to {out_path}" in out

    rc, out, _ = run_cli(capsys, "stack-count", "--records", out_path,
                         "--weil", "16,16,8,0,-4,0,2,2,1")
    assert rc == 0
    assert json.loads(out) == {
        "weil": ["16", "16", "8", "0", "-4", "0", "2", "2", "1"],
        "members": 96,
        "iso_reps": ["hyp;h=0x01;f=0x220"],
        "jacobian_auts": [4],
        "stack_count": "1/4",
        "abelian_side": "7/4",
    }

    rc, out, _ = run_cli(capsys, "verify", "--records", out_path)
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4 and all(line.startswith("PASS") for line in lines)

    rc, out, _ = run_cli(capsys, "discrepancy", "--records", out_path)
    assert rc == 0
    assert "curve-side stack count:   1/4" in out
    assert "abelian-side stack count: 7/4" in out
    assert "1/4 != 7/4" in out

    # the twist class reaches the same curve-side and abelian-side counts
    rc, out, _ = run_cli(capsys, "discrepancy", "--records", out_path,
                         "--weil", "16,-16,8,0,-4,0,2,-2,1")
    assert rc == 0 and "1/4 != 7/4" in out


def test_verify_reports_failure_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.jsonl"
    fake = CensusRecord(id="ns;c=0xdead", kind="ns", smooth=True,
                        counts=(7, 9, 13, 9), weil=(16, 32, 40, 40, 32, 20, 10, 4, 1),
                        stratum="S4", p_rank=0, a_number=2, two_rank=0,
                        type43=True, eo_mu=(4, 3))
    write_records(path, [fake])
    rc, out, _ = run_cli(capsys, "verify", "--records", str(path))
    assert rc == 1
    assert any(line.startswith("FAIL") and "ns;c=0xdead" in line
               for line in out.splitlines())


def test_verify_refuses_truncated_file(capsys, tmp_path):
    path = tmp_path / "cut.jsonl"
    records = census.run_census(kinds="hyp",
                                id_filter=lambda cid: cid.startswith("hyp;h=0x01;f=0x2"))
    write_records(path, records)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    rc, out, err = run_cli(capsys, "verify", "--records", str(path))
    assert rc == 2 and "PASS" not in out
    assert f"header promises {len(records)} records, the body has {len(records) - 1}" in err


def test_verify_refuses_header_that_is_not_an_object(capsys, tmp_path):
    path = tmp_path / "list.jsonl"
    path.write_text("[]\n")
    rc, out, err = run_cli(capsys, "verify", "--records", str(path))
    assert rc == 2 and "PASS" not in out
    assert "list.jsonl: line 1: header is not a JSON object" in err


def test_stack_count_refuses_second_spelling_of_an_id(capsys, tmp_path):
    # one model under its own id and under a second spelling int() accepts:
    # counted as two orbits, it would halve the class's stack count
    path = tmp_path / "twice.jsonl"
    rec = census.classify_model(census.parse_curve_id("ns;c=0x1d0c"))
    write_records(path, [rec, rec._replace(id="ns;c=0x1d_0c")])
    rc, out, err = run_cli(capsys, "stack-count", "--records", str(path),
                           "--weil", "16,32,40,40,32,20,10,4,1")
    assert rc == 2 and out == ""
    assert "ns;c=0x1d_0c" in err


def test_verify_refuses_second_spelling_of_an_id(capsys, tmp_path):
    path = tmp_path / "twice.jsonl"
    rec = census.classify_model(census.parse_curve_id("ns;c=0x1d0c"))
    write_records(path, [rec, rec._replace(id="ns;c=0x1d_0c")])
    rc, out, err = run_cli(capsys, "verify", "--records", str(path))
    assert rc == 2 and "PASS" not in out
    assert "twice.jsonl: line 3: malformed record" in err and "ns;c=0x1d_0c" in err


def test_missing_records_file(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "stack-count", "--records", str(tmp_path / "nope.jsonl"),
                         "--weil", "16,16,8,0,-4,0,2,2,1")
    assert rc == 2 and "error:" in err


def test_discrepancy_without_published_value(capsys, tmp_path):
    out_path = str(tmp_path / "mini.jsonl")
    records = census.run_census(kinds="hyp",
                                id_filter=lambda cid: cid.startswith("hyp;h=0x01;f=0x2"))
    write_records(out_path, records)
    rc, _, err = run_cli(capsys, "discrepancy", "--records", out_path,
                         "--weil", "16,16,16,12,9,6,4,2,1")
    assert rc == 2 and "no published abelian-side count" in err


# ---------------------------------------------------------------------------
# usage errors (argparse exits with SystemExit(2))
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["census", "--kind", "elliptic", "--out", "x.jsonl"],
    ["census"],
    ["zeta", "--counts", "a,b,c"],
    ["dieudonne"],
    ["frobenius"],
    [],
])
def test_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2

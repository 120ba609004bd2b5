"""Command-line interface tests, driving cli.main in process."""

import argparse
import contextlib
import errno
import json
import os
from collections import Counter

import pytest

from genus4census import census
from genus4census.census import CensusRecord, write_records
from genus4census.cli import _COMMANDS, _build_parser, _poly_str, main
from genus4census.curves import is_smooth, parse_curve_id

from oracles import index_entries, reseal, with_index_entry


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
    rc, out, _ = run_cli(capsys, "hasse-witt", "--curve", "hyp;h=0x06;f=0x201")
    assert rc == 0
    rec = json.loads(out)
    assert rec["two_rank"] == 2 and rec["type43"] is None


def test_hasse_witt_refuses_singular_models(capsys):
    # a Cartier matrix of a singular model says nothing about a curve
    for cid in ("ns;c=0x0000", "hyp;h=0x06;f=0x200"):
        note = is_smooth(parse_curve_id(cid)).note
        rc, out, err = run_cli(capsys, "hasse-witt", "--curve", cid)
        assert rc == 2 and out == ""
        assert cid in err and note in err


def test_hasse_witt_cone_accepted(capsys):
    rc, out, _ = run_cli(capsys, "hasse-witt", "--curve", "cone;c=0x4208")
    assert rc == 0
    rec = json.loads(out)
    assert (rec["a_number"], rec["two_rank"], rec["type43"]) == (2, 0, False)


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


def test_verify_counts_violations_per_model(capsys, tmp_path):
    # the smooth ns row that the most models share, edited to meet the
    # [4,3] criterion: the FAIL line counts and names its models, as a
    # reference over the file's rows and index line does
    path = tmp_path / "edited.jsonl"
    write_records(path, census.run_census(kinds="ns"))
    lines = path.read_text().splitlines(keepends=True)
    entries = index_entries(lines[-1])
    carriers = Counter(r for r in entries if '"smooth":true' in lines[r + 1] and '"type43":false' in lines[r + 1])
    row, models = carriers.most_common(1)[0]
    assert models > 8
    lines[row + 1] = lines[row + 1].replace('"type43":false', '"type43":true')
    path.write_text("".join(lines))
    reseal(path)

    rows = [census.record_from_json(line.replace("{", '{"id":"",', 1)) for line in lines[1:-1]]
    bad = [f"ns;c=0x{m:04x}" for m, r in enumerate(entries) if rows[r].smooth and rows[r].type43]
    assert len(bad) == models
    rc, out, _ = run_cli(capsys, "verify", "--records", str(path))
    assert rc == 1
    want = (f"FAIL: no smooth ns model meets the [4,3] criterion "
            f"({len(bad)} violations: {', '.join(bad[:8])}, ...)")
    assert out.splitlines()[0] == want


def test_verify_refuses_truncated_file(capsys, tmp_path):
    path = tmp_path / "cut.jsonl"
    records = census.run_census(kinds="hyp",
                                id_filter=lambda cid: cid.startswith("hyp;h=0x01;f=0x2"))
    write_records(path, records)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    rc, out, err = run_cli(capsys, "verify", "--records", str(path))
    assert rc == 2 and "PASS" not in out
    rows = len(records.rows)
    assert f"cut.jsonl: line {rows + 2}: missing; the header promises {rows} rows and 1 index lines" in err
    # cut inside the index line
    path.write_text("".join(lines)[:-100])
    rc, out, err = run_cli(capsys, "verify", "--records", str(path))
    assert rc == 2 and "PASS" not in out
    assert f"cut.jsonl: line {rows + 2}: malformed index line of kind 'hyp'" in err


def test_verify_refuses_header_that_is_not_an_object(capsys, tmp_path):
    path = tmp_path / "list.jsonl"
    path.write_text("[]\n")
    rc, out, err = run_cli(capsys, "verify", "--records", str(path))
    assert rc == 2 and "PASS" not in out
    assert "list.jsonl: line 1: header is not a JSON object" in err


@pytest.mark.parametrize("old, new, why", [
    ('"kind":"cone"', '"kind":"hyp"', "edited.jsonl: line 2: kind 'hyp' contradicts id 'cone;c=0x4208'"),
    ('"smooth":true', '"smooth":1', "edited.jsonl: line 2: malformed record"),
    ('"counts":["3","5","9","9"]', '"counts":"3599"', "edited.jsonl: line 2: malformed record"),
], ids=["kind-hyp", "smooth-1", "counts-string"])
def test_verify_refuses_field_the_writer_never_writes(capsys, tmp_path, old, new, why):
    path = tmp_path / "edited.jsonl"
    write_records(path, [census.classify_model(census.parse_curve_id("cone;c=0x4208"))])
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    rc, out, err = run_cli(capsys, "verify", "--records", str(path))
    assert rc == 2 and "PASS" not in out
    assert why in err


def _twice(tmp_path):
    """A file whose model ns;c=0x1d0d reads its row from a second line that
    spells the row of ns;c=0x1d0c another way, resealed."""
    path = tmp_path / "twice.jsonl"
    rec = census.classify_model(census.parse_curve_id("ns;c=0x1d0c"))
    write_records(path, [rec, rec._replace(id="ns;c=0x1d0d")])
    header, row, index = path.read_text().splitlines(keepends=True)
    again = row.replace('"kind":"ns"', '"kind":"n\\u0073"')
    path.write_text(header.replace('"rows":1', '"rows":2') + row + again + with_index_entry(index, 0x1d0d, 1))
    reseal(path)
    return path


def test_stack_count_refuses_second_spelling_of_an_id(capsys, tmp_path):
    # ids are never spelled in the file, so a model is read under one id;
    # a row read as two would count one isomorphism class twice
    rc, out, err = run_cli(capsys, "stack-count", "--records", str(_twice(tmp_path)),
                           "--weil", "16,32,40,40,32,20,10,4,1")
    assert rc == 2 and out == ""
    assert "twice.jsonl: line 3: repeats the row of line 2, the row of 'ns;c=0x1d0d'" in err


def test_verify_refuses_second_spelling_of_an_id(capsys, tmp_path):
    rc, out, err = run_cli(capsys, "verify", "--records", str(_twice(tmp_path)))
    assert rc == 2 and "PASS" not in out
    assert "twice.jsonl: line 3: repeats the row of line 2, the row of 'ns;c=0x1d0d'" in err


def test_verify_fails_a_smooth_row_without_a_number(capsys, tmp_path):
    # a hand-edited row with no a-number fails the a-number line, naming
    # its model, instead of passing it by
    path = tmp_path / "edited.jsonl"
    write_records(path, [census.classify_model(census.parse_curve_id("cone;c=0x4208"))])
    text = path.read_text()
    assert '"a_number":2,' in text
    path.write_text(text.replace('"a_number":2,', "", 1))
    reseal(path)
    rc, out, err = run_cli(capsys, "verify", "--records", str(path))
    assert rc == 1 and err == ""
    assert out.splitlines()[2] == "FAIL: no smooth model has a-number >= 3 (1 violations: cone;c=0x4208)"


def test_missing_records_file(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "stack-count", "--records", str(tmp_path / "nope.jsonl"),
                         "--weil", "16,16,8,0,-4,0,2,2,1")
    assert rc == 2 and "error:" in err


def test_census_out_into_missing_directory(capsys, tmp_path, monkeypatch):
    # refused before the census runs, naming the path given rather than a
    # temporary file beside it
    monkeypatch.setattr(census, "run_census", lambda *args, **kw: pytest.fail("the census ran"))
    path = str(tmp_path / "missing" / "x.jsonl")
    rc, out, err = run_cli(capsys, "census", "--kind", "ns", "--out", path)
    assert rc == 2 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: {path!r}\n"


def test_write_records_failed_open_names_the_path(tmp_path):
    path = str(tmp_path / "missing" / "x.jsonl")
    with pytest.raises(FileNotFoundError) as exc:
        write_records(path, [])
    assert str(exc.value) == f"[Errno 2] No such file or directory: {path!r}"


def test_census_out_naming_an_existing_directory(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(census, "run_census", lambda *args, **kw: pytest.fail("the census ran"))
    path = str(tmp_path)
    rc, out, err = run_cli(capsys, "census", "--kind", "ns", "--out", path)
    assert rc == 2 and out == ""
    assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {path!r}\n"


def test_write_records_failed_rename_names_the_path(tmp_path):
    path = tmp_path / "dir"
    path.mkdir()
    with pytest.raises(OSError) as exc:
        write_records(str(path), [])
    assert exc.value.filename == str(path) and exc.value.filename2 is None
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]  # no temporary file left


def _mini_records(tmp_path) -> str:
    out_path = str(tmp_path / "mini.jsonl")
    records = census.run_census(kinds="hyp",
                                id_filter=lambda cid: cid.startswith("hyp;h=0x01;f=0x2"))
    write_records(out_path, records)
    return out_path


def test_stack_count_refuses_weil_key_of_wrong_shape(capsys, tmp_path):
    # 8 coefficients (class h's key with its constant term cut) once gave an
    # empty report and exit 0; a valid key no model attains still does
    out_path = _mini_records(tmp_path)
    rc, out, err = run_cli(capsys, "stack-count", "--records", out_path,
                           "--weil", "16,16,8,4,4,2,2,2")
    assert rc == 2 and out == ""
    assert "Weil key (16, 16, 8, 4, 4, 2, 2, 2) is not a genus-4 Weil polynomial" in err
    # a Weil polynomial of genus 3, which zeta.WeilPolynomial accepts
    rc, out, err = run_cli(capsys, "stack-count", "--records", out_path,
                           "--weil", "8,0,0,0,0,0,1")
    assert rc == 2 and out == ""
    assert "Weil key (8, 0, 0, 0, 0, 0, 1) is not a genus-4 Weil polynomial" in err
    rc, out, _ = run_cli(capsys, "stack-count", "--records", out_path,
                         "--weil", "16,16,16,12,9,6,4,2,1")
    assert rc == 0 and json.loads(out)["members"] == 0


def test_discrepancy_refuses_weil_key_failing_functional_equation(capsys, tmp_path):
    out_path = _mini_records(tmp_path)
    rc, out, err = run_cli(capsys, "discrepancy", "--records", out_path,
                           "--weil", "16,16,8,0,-4,0,2,3,1")
    assert rc == 2 and out == ""
    assert "Weil key (16, 16, 8, 0, -4, 0, 2, 3, 1) is not a genus-4 Weil polynomial" in err
    assert "functional equation" in err


@pytest.mark.parametrize("command", ["stack-count", "discrepancy"])
def test_bad_weil_key_refused_before_the_records_file_is_read(capsys, tmp_path, command):
    # the key is checked first, so a bad key with a missing file fails
    # naming the key, not the file
    rc, out, err = run_cli(capsys, command, "--records", str(tmp_path / "missing.jsonl"),
                           "--weil", "16,16,8,4,4,2,2,2")
    assert rc == 2 and out == ""
    assert "Weil key (16, 16, 8, 4, 4, 2, 2, 2) is not a genus-4 Weil polynomial" in err
    assert "missing.jsonl" not in err


def test_discrepancy_without_published_value(capsys, tmp_path):
    out_path = _mini_records(tmp_path)
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


def _exit_output(capsys, parse, argv):
    """(exit code, stdout, stderr) of parse(argv), which exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_help_lists_every_command(capsys):
    code, out, _ = _exit_output(capsys, main, ["--help"])
    assert code == 0
    assert list(_COMMANDS) == ["census", "classify", "zeta", "hasse-witt", "dieudonne", "stack-count", "verify",
                               "discrepancy"]
    for name, (text, _, _) in _COMMANDS.items():
        assert f"    {name}" in out and text in out, name


@pytest.mark.parametrize("argv", [[name, "-h"] for name in _COMMANDS] + [
    ["census", "--kind", "elliptic", "--out", "x.jsonl"],
    ["verify"],
    ["verify", "--records", "x.jsonl", "extra"],
    ["stack-count", "--records", "x.jsonl", "--weil", "1,a"],
])
def test_command_parser_reads_as_the_parser_of_every_command(capsys, argv):
    # help, usage and errors of a command are those of the parser built
    # with every command, whose choices its usage line names
    assert _exit_output(capsys, main, argv) == _exit_output(capsys, _build_parser().parse_args, argv)


@pytest.mark.parametrize("argv, built", [
    (["zeta", "--counts", "7,9,13,9"], ["zeta"]),
    (["dieudonne", "--mu", "4,1"], ["dieudonne"]),
    (["frobenius"], list(_COMMANDS)),
])
def test_a_known_command_builds_only_its_own_parser(capsys, monkeypatch, argv, built):
    names, add_parser = [], argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: names.append(name) or add_parser(self, name, **kw))
    with contextlib.suppress(SystemExit):
        main(argv)
    assert names == built

"""Command-line entry point (installed as ``genus4census``).

Subcommands::

    census      --kind cone|hyp|ns|all --out records.jsonl [--workers N]
    classify    --curve <id>
    zeta        --counts N1,N2,N3,N4 [--q 2]
    hasse-witt  --curve <id>
    dieudonne   --mu 4,1
    stack-count --weil c0,...,c8 --records records.jsonl
    verify      --records records.jsonl
    discrepancy --records records.jsonl [--weil c0,...,c8]

All numeric output is exact (integers and fractions as strings).  Exit codes:
0 success, 1 failed assertion or internal inconsistency, 2 usage error
(including hasse-witt on a singular model).
"""

import argparse
import errno
import json
import os
import sys
from collections import Counter

from . import cartier, census
from .curves import is_smooth, parse_curve_id
from .dieudonne import EoLabel, young_to_final
from .zeta import classify_stratum, newton_polygon, weil_from_counts


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _poly_str(coeffs) -> str:
    """Human-readable polynomial from ascending coefficients."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            mono = str(abs(c))
        else:
            head = "" if abs(c) == 1 else f"{abs(c)}*"
            mono = f"{head}t" if i == 1 else f"{head}t^{i}"
        terms.append(("- " if c < 0 else "+ ") + mono)
    if not terms:
        return "0"
    first = terms[0][2:] if terms[0].startswith("+ ") else "-" + terms[0][2:]
    return " ".join([first] + terms[1:])


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(", ", ": ")))


def _cmd_census(args) -> int:
    # refused before the census runs, as write_records would refuse it after
    if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    if os.path.isdir(args.out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
    kinds = census.KINDS if args.kind == "all" else (args.kind,)
    records = census.run_census(kinds=kinds, workers=args.workers)
    census.write_records(args.out, records)
    tally = Counter()
    for rec, models in zip(records.row_records(), records.row_sizes()):
        tally[rec.kind, rec.smooth] += models
    for kind in kinds:
        print(f"{kind}: {tally[kind, False] + tally[kind, True]} models, {tally[kind, True]} smooth")
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_classify(args) -> int:
    rec = census.classify_model(parse_curve_id(args.curve))
    print(census.record_to_json(rec))
    return 0


def _cmd_zeta(args) -> int:
    w = weil_from_counts(args.counts, args.q)
    poly = newton_polygon(w)
    _emit({
        "weil": [str(c) for c in w.coeffs],
        "weil_str": _poly_str(w.coeffs),
        "slopes": [str(s) for s in poly.slopes],
        "p_rank": poly.p_rank,
        "stratum": classify_stratum(poly).name,
    })
    return 0


def _cmd_hasse_witt(args) -> int:
    curve = parse_curve_id(args.curve)
    res = is_smooth(curve)
    if not res.smooth:
        raise ValueError(f"{curve.curve_id} is singular ({res.note}); "
                         "the Cartier matrix is defined for smooth models only")
    op = cartier.cartier_operator(curve)
    a, s2, t43 = cartier.invariants(op)
    _emit({
        "cartier": [list(row) for row in op.rows],
        "hasse_witt": [list(row) for row in cartier.hasse_witt_rows(op)],
        "rank": op.rank,
        "a_number": a,
        "two_rank": s2,
        "type43": t43,
    })
    return 0


def _cmd_dieudonne(args) -> int:
    label = EoLabel(args.mu)
    _emit({
        "mu": list(label.mu),
        "final_type": list(young_to_final(label.mu)),
        "p_rank": label.p_rank,
        "a_number": label.a_number,
        "codim": label.codim,
    })
    return 0


def _cmd_stack_count(args) -> int:
    weil = census._weil_key(args.weil)
    report = census.group_isogeny_classes(census.read_records(args.records), [weil])[0]
    _emit({
        "weil": [str(c) for c in report.weil],
        "members": len(report.member_ids),
        "iso_reps": list(report.iso_rep_ids),
        "jacobian_auts": list(report.jacobian_auts),
        "stack_count": str(report.stack_count),
        "abelian_side": None if report.abelian_side is None else str(report.abelian_side),
    })
    return 0


def _cmd_verify(args) -> int:
    report = census.verify_propositions(census.read_records(args.records))
    for line in report.lines:
        print(line)
    return 0 if report.ok else 1


def _cmd_discrepancy(args) -> int:
    weil = census._weil_key(args.weil)
    report = census.group_isogeny_classes(census.read_records(args.records), [weil])[0]
    print(census.discrepancy_report(report))
    return 0


# each command: its help, its handler and its arguments, as (flag, add_argument keywords)
_COMMANDS = {
    "census": ("run the exhaustive model census", _cmd_census, (
        ("--kind", dict(choices=(*census.KINDS, "all"), default="all")),
        ("--out", dict(required=True, help="output JSONL path")),
        ("--workers", dict(type=int, default=1)))),
    "classify": ("classify a single model by curve id", _cmd_classify, (
        ("--curve", dict(required=True, help="curve id, e.g. 'ns;c=0x1d0c'")),)),
    "zeta": ("Weil polynomial and Newton data from counts", _cmd_zeta, (
        ("--counts", dict(type=_ints, required=True, help="N_1,N_2,N_3,N_4")),
        ("--q", dict(type=int, default=2)))),
    "hasse-witt": ("Cartier/Hasse-Witt matrix of a model", _cmd_hasse_witt, (
        ("--curve", dict(required=True)),)),
    "dieudonne": ("data of one Ekedahl-Oort Young type", _cmd_dieudonne, (
        ("--mu", dict(type=_ints, required=True, help="e.g. 4,1")),)),
    "stack-count": ("stack count of one isogeny class", _cmd_stack_count, (
        ("--weil", dict(type=_ints, required=True, help="ascending Weil coefficients c0,...,c8")),
        ("--records", dict(required=True, help="census JSONL path")))),
    "verify": ("check the census-wide assertions", _cmd_verify, (
        ("--records", dict(required=True)),)),
    "discrepancy": ("curve-side vs published abelian-side stack count", _cmd_discrepancy, (
        ("--records", dict(required=True)),
        ("--weil", dict(type=_ints, default=census.CLASS_H_WEIL)))),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of command alone: its usage, help and
    errors read as in the parser of every command, whose choices it names
    in its metavar."""
    parser = argparse.ArgumentParser(prog="genus4census",
                                     description="genus-4 curve invariants over F_2")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name, (text, func, arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=text)
            for flag, kwargs in arguments:
                p.add_argument(flag, **kwargs)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a query builds only its own command's parser; no command, or an
    # unknown one, gets the parser of every command for its help or error
    args = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

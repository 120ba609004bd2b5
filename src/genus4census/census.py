"""Exhaustive census of genus-4 curve models over F_2: every model of the
domain of each kind in kinds, all 2^16 cubic masks of ns and of the cone
and the 113152 hyp models (h, f) of the genus-4 shape.

Every model gets one CensusRecord, keyed by its curve id.  Singular models
carry only a diagnostic note; smooth models carry counts N_1..N_4, the Weil
polynomial, Newton slopes, the stratum label, p-rank, a-number, 2-rank, the
[4,3]-criterion flag and the Ekedahl-Oort classification where the p-rank-0
table applies.  Internal cross-checks (count/Weil round trip, 2-rank against
the zero-slope count, the branch-point count for hyperelliptic models) abort
the run with the offending curve id rather than emit a bad record.

Fast paths, each validated against the generic engines in the test suite:

* quadric counting runs the quadric scan of curves (_quadric_scan): each of
  the 2^16 masks is the XOR of two byte tables (gfarith.xor_table) of
  packed words, one uint32 per Frobenius orbit of quadric points over
  F_2..F_16 holding the monomial value and the six Jacobian 2x2 minors as
  nibbles, in numpy blocks; a zero word is exactly a rational singular
  point, a zero low nibble an orbit on the curve, and N_n adds d times the
  on-curve orbits of each degree d | n.  The tables are built by numpy for
  the orbits' first points of a field at once;
* the masks without one are decided once per orbit of the quadric's
  stabilizer: image tables (_quadric_images) give each mask its orbit's
  least mask.  numpy builds them for all elements at once, each a 16-bit
  matrix whose rows are linear forms, by gathering F_2 bitset products
  from a form x form and a quadric monomial x form table.  That
  representative's scan flag is read from the kind's one scan of all 2^16
  masks, and its smoothness (_quadric_smooth_f2: gcds of packed
  u-polynomials on one chart, no factorization) and Cartier data are
  computed once per process and broadcast to the members; counts are read
  per mask and must equal the representative's, an isomorphism invariant
  checked on every open mask.  classify_model and is_smooth decide the
  model itself, and classify_model ranks the model's own Cartier
  operator (cartier.invariants), a second route to the same records;
* the Cartier matrix is F_2-linear in the bits of a quadric mask and of h,
  so an orbit representative's Cartier data (_ns_cartier) is read from its
  Cartier word, the XOR of 16 basis words (cartier.quadric_cartier_word),
  and an h's (_hyp_cartier) from the XOR of 6 (cartier.hyp_cartier_word);
  cartier.word_invariants ranks each distinct word once, as F_2 bit
  images: C^2 and C^4 composed by gfarith.xor_apply and ranked by
  gfarith.f2_rref, C^2 computed once for the 2-rank and the [4,3] test;
* hyperelliptic counting uses that Tr(f(x)/h(x)^2) is F_2-linear in the
  coefficient bits of f, so one 11-bit functional per (h, x) gives the counts
  of all f at once: one gather of parity(f & l) over the functionals of
  all four degrees per h, for the kept f only.  The functionals of all h
  are one numpy pass per field degree over the (h, x) array, whose h(x)
  is one gfarith.xor_table of the powers of x (_hyp_count_tables);
* hyperelliptic smoothness is decided for all (h, f) in one numpy pass:
  f'^2 + f h'^2 is F_2-linear in the bits of f, so its residue mod h is an
  XOR of 11 column residues, read from xor_table tables over the low and
  the high bits of f, and a common-root table of every h against every
  residue decides it; the check at infinity is a bit test.  The result is a code
  per (h, f) (_hyp_smooth_table), and a note is built only per singular row;
* a stack count reads each isomorphism orbit from packed F_2-linear image
  tables (_isomorphism_orbit);
* the zeta fields of a job's smooth rows come from one array pass
  (_smooth_rows): zeta.weil_rows_f2 runs the Newton identities and every
  check of weil_from_counts, the count round trip included, on int64
  columns of all rows, and the Newton polygon and stratum are built once per
  valuation pattern of the Weil polynomials, memoised on it;
* the field arithmetic under all of these (gfarith.FieldSpec) reads
  log/antilog tables.

A census result is a CensusTable, 679 distinct rows for the 244,224 models
of the whole census.  The model space is the kinds' domains in id order,
spelled from the heads and tails of each kind's description.  run_census
cuts it into jobs by cost (_census_jobs); a job calls id_filter once per
id, in id order (_kept), and returns a row table (_row_table), and the
census process merges the tables, running a share of the jobs itself
beside a pool of N - 1 processes (_shared_jobs).  No record is built.

Persistence stores the table itself, as JSON lines of schema
g4c2-census/2: a header with the schema, the number of kept models of each
kind ("records"), the row count and the SHA-256 of the body; one line per
row, in the order of each row's first member, record_to_json of the row
without its id (_row_json spells it field by field); and one index line
per kind with kept models, {"kind":"<kind>","rows":"<hex>"} spelled
exactly so, the row of every model of the kind's domain in id order as
four hex digits, ffff for a model that id_filter dropped.  read_records
takes the index lines from the file's bytes, the hex straight to numpy,
and parses only the header and the row lines as JSON: each row line on
its own, by one decoder whose object hook builds the row from the pairs
(_row_object), checking each layout of keys and value types once
(_row_plan).  Output is byte-identical for any worker count.  No id is
written or read, so none is read twice.
"""

import binascii
import json
import operator
import os
import re
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, count, repeat
from operator import add
from typing import NamedTuple

import numpy as np

from . import cartier
from ._value import Value, setfield
from .cartier import cartier_operator
from .curves import (
    HyperellipticCurve,
    QuadricCubicCurve,
    _HYP_AFFINE_NOTE,
    _HYP_INFINITY_NOTE,
    _hyp_images,
    _quadric_images,
    _quadric_scan,
    _quadric_smooth_f2,
    _quadric_tables,
    _scan_singular,
    # unused here since the orbit walks read _quadric_images and _hyp_images;
    # kept bound because the benchmark's traced run wraps apply_transform,
    # hyperelliptic_transformed and quadric_stabilizer_f2 in this module by
    # name, which tests/test_surface.py checks
    apply_transform,  # noqa: F401
    count_points,
    hyperelliptic_transformed,  # noqa: F401
    is_smooth,
    jacobian_aut_order,
    parse_curve_id,
    quadric_curve_from_mask,
    quadric_stabilizer_f2,  # noqa: F401
)
from .dieudonne import EoLabel, eo_classify_curve
from .gfarith import F2X, _squarefree_decomposition, field, gf2x_degree, xor_table
from .kinds import DESCRIPTIONS
from .zeta import GENUS, WEIL_ROW_FAILURES, WeilPolynomial, _newton_polygon, classify_stratum, weil_rows_f2
# unused here since _smooth_rows checks all rows of a job in one array pass;
# kept bound because the benchmark's traced run wraps them in this module by
# name, which tests/test_surface.py checks
from .zeta import newton_polygon, predicted_counts, weil_from_counts  # noqa: F401

SCHEMA = "g4c2-census/2"
# the kinds in id order, as an id begins with its kind's name and ";"
KINDS = tuple(sorted(DESCRIPTIONS))
_DEGREES = (1, 2, 3, 4)

# the two supersingular isogeny classes singled out for the stack-count
# comparison: y^2 + y = x^9 + x^5 and its twist y^2 + y = x^9 + x^5 + 1
CLASS_H_WEIL = (16, 16, 8, 0, -4, 0, 2, 2, 1)
CLASS_H_TWIST_WEIL = (16, -16, 8, 0, -4, 0, 2, -2, 1)

# published abelian-variety-side stack counts for those two classes; stored
# constants for the discrepancy report, never computed here
ABELIAN_SIDE_COUNTS = {
    CLASS_H_WEIL: Fraction(7, 4),
    CLASS_H_TWIST_WEIL: Fraction(7, 4),
}


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


class CensusRecord(NamedTuple):
    """Everything the census knows about one curve model over F_2.

    Invariant fields are None when not computed: all of them for singular
    models, type43 and the EO fields outside p-rank 0.  aut and
    jacobian_aut are optional fields of the file format that nothing in
    this package sets; stack counts report aut orders per isomorphism
    class in IsogenyClassReport instead.

    A record is a named tuple, so it is cheap to build and pickles as a
    plain tuple; it is also iterable and compares equal to a tuple of the
    same values.  Records of one (counts, Cartier) key, whether built by
    the census or read back by read_records, share their counts, weil,
    slopes and EO tuples.
    """

    id: str
    kind: str
    smooth: bool
    note: str = ""
    counts: tuple[int, ...] | None = None
    weil: tuple[int, ...] | None = None
    slopes: tuple[Fraction, ...] | None = None
    stratum: str | None = None
    p_rank: int | None = None
    a_number: int | None = None
    two_rank: int | None = None
    type43: bool | None = None
    eo_mu: tuple[int, ...] | None = None
    eo_candidates: tuple[tuple[int, ...], ...] | None = None
    aut: int | None = None
    jacobian_aut: int | None = None


def _row_array(row, rows: int) -> np.ndarray:
    """row as the least unsigned numpy integer type that holds an index
    into `rows` rows."""
    return np.asarray(row, np.min_scalar_type(rows))


# The model space: the kinds' domains in id order.  A curve id is a head and
# a tail (kinds.Kind); a model's position is its head's first position plus
# its tail's index past the head's first tail.
_BOUNDS = tuple(accumulate((DESCRIPTIONS[kind].domain for kind in KINDS), initial=0))
_START = dict(zip(KINDS, _BOUNDS))
_HYP = DESCRIPTIONS["hyp"]  # counted by its own route, _hyp_chunk


def _id_tables():
    """Every head and tail in KINDS order; each head's first position, per
    kind and as an array for searchsorted; what a position of each head adds
    for its tail's index in the tails; per kind, its tails' width and index.
    The arrays are built from lists, as a numpy ufunc call at import raises
    every process's peak memory; h = 0 has no model and shares h = 1's first."""
    heads, tails, first, shift, tail_index = [], [], {}, [], {}
    for kind in KINDS:
        desc = DESCRIPTIONS[kind]
        first[kind] = list(accumulate((len(desc.tails) - t for t in desc.first_tail[:-1]), initial=_START[kind]))
        shift += [len(tails) + t - f for t, f in zip(desc.first_tail, first[kind])]
        heads += desc.heads
        tail_index[kind] = len(desc.tails[0]), {tail: len(tails) + i for i, tail in enumerate(desc.tails)}
        tails += desc.tails
    return tuple(heads), tuple(tails), first, np.array(sum(first.values(), [])), np.array(shift), tail_index


_HEADS, _TAILS, _FIRST, _HEAD_FIRST, _TAIL_SHIFT, _TAIL_INDEX = _id_tables()
_HEAD_INDEX = {head: h for h, head in enumerate(_HEADS)}


def _spelled(head: str, tails) -> list[str]:
    """head + tail for each of tails (at least one), by one join and one split."""
    return (head + ("\n" + head).join(tails)).split("\n")


def _curve_ids(pos) -> list[str]:
    """The curve ids of the models at positions pos (a numpy integer array),
    spelled a run of one head at a time."""
    head = np.searchsorted(_HEAD_FIRST, pos, side="right") - 1
    tail = (pos + np.take(_TAIL_SHIFT, head)).tolist()
    starts = np.flatnonzero(np.diff(head, prepend=-1)).tolist()
    ids = []
    for h, lo, hi in zip(np.take(head, starts).tolist(), starts, starts[1:] + [len(tail)]):
        ids += _spelled(_HEADS[h], map(_TAILS.__getitem__, tail[lo:hi]))
    return ids


def _blocks(pos: np.ndarray) -> list[tuple[str, int, int]]:
    """(kind, lo, hi) for each kind: pos[lo:hi], pos ascending, are its models."""
    ends = np.searchsorted(pos, _BOUNDS).tolist()
    return list(zip(KINDS, ends, ends[1:]))


# models per block of ids that CensusTable.__iter__ spells at once
_ITER_BLOCK = 4096


class CensusTable(Sequence):
    """A census result, one row index per model.

    pos is a numpy integer array of the models' positions in the model space,
    ascending, which is id order; row[i] is the index in rows of
    model i's id-free row, the CensusRecord fields after id.  The table is
    a read-only Sequence of CensusRecords, built on demand, and the records
    of one row share its field objects.  Queries run a predicate once per
    row (row_records) and spell ids only for the models it selects
    (member_ids).  Tables with equal pos, row and rows are equal.
    """

    __slots__ = ("pos", "row", "rows")

    def __init__(self, pos: np.ndarray, row: np.ndarray, rows: tuple[tuple, ...]):
        self.pos = pos
        self.row = row
        self.rows = rows

    @classmethod
    def of(cls, records) -> "CensusTable":
        """records itself when it is a table, else the table of CensusRecords
        (ids checked by _positions), one row per distinct id-free record."""
        if isinstance(records, cls):
            return records
        index: dict[tuple, int] = {}
        ids, row = [], []
        for rec in records:
            ids.append(rec[0])
            row.append(index.setdefault(rec[1:], len(index)))
        return cls(_positions(ids), _row_array(row, len(index)), tuple(index))

    def __len__(self) -> int:
        return len(self.row)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return CensusRecord(*_curve_ids(self.pos[[i]]), *self.rows[self.row[i]])

    def __iter__(self):
        # CensusRecord._make((cid, *rows[r])) per model, looped in C; the ids
        # are spelled a block at a time, so that a loop over the full census
        # never holds all 244,224 of them, about 35 MB of strings
        for lo in range(0, len(self.pos), _ITER_BLOCK):
            block = slice(lo, lo + _ITER_BLOCK)
            yield from map(tuple.__new__, repeat(CensusRecord), map(
                add, zip(_curve_ids(self.pos[block])), map(self.rows.__getitem__, self.row[block].tolist())))

    def __eq__(self, other):  # which also makes a table unhashable
        return (isinstance(other, CensusTable) and np.array_equal(self.pos, other.pos)
                and np.array_equal(self.row, other.row) and self.rows == other.rows)

    def lookup(self, cid: str) -> CensusRecord | None:
        """The record of the model with curve id cid, None when the table
        does not hold it (id_filter dropped it); an id that is not the
        curve_id of a census model is refused, as by _positions."""
        (p,) = _positions([cid])
        i = int(np.searchsorted(self.pos, p))
        if i == len(self.pos) or self.pos[i] != p:
            return None
        return CensusRecord(cid, *self.rows[self.row[i]])

    def row_records(self) -> list[CensusRecord]:
        """Each row as a CensusRecord with an empty id."""
        return [CensusRecord("", *row) for row in self.rows]

    def row_sizes(self) -> list[int]:
        """The number of models of each row."""
        return np.bincount(self.row, minlength=len(self.rows)).tolist()

    def member_ids(self, groups) -> list[list[str]]:
        """For each set of row indices in groups (pairwise disjoint), the ids
        of the models whose row is in the set, in order."""
        if not any(groups):
            return [[] for _ in groups]
        label = np.full(len(self.rows), len(groups), np.min_scalar_type(len(groups)))
        for k, rows in enumerate(groups):
            label[list(rows)] = k
        of_model = label[self.row]
        order = np.argsort(of_model, kind="stable")
        ends = np.bincount(of_model, minlength=len(groups)).cumsum().tolist()
        return [_curve_ids(self.pos[order[lo:hi]]) for lo, hi in zip([0] + ends, ends[:len(groups)])]


# one encoder for the header, the ids and _spell: json.dumps with options builds a new one per call
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
# the encoder's spelling of a value (a tuple as a list), made once per distinct
# value (typed, so that 1 is not spelled as True)
_spell = lru_cache(maxsize=None, typed=True)(_encode)


def _decimals(values) -> str:
    """The JSON list of str of each of values (counts, weil, slopes)."""
    return '["' + '","'.join(map(str, values)) + '"]' if values else "[]"


def _row_json(row: tuple, slopes_text: dict, cid: str | None = None) -> str:
    """record_to_json of the record (cid, *row), without an id when cid is
    None, spelled field by field in sorted key order: no dict, and the
    encoder runs once per distinct value (_spell).  slopes_text maps
    id(slopes) to (slopes, its text), so a caller that keeps it spells each
    slopes tuple once."""
    (kind, smooth, note, counts, weil, slopes, stratum, p_rank, a_number, two_rank, type43, eo_mu, eo_candidates,
     aut, jacobian_aut) = row
    if slopes is not None and id(slopes) not in slopes_text:
        slopes_text[id(slopes)] = slopes, _decimals(slopes)
    return "{" + ",".join(filter(None, (  # a field left out is False, None or ""
        a_number is not None and f'"a_number":{_spell(a_number)}',
        aut is not None and f'"aut":{_spell(aut)}',
        counts is not None and f'"counts":{_decimals(counts)}',
        eo_candidates is not None and f'"eo_candidates":{_spell(eo_candidates)}',
        eo_mu is not None and f'"eo_mu":{_spell(eo_mu)}',
        cid is not None and f'"id":{_encode(cid)}',
        jacobian_aut is not None and f'"jacobian_aut":{_spell(jacobian_aut)}',
        f'"kind":{_spell(kind)}',
        note and f'"note":{_spell(note)}',
        p_rank is not None and f'"p_rank":{_spell(p_rank)}',
        slopes is not None and f'"slopes":{slopes_text[id(slopes)][1]}',
        f'"smooth":{_spell(smooth)}',
        stratum is not None and f'"stratum":{_spell(stratum)}',
        two_rank is not None and f'"two_rank":{_spell(two_rank)}',
        type43 is not None and f'"type43":{_spell(type43)}',
        weil is not None and f'"weil":{_decimals(weil)}'))) + "}"


def record_to_json(rec: CensusRecord) -> str:
    """One JSON line; exact integers as strings, None fields omitted."""
    return _row_json(rec[1:], {}, rec.id)


# the JSON type record_to_json writes for each scalar field
_SCALAR_TYPES = {"id": str, "kind": str, "smooth": bool, "note": str, "stratum": str, "type43": bool,
                 **dict.fromkeys(("p_rank", "a_number", "two_rank", "aut", "jacobian_aut"), int)}
_DECIMAL = r"0|-?[1-9][0-9]*"
_IS_DECIMAL = re.compile(_DECIMAL).fullmatch
_IS_FRACTION = re.compile(f"(?:{_DECIMAL})(?:/[1-9][0-9]*)?").fullmatch


# the whole census has a few dozen count and coefficient strings and seven
# slope strings, so each is checked and parsed once (a refused one is not
# cached); Fractions are immutable, so the records share one per string
@lru_cache(maxsize=None)
def _integer(s: str) -> int:
    if type(s) is not str or not _IS_DECIMAL(s):
        raise ValueError
    return int(s)


@lru_cache(maxsize=None)
def _slope(s: str) -> Fraction:
    if type(s) is not str or not _IS_FRACTION(s):
        raise ValueError
    return Fraction(s)


def _json_int(x) -> int:
    if type(x) is not int:
        raise ValueError
    return x


def _ints(v) -> tuple[int, ...]:
    if type(v) is not list:
        raise ValueError
    return tuple(map(_json_int, v))


# the parse of each item of a list field, and what the items must be
_LIST_FIELDS = {"counts": (_integer, "decimal strings"), "weil": (_integer, "decimal strings"),
                "slopes": (_slope, "fraction strings"), "eo_mu": (_json_int, "integers"),
                "eo_candidates": (_ints, "lists of integers")}
_ROW_FIELDS = CensusRecord._fields[1:]
# (keys, their values' types) -> (a getter of the row, slope strings and id
# from the values and (None, "", ()), and (index in the row, parse) of each
# list field), for each layout that passed _row_plan
_ROW_PLANS: dict[tuple, tuple] = {}


class _Object(list):
    """The pairs of a decoded JSON object, printed as their dict, and the
    row they spell (cid, the id or None; row; slopes, the slope strings) or
    the error that refuses them as one.  Every object is one, nested or not."""

    __slots__ = ("cid", "row", "slopes", "error")

    def __repr__(self):
        return repr(dict(self))


def _row_plan(keys: tuple, types: tuple, values: tuple) -> tuple:
    """The plan of a layout (see _ROW_PLANS), cached.  It refuses a scalar
    field of another JSON type than record_to_json writes for it (1 for
    true), then a missing kind or smooth (KeyError)."""
    for key, t, value in zip(keys, types, values):
        if key in _SCALAR_TYPES and t is not _SCALAR_TYPES[key]:
            raise ValueError(f"field {key!r} is {value!r}, not of type {_SCALAR_TYPES[key].__name__}")
    for key in ("kind", "smooth"):
        if key not in keys:
            raise KeyError(key)
    n = len(keys)  # a missing field reads None, a missing note "" and missing slope strings ()
    at = {**dict.fromkeys(CensusRecord._fields, n), "note": n + 1, **dict(zip(keys, range(n)))}
    get = operator.itemgetter(*map(at.get, _ROW_FIELDS), at["slopes"] if "slopes" in keys else n + 2, at["id"])
    lists = tuple((i, _LIST_FIELDS[key][0]) for i, key in enumerate(_ROW_FIELDS) if key in _LIST_FIELDS and key in keys)
    plan = _ROW_PLANS[keys, types] = get, lists
    return plan


def _row_object(pairs: list) -> _Object:
    """The decoder's object_pairs_hook: pairs as an _Object.  A repeated key
    is refused at once, at any depth; the other faults are kept in error, so
    that a nested object prints as its dict in its parent's refusal: those
    of _row_plan, then a list field that is no list of what _LIST_FIELDS
    says ("1234" for counts)."""
    obj = _Object(pairs)
    keys, values = zip(*pairs) if pairs else ((), ())
    layout = keys, tuple(map(type, values))
    plan = _ROW_PLANS.get(layout)
    if plan is None and len(set(keys)) != len(keys):
        raise ValueError(f"repeated key {next(k for k in dict(pairs) if keys.count(k) > 1)!r}")
    try:
        get, lists = plan or _row_plan(*layout, values)
        *fields, obj.slopes, obj.cid = get(values + (None, "", ()))
        for i, parse in lists:
            items = fields[i]
            try:
                if type(items) is list:
                    fields[i] = tuple(map(parse, items))
                    continue
            except (ValueError, TypeError):  # TypeError: an unhashable item for a cached parse
                pass
            raise ValueError(f"field {_ROW_FIELDS[i]!r} is {items!r}, not a list of {_LIST_FIELDS[_ROW_FIELDS[i]][1]}")
    except (ValueError, KeyError) as exc:
        obj.error = exc
        return obj
    obj.row, obj.error = tuple(fields), None
    return obj


# one decoder for every row line: json.loads with a hook builds a new one per call
_decode = json.JSONDecoder(object_pairs_hook=_row_object).decode


def _decode_row(line: str) -> _Object:
    """The _Object of a row line, refused when it is no object or no row."""
    obj = _decode(line)
    if type(obj) is not _Object:
        raise ValueError(f"{obj!r} is not a JSON object")
    if obj.error is not None:
        raise obj.error
    return obj


def record_from_json(line: str) -> CensusRecord:
    """The record of one record_to_json line (see _decode_row)."""
    obj = _decode_row(line)
    if obj.cid is None:
        raise KeyError("id")
    return CensusRecord(obj.cid, *obj.row)


# the curve_id of every census model, in its one spelling: a quadric mask
# in four hex digits; hyp h in 0x01..0x3f with f in 0x000..0x7ff when
# deg h = 5 and in 0x200..0x7ff otherwise (the genus-4 shape)
_CURVE_ID = (r"(?:cone|ns);c=0x[0-9a-f]{4}"
             r"|hyp;h=0x(?:[23][0-9a-f];f=0x[0-7]|(?:0[1-9a-f]|1[0-9a-f]);f=0x[2-7])[0-9a-f]{2}")
_IS_CURVE_ID = re.compile(_CURVE_ID).fullmatch


def _positions(ids: list) -> np.ndarray:
    """The positions of ids, refusing the first that is not the curve_id of a
    census model (_CURVE_ID) or does not strictly follow the one before."""
    pos = np.empty(len(ids), np.intp)
    shift = _TAIL_SHIFT.tolist()
    prev = ""
    for i, cid in enumerate(ids):
        if not (isinstance(cid, str) and _IS_CURVE_ID(cid)):
            raise ValueError(f"record id {cid!r} is not the curve_id of a census model")
        if cid <= prev:
            raise ValueError(f"record id {cid!r} does not follow {prev!r} (ids must be strictly ascending)")
        width, tail_index = _TAIL_INDEX[cid[:cid.index(";")]]
        pos[i] = tail_index[cid[-width:]] - shift[_HEAD_INDEX[cid[:-width]]]
        prev = cid
    return pos


# the index entry of a model that is not in the table (id_filter dropped it)
_DROPPED = 0xFFFF


def write_records(path, records) -> None:
    """Write records (a CensusTable or CensusRecords) in schema g4c2-census/2
    to a temporary file renamed onto path, so a failed write, whose error
    names path, leaves an existing file unchanged.  Ids that CensusTable.of
    refuses and rows of the wrong kind are refused first, as read_records would."""
    import hashlib  # here, as nothing else the package imports loads it
    table = CensusTable.of(records)
    _check_kinds(path, table)
    if len(table.rows) > _DROPPED:
        raise ValueError(f"{len(table.rows)} rows do not fit the index's four hex digits")
    # the body as bytes chunks, hashed and written without a joined copy
    slopes_text: dict = {}
    body = [f"{_row_json(row, slopes_text)}\n".encode("ascii") for row in table.rows]
    kept = {}
    for kind, lo, hi in _blocks(table.pos):
        if lo < hi:
            index = np.full(DESCRIPTIONS[kind].domain, _DROPPED, ">u2")
            index[table.pos[lo:hi] - _START[kind]] = table.row[lo:hi]
            body += [f'{{"kind":"{kind}","rows":"'.encode("ascii"), binascii.hexlify(index), b'"}\n']
            kept[kind] = hi - lo
    digest = hashlib.sha256()
    for chunk in body:
        digest.update(chunk)
    header = {"body_sha256": digest.hexdigest(), "records": kept, "rows": len(table.rows), "schema": SCHEMA}
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(f"{_encode(header)}\n".encode("ascii"))
            fh.writelines(body)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_records(path) -> CensusTable:
    """The CensusTable of a file written by write_records, checked line by
    line: a refusal names its line, and a refused row the first id using it.
    The index lines, the file's last lines, are read first and from its
    bytes, so each must be spelled as the writer spells it; each row line is
    then checked, as it is parsed, against the kinds of the models that use it.
    The body's SHA-256 is checked last, so that an edit every other check
    passes is refused too.  Schema /1, one line per model, is not read."""
    import hashlib  # here, as nothing else the package imports loads it
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        at = re.search(b"[\x80-\xff]", data).start()
        lineno, col = data.count(b"\n", 0, at) + 1, at - data.rfind(b"\n", 0, at)
        raise ValueError(f"{path}: line {lineno}: non-ASCII byte 0x{data[at]:02x} at column {col}")
    # line 1 as splitlines cuts it, which is how the row lines are cut below
    first, *_ = str(data[:data.find(b"\n") + 1 or len(data)], "ascii").splitlines() or [""]
    try:
        header = json.loads(first)
    except ValueError:
        header = None
    if type(header) is not dict:
        raise ValueError(f"{path}: line 1: header is not a JSON object: {first.strip()[:80]!r}")
    if header.get("schema") != SCHEMA:
        old = header.get("schema") == "g4c2-census/1"
        raise ValueError(f"{path}: line 1: records schema /1 is no longer read; run the census again" if old
                         else f"{path}: line 1: unsupported records schema {header.get('schema')!r} (want {SCHEMA!r})")
    kept, promised = header.get("records"), header.get("rows")
    if type(kept) is not dict or not all(kind in KINDS and type(n) is int and n >= 0 for kind, n in kept.items()) \
            or type(promised) is not int or promised < 0:
        raise ValueError(f"{path}: line 1: header records count {kept!r} (per kind) or row count {promised!r} "
                         "is not a non-negative integer")
    kinds = [kind for kind in KINDS if kind in kept]
    # the end of the last line, then the newline before each index line,
    # found from the end; the row lines lie between line 1 and the first index line
    breaks = [len(data) - data.endswith(b"\n")]
    while len(breaks) <= len(kinds) and (nl := data.rfind(b"\n", 0, breaks[-1])) >= 0:
        breaks.append(nl)
    lines = str(memoryview(data)[:breaks[-1] + 1], "ascii").splitlines()[1:] if len(breaks) > len(kinds) else []
    if len(lines) + len(breaks) - 1 < promised + len(kinds):
        raise ValueError(f"{path}: line {len(lines) + len(breaks) + 1}: missing; the header promises {promised} "
                         f"rows and {len(kinds)} index lines")
    pos, row = [], []  # per kind
    owner = np.full(len(lines), -1)  # per row, the index in kinds of its models' kind; -1 none, -2 several
    for k, (lineno, kind, end, nl) in enumerate(zip(count(len(lines) + 2), kinds, breaks[-2::-1], breaks[::-1])):
        spelled = f'{{"kind":"{kind}","rows":"'.encode("ascii")
        start = nl + 1 + len(spelled)  # the first hex digit
        try:
            if not (data.startswith(spelled, nl + 1, end) and data.endswith(b'"}', start, end)):
                raise ValueError(f'not {{"kind":"{kind}","rows":...}}')
            index = np.frombuffer(binascii.unhexlify(memoryview(data)[start:end - 2]), ">u2")
            if len(index) != DESCRIPTIONS[kind].domain:
                raise ValueError(f"{len(index)} entries, not one for each of the {DESCRIPTIONS[kind].domain} models")
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}: line {lineno}: malformed index line of kind {kind!r}: {exc}") from None
        keep = np.flatnonzero(index != _DROPPED)
        beyond = keep[index[keep] >= promised][:1]
        if len(keep) != kept[kind] or len(beyond):
            raise ValueError(f"{path}: line {lineno}: index of kind {kind!r} " + (
                f"keeps {len(keep)} models, the header promises {kept[kind]}" if len(keep) != kept[kind] else
                f"gives {_curve_ids(beyond + _START[kind])[0]!r} row {index[beyond[0]]}, beyond the {promised} rows"))
        pos.append(keep + _START[kind])
        row.append(index[keep])
        used = np.bincount(row[-1], minlength=len(lines)) > 0  # the rows of the kind's models
        owner[used] = np.where(owner[used] == -1, k, -2)
    table = CensusTable(np.concatenate([np.zeros(0, np.intp), *pos]),
                        np.concatenate([np.zeros(0, np.uint16), *row]), ())
    kind_of = list(map({-1: "", -2: None, **dict(enumerate(kinds))}.__getitem__, owner.tolist()))

    def row_of(r: int) -> str:  # the first model of row r, for an error
        return next((f"the row of {cid!r}" for cid in _curve_ids(table.pos[table.row == r][:1])), "a row no model uses")

    seen: dict[tuple, int] = {}  # _row_key and slope strings -> row; no Fraction is hashed
    rows = []
    for r, line in enumerate(lines):
        try:
            obj = _decode_row(line)
            if obj.cid is not None:
                raise ValueError(f"a row carries no id, this one {obj.cid!r}")
        except (ValueError, KeyError) as exc:
            raise ValueError(f"{path}: line {r + 2}: malformed record: {exc!r}, {row_of(r)}") from None
        fields = obj.row
        earlier = seen.setdefault((_row_key(fields), *obj.slopes), r)
        if earlier != r:
            raise ValueError(f"{path}: line {r + 2}: repeats the row of line {earlier + 2}, {row_of(r)}")
        if kind_of[r] not in ("", fields[0]):  # named with the first model of another kind that uses it
            k = next(k for k, kind in enumerate(kinds) if kind != fields[0] and (row[k] == r).any())
            cid = _curve_ids(pos[k][row[k] == r][:1])[0]
            raise ValueError(f"{path}: line {r + 2}: kind {fields[0]!r} contradicts id {cid!r}")
        rows.append(fields)
    if len(rows) != promised:
        raise ValueError(f"{path}: line 1: header promises {promised} rows, the body has {len(rows)}")
    unused = np.flatnonzero(owner == -1)[:1]
    if len(unused):
        raise ValueError(f"{path}: line {unused[0] + 2}: a row no model uses")
    table = CensusTable(table.pos, _row_array(table.row, len(rows)), tuple(rows))
    digest = hashlib.sha256(memoryview(data)[len(first) + 1:]).hexdigest()
    if digest != header.get("body_sha256"):
        raise ValueError(f"{path}: line 1: the body's SHA-256 is {digest}, not the header's "
                         f"{header.get('body_sha256')!r}")
    return table


def _check_kinds(path, table: CensusTable) -> None:
    """Refuse a row that a model of another kind uses, naming the row's line
    and the first such model; per kind, one gather of its rows' verdicts."""
    row_kinds = [rec[0] for rec in table.rows]
    for kind, lo, hi in _blocks(table.pos):
        wrong = np.array([k != kind for k in row_kinds], bool)[table.row[lo:hi]]
        if wrong.any():
            i = lo + int(wrong.argmax())
            raise ValueError(f"{path}: line {table.row[i] + 2}: kind {row_kinds[table.row[i]]!r} contradicts id "
                             f"{_curve_ids(table.pos[[i]])[0]!r}")


# ---------------------------------------------------------------------------
# hyperelliptic fast path: counts linear in the coefficient bits of f
# ---------------------------------------------------------------------------

# the parity of every 11-bit word
_PARITY = xor_table(np.ones(11, np.uint8))


@lru_cache(maxsize=None)
def _hyp_count_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bases, functionals, starts), read-only, for every h mask 0..63:
    bases[h, n-1] and the row functionals[h] give
    N_n(f) = bases[h, n-1] - 2 sum_l parity(f & l), the sum over the
    functionals from starts[n-1] up to the next degree's start.

    Each x with h(x) != 0 contributes 2 points when Tr(f(x)/h(x)^2) = 0 and
    none otherwise; the trace is an XOR over the set bits i of f of the
    fixed values Tr(x^i/h(x)^2), which pack into an 11-bit functional l.
    Roots of h contribute one point each and get the functional 0, which
    adds nothing to the sum.  Infinity contributes one point when
    deg h < 5; for deg h = 5 it behaves like an extra functional with only
    the f10 bit (Tr(1) = n mod 2), and the slot after the x's of each
    degree holds it (0 when deg h < 5).  Each degree is one numpy pass over
    the (h, x) array, from its field's multiplication table.
    """
    hs = np.arange(64)[:, None]
    h5 = hs >> 5
    bases, lms, starts = [], [], []
    for n in _DEGREES:
        K = field(n)
        q = K.order
        mul = np.array([[K.mul(a, b) for b in range(q)] for a in range(q)], np.intp)
        inv = np.array([0] + [K.inv(a) for a in range(1, q)], np.intp)
        trace = np.array([K.trace(a) for a in range(q)], np.int16)
        x = np.arange(q)
        xp = [np.ones(q, np.intp), x]  # x^0 .. x^10
        for _ in range(9):
            xp.append(mul[xp[-1], x])
        hx = xor_table(xp[:6])  # (h, x)
        w = inv[mul[hx, hx]]  # 0 at a root of h
        lm = sum(trace[mul[xp[i], w]] << i for i in range(11))
        starts.append(sum(col.shape[1] for col in lms))
        lms += [lm, (h5 * (n & 1)) << 10]
        # 2 per x, 1 less per root of h; infinity 2 when deg h = 5, else 1
        bases.append(2 * q - (hx == 0).sum(axis=1) + 1 + h5[:, 0])
    tables = (np.stack(bases, axis=1).astype(np.int16),
              np.concatenate(lms, axis=1).astype(np.int16), np.array(starts))
    for table in tables:
        table.flags.writeable = False
    return tables


def _hyp_counts_vector(hm: int, farr: np.ndarray) -> np.ndarray:
    """N_1..N_4 for every f mask in farr at once; shape (len(farr), 4), from
    one gather of parity(f & l) over the functionals of all four degrees
    (row hm of _hyp_count_tables)."""
    bases, lms, starts = _hyp_count_tables()
    odd = _PARITY.take(np.asarray(farr, np.int16)[:, None] & lms[hm])
    return bases[hm] - 2 * np.add.reduceat(odd, starts, axis=1, dtype=np.int16)


# the note of each _hyp_smooth_masks code
_HYP_NOTES = ("", _HYP_AFFINE_NOTE, _HYP_INFINITY_NOTE)


def _hyp_smooth_masks(hm: int) -> np.ndarray:
    """Singularity code of every f mask 0..2047 with this h, indexed by the
    mask, as a read-only uint8 array: 0 when the model is smooth, else the
    index of its note in _HYP_NOTES.  It is row hm of _hyp_smooth_table."""
    return _hyp_smooth_table()[hm]


@lru_cache(maxsize=None)
def _hyp_smooth_table() -> np.ndarray:
    """_hyp_smooth_masks of every h mask 0..63 at once, as a read-only
    (64, 2048) uint8 array built by numpy passes over all h (row 0 means
    nothing).

    An affine point is singular exactly when h and crit = f'^2 + f h'^2
    have a common root.  crit is F_2-linear in the bits of f (squaring is),
    so crit mod h is the XOR of one residue per set bit of f; the residues
    come from the x^j mod h of all h, each x^j one shift and at most one
    XOR of h from x^(j-1).  When deg h < 5 the point at infinity is
    singular exactly when f9 + f10 h4 = 0, a flag kept as bit 5 beside the
    residue.  Tables of the XORs over the low six and over the high five
    bits of f give every (h, f) its residue and flag in one broadcast XOR,
    and one gather reads its code.  h and a residue have a common root
    exactly when some divisor of degree >= 1 divides both; a carry-less
    product table gives every divisor of every mask below 64, so that is
    one boolean matrix product.
    """
    hs = np.arange(64)
    deg = np.array([max(hm.bit_length() - 1, 0) for hm in range(64)])
    bits = 1 << np.arange(19)
    xpow = [np.where(deg > 0, 1, 0)]  # x^j mod h, j = 0..18
    for _ in range(18):
        t = xpow[-1] << 1
        xpow.append(t ^ ((t >> deg) & 1) * hs)
    xpow = np.stack(xpow, axis=1)
    # crit of f = x^i: x^(2i-2) for odd i, plus x^i h'^2, with h' of the odd bits
    hd2 = sum(((hs >> (2 * b + 1)) & 1) << (4 * b) for b in range(3))
    crit = (hd2[:, None] << np.arange(11)) ^ np.array([1 << (2 * i - 2) if i & 1 else 0 for i in range(11)])
    column = np.bitwise_xor.reduce((crit[:, :, None] & bits != 0) * xpow[:, None, :], axis=2)
    high_f = np.arange(32)  # f >> 6
    at_infinity = (hs[:, None] < 32) & ((((high_f >> 3) ^ (high_f >> 4) & (hs[:, None] >> 4)) & 1) == 0)
    # (h, bits of f); C order keeps the gather below fast
    low, high = xor_table(column[:, :6].T).T.copy(), xor_table(column[:, 6:].T).T.copy()
    high |= at_infinity.astype(np.uint8) << 5
    residue = (high[:, :, None] ^ low[:, None, :]).reshape(64, 2048)  # f = 64 (f >> 6) + (f & 63)
    product = xor_table(hs << np.arange(6)[:, None])  # product[m, d], carry-less
    divides = np.zeros((64, 64), np.int16)  # divides[d, x]: d times some m is x
    m, d = np.nonzero(product < 64)
    divides[d, product[m, d]] = 1
    common_root = (divides[2:].T @ divides[2:, :32]) > 0
    code = np.concatenate([common_root, np.where(common_root, 1, 2)], axis=1).astype(np.uint8)
    codes = code.ravel().take((hs[:, None].astype(np.uint16) << 6) | residue)
    codes.flags.writeable = False
    return codes


@lru_cache(maxsize=None)
def _hyp_cartier(hm: int):
    """(a_number, two_rank, type43) for every model sharing this h.

    The Cartier matrix in the basis x^(i-1) dx/h depends on h alone, and is
    read from its word (cartier.hyp_cartier_word).  An Artin-Schreier double
    cover has 2-rank = (number of branch points) - 1; the branch points are
    the distinct roots of h, as many as the degree of its radical (no
    factorization needed), plus infinity when deg h < 5, so the word's
    2-rank is checked against that count.
    """
    a, s2, t43 = cartier.word_invariants(cartier.hyp_cartier_word(hm))
    branch = sum(gf2x_degree(s) for s, _ in _squarefree_decomposition(F2X, hm)) + (gf2x_degree(hm) < 5)
    if s2 != branch - 1:
        raise RuntimeError(f"2-rank {s2} of the Cartier word disagrees with {branch} branch points for h=0x{hm:02x}")
    return a, s2, t43


# ---------------------------------------------------------------------------
# classification pipeline
# ---------------------------------------------------------------------------


# serves both quadric kinds, ns and cone; the name is the one the benchmark traces
def _ns_cartier(curve: QuadricCubicCurve):
    """The Cartier data of a quadric model from its mask's Cartier word,
    ranked once per distinct word."""
    return cartier.word_invariants(cartier.quadric_cartier_word(curve.kind, curve.mask))


def _smooth_rows(counts, carts: list, ids: list[str]) -> list[tuple]:
    """Every record field that the counts and the Cartier data determine,
    counts to eo_candidates in CensusRecord order, for each row i of the
    (m, 4) array counts (N_1..N_4) with the Cartier data carts[i],
    (a, 2-rank, type43).

    One array pass (zeta.weil_rows_f2) derives every row's Weil polynomial
    and runs the checks of weil_from_counts, the round trip included.  The
    Newton polygon and stratum are built once per valuation pattern of the
    L-coefficients (zeta._newton_polygon), and each row's 2-rank is
    checked against the p-rank that its stratum holds, its zero slopes.
    The first failing row i raises RuntimeError naming ids[i], with the
    first check it fails in the order of the scalar route
    (weil_from_counts, newton_polygon, the 2-rank, eo_classify_curve).
    """
    a, fail = weil_rows_f2(counts)
    sound = np.flatnonzero(fail == 0)
    coeffs = a[sound]
    # val_2 of each coefficient, from its lowest set bit; -1 for a zero one
    vals = np.where(coeffs == 0, -1, np.searchsorted(1 << np.arange(62), coeffs & -coeffs))
    patterns, of_pattern = np.unique(vals, axis=0, return_inverse=True)
    pattern = np.zeros(len(fail), np.intp)
    pattern[sound] = of_pattern.reshape(-1)
    strata: dict = {}  # pattern -> (Newton polygon, stratum)
    rows = []
    rows_in = zip(counts.tolist(), a.tolist(), pattern.tolist(), fail.tolist())
    for i, (n, l_coeffs, k, code) in enumerate(rows_in):
        try:
            if code:
                raise ValueError(WEIL_ROW_FAILURES[code - 1])
            if k not in strata:
                poly = _newton_polygon(tuple(None if v < 0 else v for v in patterns[k].tolist()), 1)
                strata[k] = poly, classify_stratum(poly)
            poly, stratum = strata[k]
            p_rank = stratum.p_rank
            an, s2, t43 = carts[i]
            if s2 != p_rank:
                raise ValueError(f"2-rank {s2} from the Cartier operator, {p_rank} zero slopes")
            eo_mu = eo_candidates = None
            if p_rank == 0:
                label = eo_classify_curve(stratum, an, t43)
                if isinstance(label, EoLabel):
                    eo_mu = label.mu
                else:
                    eo_candidates = label.options
        except ValueError as exc:
            raise RuntimeError(f"inconsistent invariants for {ids[i]}: {exc}") from None
        rows.append((tuple(n), tuple(reversed(l_coeffs)), poly.slopes, stratum.name, p_rank,
                     an, s2, t43, eo_mu, eo_candidates))
    return rows


def _classified_record(kind: str, cid: str, counts: tuple[int, ...], cart) -> CensusRecord:
    """Full record of one smooth model: _smooth_rows on its one key."""
    (fields,) = _smooth_rows(np.array([counts], np.int64), [cart], [cid])
    return CensusRecord(cid, kind, True, "", *fields)


@lru_cache(maxsize=None)
def _quadric_orbit_decision(kind: str, rep: int):
    """(SmoothnessResult, Cartier data) of an orbit representative the scan
    leaves unflagged.  Decided once per process and broadcast to the orbit:
    an F_2-automorphism of the quadric maps a model to an isomorphic one,
    with the same smoothness and the same Cartier data."""
    curve = quadric_curve_from_mask(kind, rep)
    res = _quadric_smooth_f2(curve)
    cart = _ns_cartier(curve) if res.smooth else None
    return res, cart


# a job's model keys put N_1..N_4 in the low 24 bits, 6 bits each
_COUNT_SHIFTS = (0, 6, 12, 18)


def _packed_counts(counts: np.ndarray, name) -> np.ndarray:
    """Each row of counts (N_1..N_4) packed into 24 bits; name([i]) lists the
    id of row i.  A smooth model has every N_n <= 17 + 8 * 4 = 49; the 6-bit bound
    is checked all the same, so that a wider count aborts instead of
    aliasing another key."""
    counts = counts.astype(np.int64)
    wide = (counts >> 6).any(axis=1)
    if wide.any():
        i = int(wide.argmax())
        raise RuntimeError(f"counts {tuple(counts[i].tolist())} of {name([i])[0]} "
                           "exceed the 6 bits per count of the row key")
    return (counts << _COUNT_SHIFTS).sum(axis=1)


def _row_key(row: tuple) -> tuple:
    """An id-free row without its slopes, which its Weil polynomial
    determines; rows compare by this key, so that no Fraction is hashed
    (Fraction.__hash__ runs in Python)."""
    return row[:5] + row[6:]


def _kept(heads, tails, keep) -> np.ndarray:
    """The indices i * len(tails) + j of the ids heads[i] + tails[j] that keep
    accepts, calling it once per id, in id order; all when keep is None.  A
    head's ids are spelled at once (_spelled)."""
    if keep is None:
        return np.arange(len(heads) * len(tails))
    ids = (_spelled(head, tails) for head in heads)
    return np.flatnonzero(np.fromiter(map(keep, chain.from_iterable(ids)), bool, len(heads) * len(tails)))


def _head_index(heads: dict, values) -> np.ndarray:
    """The index in heads of each value, adding to heads the values it has
    not seen."""
    return np.array([heads.setdefault(v, len(heads)) for v in values], np.intp)


def _row_table(kind: str, name, head: np.ndarray, heads: list,
               counts: np.ndarray) -> tuple[np.ndarray, tuple]:
    """(row index per model as uint16, distinct id-free rows) for one job;
    name(i) lists the ids of the models at the indices i, an integer array.

    Model i is its head heads[head[i]], a singular model's note (a str) or
    a smooth model's Cartier data (a, 2-rank, type43), above its counts[i]
    (N_1..N_4), which are read only when the model is smooth.  Its key is
    head << 24 | packed counts, and each distinct key is one row, in the
    order of first members.  The smooth keys are checked and built by one
    _smooth_rows call, each named by its first member, so a failed check
    names the least id among the failing keys.
    """
    is_smooth = np.array([not isinstance(h, str) for h in heads], bool)
    smooth = np.flatnonzero(is_smooth[head])
    keys = head.astype(np.int64) << 24
    keys[smooth] |= _packed_counts(counts[smooth], lambda i: name(smooth[i]))
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    key_row = np.empty(len(uniq), np.uint16)
    key_row[order] = np.arange(len(uniq))
    keys, first = uniq[order], first[order]
    key_head = (keys >> 24).tolist()
    smooth_keys = np.flatnonzero(is_smooth[key_head])
    fields = iter(_smooth_rows((keys[smooth_keys, None] >> _COUNT_SHIFTS) & 63,
                               [heads[key_head[r]] for r in smooth_keys.tolist()],
                               name(first[smooth_keys])))
    rows = tuple(CensusRecord("", kind, True, "", *next(fields))[1:] if is_smooth[h]
                 else CensusRecord("", kind, False, heads[h])[1:] for h in key_head)
    return key_row[inverse], rows


def _quadric_chunk(kind: str, keep=None) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Row table (see _census_job) of the masks of one quadric kind that
    keep accepts.  One scan covers all 2^16 masks, so every orbit
    representative lies in it.

    A flagged mask's head is its note, which names only the field of its
    witness column, so it is built once per field.  An open mask's head is
    its orbit representative's decision, made once per distinct
    representative: the note when it is singular, else its Cartier data,
    which is broadcast to every member.  An isomorphism keeps the scan's
    flag and counts, so a member's must equal its representative's.
    """
    counts, flagged, witness = _quadric_scan(kind, 0, 1 << 16)
    masks = _kept(DESCRIPTIONS[kind].heads, DESCRIPTIONS[kind].tails, keep)
    pos = _START[kind] + masks
    heads: dict = {}
    head = np.empty(len(masks), np.intp)
    flag_pos = np.flatnonzero(flagged[masks])
    degree = np.searchsorted(_quadric_tables(kind)[2], witness[masks[flag_pos]], side="right")
    _, first, of_field = np.unique(degree, return_index=True, return_inverse=True)
    notes = [_scan_singular(kind, int(witness[masks[flag_pos[i]]])).note for i in first.tolist()]
    head[flag_pos] = _head_index(heads, notes)[of_field]
    open_pos = np.flatnonzero(~flagged[masks])
    reps = _quadric_images(kind, masks[open_pos]).min(axis=1)
    bad = flagged[reps] | (counts[masks[open_pos]] != counts[reps]).any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        (cid,) = _curve_ids(pos[open_pos[i:i + 1]])
        raise RuntimeError(f"the scan flags or counts the orbit representative {kind};c=0x{reps[i]:04x} "
                           f"of {cid} otherwise than {cid} itself")
    distinct, of_rep = np.unique(reps, return_inverse=True)
    decisions = [_quadric_orbit_decision(kind, rep) for rep in distinct.tolist()]
    head[open_pos] = _head_index(heads, [cart if res.smooth else res.note for res, cart in decisions])[of_rep]
    return (pos, *_row_table(kind, lambda i: _curve_ids(pos[i]), head, list(heads), counts[masks]))


def _hyp_chunk(h0: int, h1: int, keep=None) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Row table (see _census_job) of the hyp models with h0 <= h < h1 that
    keep accepts.

    Each h has three heads, indexed by the _hyp_smooth_masks code of f: its
    Cartier data, which depends on h alone, and the two notes of
    _HYP_NOTES.  Per h, one parity gather counts the kept smooth models.
    """
    pos, head, counts, heads = [], [], [], {}  # pos, head and counts per h
    for hm in range(h0, h1):
        f0 = _HYP.first_tail[hm]
        kept = _kept(_HYP.heads[hm:hm + 1], _HYP.tails[f0:], keep)
        pos.append(_FIRST[_HYP.name][hm] + kept)
        fms = f0 + kept
        codes = _hyp_smooth_masks(hm)[fms]
        smooth = codes == 0
        h_counts = np.zeros((len(fms), len(_DEGREES)), np.int16)
        h_counts[smooth] = _hyp_counts_vector(hm, fms[smooth])
        head.append(_head_index(heads, (_hyp_cartier(hm), *_HYP_NOTES[1:]))[codes])
        counts.append(h_counts)
    pos = np.concatenate(pos)
    return (pos, *_row_table(_HYP.name, lambda i: _curve_ids(pos[i]), np.concatenate(head), list(heads),
                             np.concatenate(counts)))


def classify_model(curve) -> CensusRecord:
    """The census pipeline applied to a single model (any census encoding)."""
    res = is_smooth(curve)  # which refuses what is no curve
    kind, cid = curve.kind, curve.curve_id
    if not res.smooth:
        return CensusRecord(id=cid, kind=kind, smooth=False, note=res.note)
    counts = tuple(count_points(curve, n, raw=True) for n in _DEGREES)
    # the model's own operator, not the census's Cartier word of its mask or h
    cart = cartier.invariants(cartier_operator(curve))
    return _classified_record(kind, cid, counts, cart)


def _census_job(job) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The row table of one job: the positions of its kept models in id order, a
    uint16 array with one row index per model, and the tuple of the job's
    distinct id-free rows (CensusRecord fields after id).  A job is
    (kind, keep), or (kind, h0, h1, keep) for hyp, whose jobs split by h."""
    kind, *h_range, keep = job
    if DESCRIPTIONS[kind].split_by_h:
        return _hyp_chunk(*h_range, keep)
    return _quadric_chunk(kind, keep)


def _hyp_ranges(pieces: int) -> list[tuple[int, int]]:
    """Contiguous ranges [h0, h1) covering h = 1..63, min(pieces, 63) of them,
    of about equal model count: each range takes the next h while that
    brings it closer to an equal share of the models still left."""
    models = [len(_HYP.tails) - f0 for f0 in _HYP.first_tail]
    left = sum(models[1:])
    ranges = []
    h0 = 1
    for p in range(min(pieces, 63), 0, -1):
        h1, size = h0 + 1, models[h0]
        while 64 - h1 >= p and size + models[h1] / 2 <= left / p:
            size += models[h1]
            h1 += 1
        ranges.append((h0, h1))
        left -= size
        h0 = h1
    return ranges


def _census_jobs(kinds, workers: int, keep) -> list[tuple]:
    """The job plan: one job per quadric kind, so its scan tables, image
    tables and orbit decisions are paid once, placed first as the largest;
    then hyp, whose jobs split by h, cut into `workers` h-ranges of about
    equal model count."""
    split = [kind for kind in kinds if DESCRIPTIONS[kind].split_by_h]
    jobs = [(kind, keep) for kind in kinds if kind not in split]
    return jobs + [(kind, h0, h1, keep) for kind in split for h0, h1 in _hyp_ranges(workers)]


def _shared_jobs(jobs: list, processes: int) -> list:
    """The row tables of jobs, in plan order, computed in `processes`
    processes: this one runs jobs[::processes] while a pool of
    processes - 1 runs the rest, handed over by one pool.map.  For two
    processes and every kind, this one takes cone and the lower h-range,
    the lighter half of the plan, as it also starts the pool.  A failure
    raises the error of the earliest failing job in plan order, whichever
    process ran it."""
    with ProcessPoolExecutor(max_workers=processes - 1) as pool:
        # iter: an in-process stand-in for the pool may return a list
        theirs = iter(pool.map(_census_job, [job for i, job in enumerate(jobs) if i % processes]))
        mine, failure = {}, None
        for i in range(0, len(jobs), processes):
            try:
                mine[i] = _census_job(jobs[i])
            except Exception as exc:  # raised below unless an earlier pool job failed
                failure = exc
                break
        tables = []
        for i in range(len(jobs)):
            if i % processes:
                tables.append(next(theirs))  # raises the error of a failed pool job
            elif i in mine:
                tables.append(mine[i])
            else:
                raise failure
        return tables


def run_census(kinds=KINDS, workers: int = 1, id_filter=None) -> CensusTable:
    """The CensusTable of every model of the requested kinds, in id order.

    The jobs are those of _census_jobs.  They run in p = min(workers, jobs)
    processes: this one runs its share, every p-th job from the first, and
    a pool of p - 1 processes the rest (_shared_jobs); no pool opens when p
    is one.  Each job returns a row table (_census_job).  This process
    merges equal rows across jobs and concatenates the tables in kind
    order, which is id order; the result is identical for any worker count.
    id_filter, when given, keeps only ids it accepts (it must be picklable
    when a pool runs).
    """
    if isinstance(kinds, str):
        kinds = (kinds,)
    kinds = sorted(set(kinds))
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown model kind {kind!r} (one of {KINDS})")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    jobs = _census_jobs(kinds, workers, id_filter)
    processes = min(workers, len(jobs))
    if processes <= 1:
        tables = [_census_job(job) for job in jobs]
    else:
        tables = _shared_jobs(jobs, processes)
    index: dict[tuple, int] = {}  # _row_key -> index in rows
    rows: list[tuple] = []
    pos, parts = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    # a stable sort by kind keeps the hyp ranges in ascending h
    for _, (job_pos, row, job_rows) in sorted(zip(jobs, tables), key=lambda part: part[0][0]):
        pos.append(job_pos)
        merged = []
        for r in job_rows:
            m = index.setdefault(_row_key(r), len(rows))
            if m == len(rows):
                rows.append(r)
            merged.append(m)
        parts.append(np.array(merged, np.intp)[row])
    return CensusTable(np.concatenate(pos), _row_array(np.concatenate(parts), len(rows)), tuple(rows))


# ---------------------------------------------------------------------------
# isogeny classes and stack counts
# ---------------------------------------------------------------------------


class IsogenyClassReport(Value):
    """One F_2-isogeny class drawn from the census.

    member_ids lists every smooth record with the class's Weil polynomial;
    iso_rep_ids collapses them to one canonical model per F_2-isomorphism
    class, jacobian_auts gives |Aut(Jacobian)| for each, and stack_count is
    the sum of 1/|Aut(Jacobian)| over those classes.
    """

    __slots__ = _fields = ("weil", "q", "member_ids", "iso_rep_ids", "jacobian_auts", "stack_count",
                           "abelian_side")

    def __init__(self, weil: tuple[int, ...], q: int, member_ids: tuple[str, ...],
                 iso_rep_ids: tuple[str, ...], jacobian_auts: tuple[int, ...], stack_count: Fraction,
                 abelian_side: Fraction | None = None) -> None:
        setfield(self, "weil", weil)
        setfield(self, "q", q)
        setfield(self, "member_ids", member_ids)
        setfield(self, "iso_rep_ids", iso_rep_ids)
        setfield(self, "jacobian_auts", jacobian_auts)
        setfield(self, "stack_count", stack_count)
        setfield(self, "abelian_side", abelian_side)


def _isomorphism_orbit(curve) -> tuple[set[str], int]:
    """Curve ids of the F_2-isomorphism orbit of a smooth model, and the
    order of the group that acts.

    Quadric models: the stabilizer of the quadric realizes every isomorphism
    (an isomorphism of canonical curves extends to an ambient collineation
    fixing the unique quadric through the curve); its 72 or 48 images of
    the model are read from the image tables of _quadric_images, and the
    generic transport apply_transform is their test oracle.  Hyperelliptic
    models: x -> (ax+b)/(cx+d) over GL_2(F_2) with y -> (y + t(x))/(cx+d)^5 over all
    64 shift polynomials t, 384 elements; the images are read from the
    packed F_2-linear tables of _hyp_images, and the generic transport
    hyperelliptic_transformed is their test oracle.  An image outside the
    genus-4 shape (only a singular model has one) raises ValueError naming
    the model.  By orbit-stabilizer, |Aut| = |G| / |orbit|.
    """
    if isinstance(curve, QuadricCubicCurve):
        row = _quadric_images(curve.kind, [curve.mask])[0].tolist()
        return {f"{curve.kind};c=0x{m:04x}" for m in row}, len(row)
    if isinstance(curve, HyperellipticCurve):
        images = _hyp_images(*curve.masks)
        # max(2 deg h, deg f) in {9, 10} means deg h = 5 or deg f >= 9
        if not all(h >> 5 or f >> 9 for h, f in images):
            raise ValueError(f"{curve.curve_id}: a transported model leaves the genus-4 shape "
                             "(the model is singular)")
        return {f"hyp;h=0x{h:02x};f=0x{f:03x}" for h, f in images}, len(images)
    raise TypeError(f"not a curve: {curve!r}")


def isomorphism_canonical_id(curve) -> str:
    """Smallest curve id in the F_2-isomorphism orbit of a smooth model."""
    return min(_isomorphism_orbit(curve)[0])


def _weil_key(key) -> tuple[int, ...]:
    """key as a tuple of ints, refused with a ValueError naming it unless it
    is the 9 coefficients of a genus-4 Weil polynomial over F_2."""
    try:
        coeffs = tuple(map(operator.index, key))
        if len(coeffs) != 2 * GENUS + 1:
            raise ValueError(f"{len(coeffs)} coefficients, not {2 * GENUS + 1}")
        WeilPolynomial(coeffs, 2)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"Weil key {key!r} is not a genus-4 Weil polynomial over F_2: {exc}") from None
    return coeffs


def group_isogeny_classes(records, weil_keys) -> list[IsogenyClassReport]:
    """One report per requested Weil polynomial, in order, over the smooth
    records: members, isomorphism collapse, Jacobian aut orders and the
    exact stack count.  A key that is not the 9 integer coefficients of a
    genus-4 Weil polynomial over F_2 (zeta.WeilPolynomial) is refused with
    a ValueError naming it; a valid key no smooth record attains yields an
    empty report with stack count 0.  records is a CensusTable or an
    iterable of CensusRecords; the Weil polynomial is read once per row,
    and only the members of the requested classes get their ids.  Each
    isomorphism orbit is walked once: its minimum id represents it.
    """
    weil_keys = [_weil_key(key) for key in weil_keys]
    table = CensusTable.of(records)
    wanted = {key: k for k, key in enumerate(dict.fromkeys(weil_keys))}
    groups = [set() for _ in wanted]
    for r, rec in enumerate(table.row_records()):
        if rec.smooth and rec.weil in wanted:
            groups[wanted[rec.weil]].add(r)
    members = dict(zip(wanted, table.member_ids(groups)))
    reports = []
    for key in weil_keys:
        ids = members[key]
        seen: set[str] = set()
        orbits = []
        for cid in ids:
            if cid in seen:
                continue
            curve = parse_curve_id(cid)
            orbit, order = _isomorphism_orbit(curve)
            seen |= orbit
            orbits.append((min(orbit), jacobian_aut_order(curve, order // len(orbit))))
        orbits.sort()
        auts = tuple(a for _, a in orbits)
        stack = sum((Fraction(1, a) for a in auts), start=Fraction(0))
        reports.append(IsogenyClassReport(
            weil=key,
            q=2,
            member_ids=tuple(ids),
            iso_rep_ids=tuple(rep for rep, _ in orbits),
            jacobian_auts=auts,
            stack_count=stack,
            abelian_side=ABELIAN_SIDE_COUNTS.get(key),
        ))
    return reports


def discrepancy_report(report: IsogenyClassReport) -> str:
    """Curve-side stack count of one of the two recorded supersingular
    classes, side by side with the published abelian-variety-side count."""
    if report.abelian_side is None:
        raise ValueError("no published abelian-side count is recorded for this class")
    lines = [
        f"curve-side stack count:   {report.stack_count}",
        f"abelian-side stack count: {report.abelian_side} (externally computed published value)",
    ]
    if report.stack_count != report.abelian_side:
        lines.append(
            f"{report.stack_count} != {report.abelian_side}: "
            "supersingular locus not contained in Torelli locus (evidence)"
        )
    else:
        lines.append("stack counts agree")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------


class VerificationReport(Value):
    __slots__ = _fields = ("ok", "lines", "failures")

    def __init__(self, ok: bool, lines: tuple[str, ...], failures: tuple[str, ...]) -> None:
        setfield(self, "ok", ok)
        setfield(self, "lines", lines)
        setfield(self, "failures", failures)  # offending curve ids


def verify_propositions(records) -> VerificationReport:
    """The census-wide assertions, checked over the given records:

    1. no smooth model on the smooth quadric meets the [4,3] criterion;
    2. every smooth 2-rank-0 hyperelliptic model has EO type [4,2];
    3. no smooth model has a-number 3 or more, nor an unknown one;
    4. at most 65 distinct supersingular Weil polynomials occur.

    records is a CensusTable or an iterable of CensusRecords.  Each check
    runs once per smooth row; a failing row counts, and names, every model
    that carries it.
    """
    table = CensusTable.of(records)
    smooth = [(r, rec) for r, rec in enumerate(table.row_records()) if rec.smooth]
    checks = (
        ("no smooth ns model meets the [4,3] criterion",
         lambda rec: rec.kind == "ns" and rec.type43),
        ("every smooth 2-rank-0 hyperelliptic model has EO type [4,2]",
         lambda rec: rec.kind == "hyp" and rec.two_rank == 0 and rec.eo_mu != (4, 2)),
        ("no smooth model has a-number >= 3",
         lambda rec: rec.a_number is None or rec.a_number >= 3),
    )
    lines = []
    failures: list[str] = []
    for claim, fails in checks:
        (bad,) = table.member_ids([{r for r, rec in smooth if fails(rec)}])
        lines.append(_check_line(claim, bad))
        failures += bad

    ss = len({rec.weil for _, rec in smooth if rec.stratum == "S4"})
    lines.append(f"{'PASS' if ss <= 65 else 'FAIL'}: {ss} distinct supersingular Weil polynomials observed (bound 65)")
    return VerificationReport(ok=not failures and ss <= 65, lines=tuple(lines), failures=tuple(failures))


def _check_line(claim: str, bad: list[str]) -> str:
    if not bad:
        return f"PASS: {claim}"
    shown = ", ".join(bad[:8]) + (", ..." if len(bad) > 8 else "")
    return f"FAIL: {claim} ({len(bad)} violations: {shown})"

"""Exhaustive census of genus-4 curve models over F_2.

Model domains
-------------

* ``ns`` / ``cone``: all 2^16 reduced cubic bitmasks on the fixed quadric.
* ``hyp``: all (h, f) with deg h <= 5, deg f <= 10 and the genus-4 shape
  max(2 deg h, deg f) in {9, 10}; 113152 models in total.

Every model gets one CensusRecord, keyed by its curve id.  Singular models
carry only a diagnostic note; smooth models carry counts N_1..N_4, the Weil
polynomial, Newton slopes, the stratum label, p-rank, a-number, 2-rank, the
[4,3]-criterion flag and the Ekedahl-Oort classification where the p-rank-0
table applies.  Internal cross-checks (count/Weil round trip, 2-rank against
the zero-slope count, the branch-point count for hyperelliptic models) abort
the run with the offending curve id rather than emit a bad record.

Fast paths, each validated against the generic engines in the test suite:

* quadric counting runs the quadric scan of curves (_quadric_scan): each of
  the 2^16 masks is the XOR of two byte tables of packed words, one uint32
  per Frobenius orbit of quadric points over F_2..F_16 holding the
  monomial value and the six Jacobian 2x2 minors as nibbles, in numpy
  blocks; a zero word is exactly a rational singular point, a zero low
  nibble an orbit on the curve, and N_n adds d times the on-curve orbits
  of each degree d | n.  The tables are built by numpy for the orbits'
  first points of a field at once;
* the masks without one are decided once per orbit of the quadric's
  stabilizer: image tables (_quadric_images) give each mask its orbit's
  least mask.  numpy builds them for all elements at once, each a 16-bit
  matrix whose rows are linear forms, by gathering F_2 bitset products
  from a form x form and a quadric monomial x form table.  That
  representative's scan flag is read from the kind's one scan of all 2^16
  masks, and its smoothness (_quadric_smooth_f2: gcds of packed
  u-polynomials on one chart, no factorization) and Cartier data are
  computed once per process and broadcast to the members; counts stay
  per mask, so each distinct count vector of an orbit is checked against
  the broadcast 2-rank.  classify_model and is_smooth decide the model
  itself, and classify_model builds the model's own Cartier operator, a
  second route to the same records;
* the Cartier matrix of a quadric mask is F_2-linear in its bits, so an
  orbit representative's Cartier data (_ns_cartier) is read from its
  Cartier word, the XOR of 16 basis words, one per single-bit mask
  (cartier.quadric_cartier_word), and ranked once per distinct word
  (cartier.word_invariants); an h's (_hyp_cartier) from its operator
  (cartier.invariants).  Both rank the matrix as F_2 bit images: C, C^2
  and C^4 as packed basis images and XOR bases, C^2 computed once for the
  2-rank and the [4,3] test;
* hyperelliptic counting uses that Tr(f(x)/h(x)^2) is F_2-linear in the
  coefficient bits of f, so one 11-bit functional per (h, x) gives the counts
  of all f at once: one gather of parity(f & l) over the functionals of
  all four degrees per h, for the kept f only.  The functionals of all h
  are one numpy pass per field degree over the (h, x) array
  (_hyp_count_tables);
* hyperelliptic smoothness is decided for all (h, f) in one numpy pass:
  f'^2 + f h'^2 is F_2-linear in the bits of f, so its residue mod h is an
  XOR of 11 column residues, read from tables over the low and the high
  bits of f, and a common-root table of every h against every residue
  decides it; the check at infinity is a bit test.  The result is a code
  per (h, f) (_hyp_smooth_table), and a note is built only per singular row;
* a quadric job's 2^16 ids join 256 high-byte prefixes with the 256
  two-digit low bytes (_quadric_ids);
* a stack count reads each isomorphism orbit from packed F_2-linear image
  tables: the quadric stabilizer's (_quadric_images), and the 384
  hyperelliptic substitutions' (curves._hyp_images), which act F_2-linearly
  on the bits of h and of f, plus a shift t^2 + h' t linear in t.  The
  generic transports apply_transform and hyperelliptic_transformed are
  their test oracles;
* the zeta fields of a job's smooth rows come from one array pass
  (_smooth_rows): zeta.weil_rows_f2 runs the Newton identities and every
  check of weil_from_counts and the count round trip on int64 columns of
  all rows, and the Newton polygon and stratum are built once per
  valuation pattern of the Weil polynomials, memoised on it;
* the field arithmetic under all of these (gfarith.FieldSpec) reads
  log/antilog tables.

A census result is a CensusTable: the models' ids in id order, one row
index per model, and the distinct id-free rows (the CensusRecord fields
after id); the whole census has 679 rows for 244,224 models.  The table is
a read-only sequence of CensusRecords built on demand, and the queries
(verify_propositions, group_isogeny_classes) read the rows instead: each
predicate runs once per row, and rows turn into ids only for the models a
query selects.

run_census plans its jobs by cost: each quadric kind is one job, so its
tables and orbit decisions are paid once, and hyp is cut into h-ranges of
about equal model count.  A job returns a row table: the ids of its kept
models, one uint16 row index per model, and its distinct rows.  Both job
kinds reduce a model to a head above its counts (_row_table).  The head is
a singular model's note or a smooth model's Cartier data, one of a few
per job: a quadric job has one note per witness field and one decision
per orbit representative, a hyp job three heads per h.  The counts are
read only for a smooth model.  The checks and the record build run once
per distinct (head, counts), which is once per row, in one array pass per
job, naming the first member of the first failing row when they fail.
The parent merges equal rows across jobs and concatenates the tables in
kind order, which is id order, into one CensusTable; no record is built.

Persistence is JSON lines: one header object carrying the schema version
and the record count, then one record per line, sorted by curve id, exact
integers as strings.  Output is byte-identical for any worker count.
write_records serializes each row once and splices each id into its
template, and read_records parses each distinct id-free remainder once and
returns a CensusTable, building no record per line.  Both directions hold
ids to one rule: the curve_id of a census model, in its one spelling, which
has no '"' or '\\' to escape; any other id is refused, so no model is
written or read under two ids.
"""

import json
import operator
import os
import re
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, repeat
from operator import add
from typing import NamedTuple

import numpy as np

from . import cartier
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
    hyperelliptic_from_masks,
    hyperelliptic_transformed,  # noqa: F401
    is_smooth,
    jacobian_aut_order,
    parse_curve_id,
    quadric_curve_from_mask,
    quadric_stabilizer_f2,  # noqa: F401
)
from .dieudonne import EoLabel, eo_classify_curve
from .gfarith import field, gf2x_degree, gf2x_factor
from .zeta import GENUS, WEIL_ROW_FAILURES, WeilPolynomial, _newton_polygon, classify_stratum, weil_rows_f2
# unused here since _smooth_rows checks all rows of a job in one array pass;
# kept bound because the benchmark's traced run wraps them in this module by
# name, which tests/test_surface.py checks
from .zeta import newton_polygon, predicted_counts, weil_from_counts  # noqa: F401

SCHEMA = "g4c2-census/1"
KINDS = ("cone", "hyp", "ns")
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


class CensusTable(Sequence):
    """A census result, one row index per model.

    ids lists the curve ids in order; row is a numpy integer array with
    row[i] the index in rows of model i's id-free row, the CensusRecord
    fields after id; rows holds the rows, each shared by the models that
    carry it.  The table is a read-only Sequence of CensusRecords: len,
    indexing and iteration build records on demand, and the records of one
    row share its field objects.  Queries read the rows instead: they run a
    predicate once per row (row_records) and turn rows into ids only for
    the models it selects (member_ids).
    """

    __slots__ = ("ids", "row", "rows")

    def __init__(self, ids: list[str], row: np.ndarray, rows: tuple[tuple, ...]):
        self.ids = ids
        self.row = row
        self.rows = rows

    @classmethod
    def of(cls, records) -> "CensusTable":
        """records itself when it is a table, else the table of an iterable
        of CensusRecords, in their order, with one row per distinct id-free
        record."""
        if isinstance(records, cls):
            return records
        index: dict[tuple, int] = {}
        ids, row = [], []
        for rec in records:
            ids.append(rec[0])
            row.append(index.setdefault(rec[1:], len(index)))
        return cls(ids, _row_array(row, len(index)), tuple(index))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return CensusRecord(self.ids[i], *self.rows[self.row[i]])

    def __iter__(self):
        # CensusRecord._make((cid, *rows[r])) per model, looped in C
        return map(tuple.__new__, repeat(CensusRecord),
                   map(add, zip(self.ids), map(self.rows.__getitem__, self.row.tolist())))

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
        return [[self.ids[i] for i in order[lo:hi].tolist()]
                for lo, hi in zip([0] + ends, ends[:len(groups)])]


def record_to_json(rec: CensusRecord) -> str:
    """One JSON line; exact integers as strings, None fields omitted."""
    d: dict = {"id": rec.id, "kind": rec.kind, "smooth": rec.smooth}
    if rec.note:
        d["note"] = rec.note
    if rec.counts is not None:
        d["counts"] = [str(n) for n in rec.counts]
    if rec.weil is not None:
        d["weil"] = [str(c) for c in rec.weil]
    if rec.slopes is not None:
        d["slopes"] = [str(s) for s in rec.slopes]
    for key in ("stratum", "p_rank", "a_number", "two_rank", "type43", "aut", "jacobian_aut"):
        v = getattr(rec, key)
        if v is not None:
            d[key] = v
    if rec.eo_mu is not None:
        d["eo_mu"] = list(rec.eo_mu)
    if rec.eo_candidates is not None:
        d["eo_candidates"] = [list(mu) for mu in rec.eo_candidates]
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def _unique_keys(pairs) -> dict:
    d = dict(pairs)
    if len(d) != len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in d if keys.count(k) > 1)!r}")
    return d


# the whole census has seven slope strings; Fractions are immutable, so the
# records share one parsed Fraction per string (a failed parse is not cached)
_slope = lru_cache(maxsize=None)(Fraction)


def record_from_json(line: str) -> CensusRecord:
    """The record of one JSON line; a line that repeats a key is refused."""
    d = json.loads(line, object_pairs_hook=_unique_keys)
    return CensusRecord(
        id=d["id"],
        kind=d["kind"],
        smooth=d["smooth"],
        note=d.get("note", ""),
        counts=tuple(int(n) for n in d["counts"]) if "counts" in d else None,
        weil=tuple(int(c) for c in d["weil"]) if "weil" in d else None,
        slopes=tuple(_slope(s) for s in d["slopes"]) if "slopes" in d else None,
        stratum=d.get("stratum"),
        p_rank=d.get("p_rank"),
        a_number=d.get("a_number"),
        two_rank=d.get("two_rank"),
        type43=d.get("type43"),
        eo_mu=tuple(d["eo_mu"]) if "eo_mu" in d else None,
        eo_candidates=tuple(tuple(mu) for mu in d["eo_candidates"]) if "eo_candidates" in d else None,
        aut=d.get("aut"),
        jacobian_aut=d.get("jacobian_aut"),
    )


# an id the reader can name in an error: a JSON string body that is the id itself
_ID = re.compile(r'[ !#-\[\]-~]+')
_ID_RULE = "printable ASCII without '\"' or '\\'"
# the curve_id of every census model, in its one spelling: a quadric mask
# in four hex digits; hyp h in 0x01..0x3f with f in 0x000..0x7ff when
# deg h = 5 and in 0x200..0x7ff otherwise (the genus-4 shape)
_CURVE_ID = (r"(?:cone|ns);c=0x[0-9a-f]{4}"
             r"|hyp;h=0x(?:[23][0-9a-f];f=0x[0-7]|(?:0[1-9a-f]|1[0-9a-f]);f=0x[2-7])[0-9a-f]{2}")
_IS_CURVE_ID = re.compile(_CURVE_ID).fullmatch
# group 1 is a curve id, group 2 any other nameable id
_ID_FIELD = re.compile(r'"id":"(?:(' + _CURVE_ID + ')|(' + _ID.pattern + '))"')


def _check_ids(ids: list) -> None:
    """Refuse the first id that is not the curve_id of a census model
    (_CURVE_ID) or does not strictly follow the one before it, naming it."""
    try:
        # both rules over the whole list in C; the loop below names the culprit
        if all(map(_IS_CURVE_ID, ids)) and all(map(str.__lt__, ids, islice(ids, 1, None))):
            return
    except TypeError:  # an id that is not a str
        pass
    prev = ""
    for cid in ids:
        if not (isinstance(cid, str) and _IS_CURVE_ID(cid)):
            raise ValueError(f"record id {cid!r} is not the curve_id of a census model")
        if cid <= prev:
            raise ValueError(f"record id {cid!r} does not follow {prev!r} "
                             "(ids must be strictly ascending)")
        prev = cid


def write_records(path, records) -> None:
    """Header and records (a CensusTable or an iterable of CensusRecords),
    written to a temporary file beside path and then renamed onto it, so a
    failed write leaves an existing file unchanged.

    Each line is record_to_json's, built from one template per row of the
    records' table with the id spliced in.  An id that is not the curve_id
    of a census model (_CURVE_ID) is refused, naming it, and so is an id
    that does not strictly follow the one before it (read_records refuses
    both); the ids are checked before the file is opened.  A failed open
    names path, not the temporary file.
    """
    table = CensusTable.of(records)
    _check_ids(table.ids)
    heads, tails = [], []
    for rec in table.row_records():
        head, _, tail = record_to_json(rec).partition('"id":""')
        heads.append(head + '"id":"')
        tails.append('"' + tail + "\n")
    row = table.row.tolist()
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w", encoding="ascii")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            header = {"records": len(table), "schema": SCHEMA}
            fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
            # heads[r] + cid + tails[r] per model, looped in C
            fh.writelines(map(add, map(heads.__getitem__, row),
                              map(add, table.ids, map(tails.__getitem__, row))))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _non_ascii(path, lineno: int, line: str) -> ValueError:
    """The error for a line read with errors="surrogateescape" that holds a
    byte outside ASCII, naming the line and the first such byte."""
    raw = line.encode("ascii", "surrogateescape")
    col = next(i for i, b in enumerate(raw) if b > 0x7F)
    return ValueError(f"{path}: line {lineno}: non-ASCII byte 0x{raw[col]:02x} at column {col + 1}")


def read_records(path) -> CensusTable:
    """The CensusTable of a file written by write_records.

    Refuses a header that is not a JSON object (an empty file included) or
    whose records count is not a non-negative integer, a foreign schema, a
    body whose line count differs from the header's, ids that are not
    strictly ascending (a duplicated or moved line), and malformed lines,
    naming the line.  A line is malformed when it has no "id" string that
    is printable ASCII without '"' or '\\', when that id is not the
    curve_id of a census model in its one spelling (so no model is read
    under two ids), or when what remains with the id cut out is not a
    record (a repeated key included).  Each distinct remainder is parsed
    once into a row of the table; no record is built per line.  A line
    holding a byte outside ASCII is refused, naming the line.
    """
    # a byte outside ASCII decodes to a lone surrogate, so str.isascii,
    # which costs nothing per line, finds it
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        first = fh.readline()
        if not first.isascii():
            raise _non_ascii(path, 1, first)
        try:
            header = json.loads(first)
        except ValueError:
            header = None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: line 1: header is not a JSON object: {first.strip()[:80]!r}")
        if header.get("schema") != SCHEMA:
            raise ValueError(f"unsupported records schema {header.get('schema')!r} (want {SCHEMA!r})")
        promised = header.get("records")
        if type(promised) is not int or promised < 0:
            raise ValueError(f"{path}: line 1: header records count {promised!r} "
                             "is not a non-negative integer")
        index: dict[str, int] = {}  # id-free remainder -> its row
        rows: list[tuple] = []
        ids: list[str] = []
        row: list[int] = []
        prev = ""
        for lineno, line in enumerate(fh, start=2):
            if not line.isascii():
                raise _non_ascii(path, lineno, line)
            m = _ID_FIELD.search(line)
            try:
                if m is None:
                    raise ValueError(f"no \"id\" string of {_ID_RULE}")
                cid = m[1]
                if cid is None:
                    raise ValueError(f"id {m[2]!r} is not the curve_id of a census model")
                rest = line[:m.start(1)] + line[m.end(1):]
                r = index.get(rest)
                if r is None:
                    rows.append(record_from_json(rest)[1:])
                    r = index[rest] = len(rows) - 1
            except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
                raise ValueError(f"{path}: line {lineno}: malformed record: {exc!r}") from None
            if cid <= prev:
                raise ValueError(f"{path}: line {lineno}: id {cid!r} does not follow {prev!r} "
                                 "(ids must be strictly ascending)")
            prev = cid
            ids.append(cid)
            row.append(r)
    if len(ids) != promised:
        raise ValueError(f"{path}: header promises {promised} records, "
                         f"the body has {len(ids)}")
    return CensusTable(ids, _row_array(row, len(rows)), tuple(rows))


# ---------------------------------------------------------------------------
# hyperelliptic fast path: counts linear in the coefficient bits of f
# ---------------------------------------------------------------------------

_PARITY = np.array([bin(i).count("1") & 1 for i in range(1 << 11)], np.uint8)


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
        hx = np.bitwise_xor.reduce([((hs >> i) & 1) * xp[i] for i in range(6)], axis=0)  # (h, x)
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
    low, high = np.zeros((64, 1), np.uint8), np.zeros((64, 1), np.uint8)
    for i in range(6):
        low = np.concatenate([low, low ^ column[:, i:i + 1]], axis=1)
    for i in range(6, 11):
        high = np.concatenate([high, high ^ column[:, i:i + 1]], axis=1)
    high |= at_infinity.astype(np.uint8) << 5
    residue = (high[:, :, None] ^ low[:, None, :]).reshape(64, 2048)  # f = 64 (f >> 6) + (f & 63)
    product = np.bitwise_xor.reduce((hs[None, :, None] & bits[:6] != 0) * (hs[:, None, None] << np.arange(6)),
                                    axis=2)  # product[d, m], carry-less
    divides = np.zeros((64, 64), np.int16)  # divides[d, x]: d times some m is x
    d, m = np.nonzero(product < 64)
    divides[d, product[d, m]] = 1
    common_root = (divides[2:].T @ divides[2:, :32]) > 0
    code = np.concatenate([common_root, np.where(common_root, 1, 2)], axis=1).astype(np.uint8)
    codes = code.ravel().take((hs[:, None].astype(np.uint16) << 6) | residue)
    codes.flags.writeable = False
    return codes


@lru_cache(maxsize=None)
def _hyp_cartier(hm: int):
    """(a_number, two_rank, type43) for every model sharing this h.

    The Cartier matrix in the basis x^(i-1) dx/h depends on h alone.  An
    Artin-Schreier double cover has 2-rank = (number of branch points) - 1;
    the branch points are the distinct roots of h plus infinity when
    deg h < 5, so the matrix-side 2-rank is checked against that count.
    """
    a, s2, t43 = cartier.invariants(cartier_operator(hyperelliptic_from_masks(hm, 1 << 10)))
    branch = sum(gf2x_degree(p) for p, _ in gf2x_factor(hm))
    branch += 1 if gf2x_degree(hm) < 5 else 0
    if s2 != branch - 1:
        raise RuntimeError(
            f"2-rank {s2} of the Cartier operator disagrees with {branch} branch points for h=0x{hm:02x}"
        )
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
    and runs the checks of weil_from_counts and the count round trip.  The
    Newton polygon and stratum are built once per valuation pattern of the
    L-coefficients (zeta._newton_polygon), and each row's 2-rank is
    checked against its zero slopes.  The first failing row i raises
    RuntimeError naming ids[i], with the first check it fails in the order
    of the scalar route (weil_from_counts, predicted_counts,
    newton_polygon, the 2-rank, eo_classify_curve).
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
            an, s2, t43 = carts[i]
            if s2 != poly.p_rank:
                raise ValueError(f"2-rank {s2} from the Cartier operator, {poly.p_rank} zero slopes")
            eo_mu = eo_candidates = None
            if poly.p_rank == 0:
                label = eo_classify_curve(stratum, an, t43)
                if isinstance(label, EoLabel):
                    eo_mu = label.mu
                else:
                    eo_candidates = label.options
        except ValueError as exc:
            raise RuntimeError(f"inconsistent invariants for {ids[i]}: {exc}") from None
        rows.append((tuple(n), tuple(reversed(l_coeffs)), poly.slopes, stratum.name, poly.p_rank,
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


def _packed_counts(counts: np.ndarray, ids, pos) -> np.ndarray:
    """Each row of counts (N_1..N_4) packed into 24 bits; ids[pos[i]] names
    row i.  A smooth model has every N_n <= 17 + 8 * 4 = 49; the 6-bit bound
    is checked all the same, so that a wider count aborts instead of
    aliasing another key."""
    counts = counts.astype(np.int64)
    wide = (counts >> 6).any(axis=1)
    if wide.any():
        i = int(wide.argmax())
        raise RuntimeError(f"counts {tuple(counts[i].tolist())} of {ids[pos[i]]} "
                           "exceed the 6 bits per count of the row key")
    return (counts << _COUNT_SHIFTS).sum(axis=1)


def _row_key(row: tuple) -> tuple:
    """An id-free row without its slopes, which its Weil polynomial
    determines; rows compare by this key, so that no Fraction is hashed
    (Fraction.__hash__ runs in Python)."""
    return row[:5] + row[6:]


def _kept(ids: list[str], keep):
    """Positions and ids of the ids that keep accepts, every id when keep is
    None; keep is called once per id."""
    if keep is None:
        return np.arange(len(ids)), ids
    pos = [i for i, cid in enumerate(ids) if keep(cid)]
    return np.array(pos, np.intp), [ids[i] for i in pos]


def _head_index(heads: dict, values) -> np.ndarray:
    """The index in heads of each value, adding to heads the values it has
    not seen."""
    return np.array([heads.setdefault(v, len(heads)) for v in values], np.intp)


def _row_table(kind: str, ids: list[str], head: np.ndarray, heads: list,
               counts: np.ndarray) -> tuple[np.ndarray, tuple]:
    """(row index per model as uint16, distinct id-free rows) for one job.

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
    keys[smooth] |= _packed_counts(counts[smooth], ids, smooth)
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    key_row = np.empty(len(uniq), np.uint16)
    key_row[order] = np.arange(len(uniq))
    keys, first = uniq[order], first[order]
    key_head = (keys >> 24).tolist()
    smooth_keys = np.flatnonzero(is_smooth[key_head])
    fields = iter(_smooth_rows((keys[smooth_keys, None] >> _COUNT_SHIFTS) & 63,
                               [heads[key_head[r]] for r in smooth_keys.tolist()],
                               [ids[i] for i in first[smooth_keys].tolist()]))
    rows = tuple(CensusRecord("", kind, True, "", *next(fields))[1:] if is_smooth[h]
                 else CensusRecord("", kind, False, heads[h])[1:] for h in key_head)
    return key_row[inverse], rows


_HEX2 = tuple(f"{b:02x}" for b in range(256))


def _quadric_ids(kind: str) -> list[str]:
    """The curve ids of all 2^16 masks of a quadric kind, in mask order: 256
    high-byte prefixes, each joined with the 256 two-digit low bytes."""
    return [prefix + low for prefix in [f"{kind};c=0x{b:02x}" for b in range(256)] for low in _HEX2]


def _quadric_chunk(kind: str, keep=None) -> tuple[list[str], np.ndarray, tuple]:
    """Row table (see _census_job) of the masks of one quadric kind that
    keep accepts.  One scan covers all 2^16 masks, so every orbit
    representative lies in it.

    A flagged mask's head is its note, which names only the field of its
    witness column, so it is built once per field.  An open mask's head is
    its orbit representative's decision, made once per distinct
    representative: the note when it is singular, else its Cartier data,
    which is broadcast to every member's counts, so the 2-rank is checked
    against every distinct count vector of the orbit.
    """
    counts, flagged, witness = _quadric_scan(kind, 0, 1 << 16)
    masks, ids = _kept(_quadric_ids(kind), keep)
    heads: dict = {}
    head = np.empty(len(masks), np.intp)
    flag_pos = np.flatnonzero(flagged[masks])
    degree = np.searchsorted(_quadric_tables(kind)[2], witness[masks[flag_pos]], side="right")
    _, first, of_field = np.unique(degree, return_index=True, return_inverse=True)
    notes = [_scan_singular(kind, int(witness[masks[flag_pos[i]]])).note for i in first.tolist()]
    head[flag_pos] = _head_index(heads, notes)[of_field]
    open_pos = np.flatnonzero(~flagged[masks])
    reps = _quadric_images(kind, masks[open_pos]).min(axis=1)
    bad = flagged[reps]
    if bad.any():
        i = int(bad.argmax())
        cid = ids[open_pos[i]]
        raise RuntimeError(f"the scan flags the orbit representative {kind};c=0x{reps[i]:04x} "
                           f"of {cid} but not {cid} itself")
    distinct, of_rep = np.unique(reps, return_inverse=True)
    decisions = [_quadric_orbit_decision(kind, rep) for rep in distinct.tolist()]
    head[open_pos] = _head_index(heads, [cart if res.smooth else res.note for res, cart in decisions])[of_rep]
    return (ids, *_row_table(kind, ids, head, list(heads), counts[masks]))


def _hyp_f_min(hm: int) -> int:
    """Least f mask of the genus-4 shape: deg h = 5 admits every f, deg h <= 4
    forces deg f in {9, 10}."""
    return 0 if hm >= 32 else 512


_F_SUFFIX = tuple(f";f=0x{fm:03x}" for fm in range(2048))


def _hyp_chunk(h0: int, h1: int, keep=None) -> tuple[list[str], np.ndarray, tuple]:
    """Row table (see _census_job) of the hyp models with h0 <= h < h1 that
    keep accepts.

    Each h has three heads, indexed by the _hyp_smooth_masks code of f: its
    Cartier data, which depends on h alone, and the two notes of
    _HYP_NOTES.  Per h, one parity gather counts the kept smooth models.
    """
    ids: list[str] = []
    head: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    heads: dict = {}
    for hm in range(h0, h1):
        prefix = f"hyp;h=0x{hm:02x}"
        f0 = _hyp_f_min(hm)
        pos, hids = _kept([prefix + suffix for suffix in _F_SUFFIX[f0:]], keep)
        fms = pos + f0
        codes = _hyp_smooth_masks(hm)[fms]
        smooth = codes == 0
        h_counts = np.zeros((len(fms), len(_DEGREES)), np.int16)
        h_counts[smooth] = _hyp_counts_vector(hm, fms[smooth])
        head.append(_head_index(heads, (_hyp_cartier(hm), *_HYP_NOTES[1:]))[codes])
        counts.append(h_counts)
        ids += hids
    return (ids, *_row_table("hyp", ids, np.concatenate(head), list(heads), np.concatenate(counts)))


def classify_model(curve) -> CensusRecord:
    """The census pipeline applied to a single model (any census encoding)."""
    if isinstance(curve, HyperellipticCurve):
        kind = "hyp"
    elif isinstance(curve, QuadricCubicCurve):
        kind = curve.kind
    else:
        raise TypeError(f"not a curve: {curve!r}")
    cid = curve.curve_id
    res = is_smooth(curve)
    if not res.smooth:
        return CensusRecord(id=cid, kind=kind, smooth=False, note=res.note)
    counts = tuple(count_points(curve, n, raw=True) for n in _DEGREES)
    # the model's own operator, not the census's Cartier word of its mask
    cart = _hyp_cartier(curve.masks[0]) if kind == "hyp" else cartier.invariants(cartier_operator(curve))
    return _classified_record(kind, cid, counts, cart)


def _census_job(job) -> tuple[list[str], np.ndarray, tuple]:
    """The row table of one job: the ids of its kept models in id order, a
    uint16 array with one row index per model, and the tuple of the job's
    distinct id-free rows (CensusRecord fields after id).  A job is
    (kind, keep) for a quadric kind and ("hyp", h0, h1, keep)."""
    kind, *h_range, keep = job
    if kind == "hyp":
        return _hyp_chunk(*h_range, keep)
    return _quadric_chunk(kind, keep)


def _hyp_ranges(pieces: int) -> list[tuple[int, int]]:
    """Contiguous ranges [h0, h1) covering h = 1..63, min(pieces, 63) of them,
    of about equal model count: each range takes the next h while that
    brings it closer to an equal share of the models still left."""
    models = [2048 - _hyp_f_min(hm) for hm in range(64)]
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
    then hyp cut into `workers` h-ranges of about equal model count."""
    jobs = [(kind, keep) for kind in kinds if kind != "hyp"]
    if "hyp" in kinds:
        jobs += [("hyp", h0, h1, keep) for h0, h1 in _hyp_ranges(workers)]
    return jobs


def run_census(kinds=KINDS, workers: int = 1, id_filter=None) -> CensusTable:
    """The CensusTable of every model of the requested kinds, in id order.

    The jobs are those of _census_jobs: one per quadric kind, and hyp cut
    into `workers` contiguous h-ranges of about equal model count.  They run
    in a pool of min(workers, jobs) processes, or in this process when that
    is one, and each returns a row table (_census_job).  The parent merges
    equal rows across jobs and concatenates the tables in kind order, which
    is id order; the result is identical for any worker count.  id_filter,
    when given, keeps only ids it accepts (it must be picklable when a pool
    runs).
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
        with ProcessPoolExecutor(max_workers=processes) as pool:
            tables = list(pool.map(_census_job, jobs))
    index: dict[tuple, int] = {}  # _row_key -> index in rows
    rows: list[tuple] = []
    ids: list[str] = []
    parts = [np.zeros(0, np.intp)]
    # a stable sort by kind keeps the hyp ranges in ascending h
    for _, (job_ids, row, job_rows) in sorted(zip(jobs, tables), key=lambda part: part[0][0]):
        ids += job_ids
        merged = []
        for r in job_rows:
            m = index.setdefault(_row_key(r), len(rows))
            if m == len(rows):
                rows.append(r)
            merged.append(m)
        parts.append(np.array(merged, np.intp)[row])
    return CensusTable(ids, _row_array(np.concatenate(parts), len(rows)), tuple(rows))


# ---------------------------------------------------------------------------
# isogeny classes and stack counts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsogenyClassReport:
    """One F_2-isogeny class drawn from the census.

    member_ids lists every smooth record with the class's Weil polynomial;
    iso_rep_ids collapses them to one canonical model per F_2-isomorphism
    class, jacobian_auts gives |Aut(Jacobian)| for each, and stack_count is
    the sum of 1/|Aut(Jacobian)| over those classes.
    """

    weil: tuple[int, ...]
    q: int
    member_ids: tuple[str, ...]
    iso_rep_ids: tuple[str, ...]
    jacobian_auts: tuple[int, ...]
    stack_count: Fraction
    abelian_side: Fraction | None = None


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


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    lines: tuple[str, ...]
    failures: tuple[str, ...]  # offending curve ids


def verify_propositions(records) -> VerificationReport:
    """The census-wide assertions, checked over the given records:

    1. no smooth model on the smooth quadric meets the [4,3] criterion;
    2. every smooth 2-rank-0 hyperelliptic model has EO type [4,2];
    3. no smooth model has a-number 3 or more (where the a-number is known);
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
         lambda rec: rec.a_number is not None and rec.a_number >= 3),
    )
    lines = []
    failures: list[str] = []
    for claim, fails in checks:
        (bad,) = table.member_ids([{r for r, rec in smooth if fails(rec)}])
        lines.append(_check_line(claim, bad))
        failures += bad

    ss = sorted({rec.weil for _, rec in smooth if rec.stratum == "S4"})
    ok4 = len(ss) <= 65
    status = "PASS" if ok4 else "FAIL"
    lines.append(f"{status}: {len(ss)} distinct supersingular Weil polynomials observed (bound 65)")

    ok = not failures and ok4
    return VerificationReport(ok=ok, lines=tuple(lines), failures=tuple(failures))


def _check_line(claim: str, bad: list[str]) -> str:
    if not bad:
        return f"PASS: {claim}"
    shown = ", ".join(bad[:8]) + (", ..." if len(bad) > 8 else "")
    return f"FAIL: {claim} ({len(bad)} violations: {shown})"

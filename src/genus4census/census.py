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
  per quadric point over F_2..F_16 holding the monomial value and the six
  Jacobian 2x2 minors as nibbles, in numpy blocks; a zero word is exactly
  a rational singular point, and a zero low nibble a point on the curve;
* the masks without one are decided once per orbit of the quadric's
  stabilizer: image tables (_quadric_images, built from F_2 bitset
  products of each element's linear forms) give each mask its orbit's
  least mask.  That representative's scan flag is read from the chunk's
  own scan, and its smoothness (the chart-only symbolic engine,
  _quadric_smooth_f2) and ns Cartier data are computed once per process
  and broadcast to the members; counts stay per mask, so each member's
  counts are checked against the broadcast 2-rank.  classify_model and
  is_smooth decide the model itself, a second route to the same records;
* hyperelliptic counting uses that Tr(f(x)/h(x)^2) is F_2-linear in the
  coefficient bits of f, so one 11-bit functional per (h, x) gives the counts
  of all f at once: one gather of parity(f & l) over the functionals of
  all four degrees per h, for the kept f only;
* hyperelliptic smoothness is decided once per residue: f'^2 + f h'^2 is
  F_2-linear in the bits of f, so its residue mod h is an XOR of 11 column
  residues, and gcd(h, residue) is computed once for each of the at most 32
  residues of an h (_hyp_smooth_masks); the check at infinity is a bit test;
* a stack count reads each isomorphism orbit from packed F_2-linear image
  tables: the quadric stabilizer's (_quadric_images), and the 384
  hyperelliptic substitutions' (curves._hyp_images), which act F_2-linearly
  on the bits of h and of f, plus a shift t^2 + h' t linear in t.  The
  generic transports apply_transform and hyperelliptic_transformed are
  their test oracles;
* the field arithmetic under all of these (gfarith.FieldSpec) reads
  log/antilog tables, and the Newton polygon is memoised on the valuation
  pattern of the Weil polynomial.

run_census plans its jobs by cost: each quadric kind is one job, so its
tables and orbit decisions are paid once, and hyp is cut into h-ranges of
about equal model count.

Persistence is JSON lines: one header object carrying the schema version
and the record count, then one record per line, sorted by curve id, exact
integers as strings.  Output is byte-identical for any worker count.  The
whole census has only a few hundred distinct lines once the id is cut out,
so write_records serializes each id-free record once and splices each id
into its template, and read_records parses each id-free remainder once and
shares the parsed field tuples between the records that carry it.  Ids are
therefore restricted to printable ASCII without '"' or '\\', which every
curve id is, and both directions refuse any other id; read_records also
refuses an id that is not a census model's curve_id.
"""

import json
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import cartier
from .cartier import cartier_hyperelliptic, cartier_ns
from .curves import (
    HyperellipticCurve,
    QuadricCubicCurve,
    _HYP_AFFINE_NOTE,
    _HYP_INFINITY_NOTE,
    _hyp_images,
    _quadric_images,
    _quadric_scan,
    _quadric_smooth_f2,
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
from .gfarith import field, gf2x_degree, gf2x_factor, gf2x_gcd, gf2x_mod, gf2x_mul
from .zeta import GENUS, classify_stratum, newton_polygon, predicted_counts, weil_from_counts

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
    models, the matrix-derived ones (a_number, type43) for cone models of
    positive p-rank, and the EO fields outside p-rank 0.  aut and
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


# an id as the records file stores it: its JSON string body is the id itself
_ID = re.compile(r'[ !#-\[\]-~]+')
_ID_RULE = "printable ASCII without '\"' or '\\'"
# the curve_id of every census model, in its one spelling: a quadric mask
# in four hex digits; hyp h in 0x01..0x3f with f in 0x000..0x7ff when
# deg h = 5 and in 0x200..0x7ff otherwise (the genus-4 shape)
_CURVE_ID = (r"(?:cone|ns);c=0x[0-9a-f]{4}"
             r"|hyp;h=0x(?:[23][0-9a-f];f=0x[0-7]|(?:0[1-9a-f]|1[0-9a-f]);f=0x[2-7])[0-9a-f]{2}")
# group 1 is a curve id, group 2 any other id of the write rule
_ID_FIELD = re.compile(r'"id":"(?:(' + _CURVE_ID + ')|(' + _ID.pattern + '))"')


def write_records(path, records) -> None:
    """Header and records, written to a temporary file beside path and then
    renamed onto it, so a failed write leaves an existing file unchanged.

    Each line is record_to_json's, built from a template per id-free record
    (rec[1:]) with the id spliced in.  The template key takes the slopes
    tuple by identity, since hashing its Fractions runs in Python; records
    of one key share that tuple, and the template holds it so that its id
    stays unique while the write runs.  An id that is not printable ASCII,
    or holds '"' or '\\', is refused.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    templates: dict[tuple, tuple[str, str, tuple | None]] = {}
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            header = {"records": len(records), "schema": SCHEMA}
            fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
            for rec in records:
                cid = rec.id
                if not (isinstance(cid, str) and _ID.fullmatch(cid)):
                    raise ValueError(f"record id {cid!r} is not {_ID_RULE}")
                key = (id(rec.slopes), rec[1:6], rec[7:])  # rec[6] is slopes
                template = templates.get(key)
                if template is None:
                    head, _, tail = record_to_json(rec._replace(id="")).partition('"id":""')
                    template = templates[key] = (head + '"id":"', '"' + tail + "\n", rec.slopes)
                fh.write(template[0] + cid + template[1])
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


def read_records(path) -> list[CensusRecord]:
    """Records of a file written by write_records.

    Refuses a header that is not a JSON object (an empty file included) or
    whose records count is not a non-negative integer, a foreign schema, a
    body whose line count differs from the header's, ids that are not
    strictly ascending (a duplicated or moved line), and malformed lines,
    naming the line.  A line is malformed when it has no "id" string that
    is printable ASCII without '"' or '\\', when that id is not the
    curve_id of a census model in its one spelling (so no model is read
    under two ids), or when what remains with the id cut out is not a
    record (a repeated key included).  Each distinct
    remainder is parsed once, and its records share the parsed field tuples.
    A line holding a byte outside ASCII is refused, naming the line.
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
        tails: dict[str, tuple] = {}
        records = []
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
                tail = tails.get(rest)
                if tail is None:
                    tail = tails[rest] = record_from_json(rest)[1:]
            except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
                raise ValueError(f"{path}: line {lineno}: malformed record: {exc!r}") from None
            if cid <= prev:
                raise ValueError(f"{path}: line {lineno}: id {cid!r} does not follow {prev!r} "
                                 "(ids must be strictly ascending)")
            prev = cid
            records.append(CensusRecord(cid, *tail))
    if len(records) != promised:
        raise ValueError(f"{path}: header promises {promised} records, "
                         f"the body has {len(records)}")
    return records


# ---------------------------------------------------------------------------
# hyperelliptic fast path: counts linear in the coefficient bits of f
# ---------------------------------------------------------------------------

_PARITY = np.array([bin(i).count("1") & 1 for i in range(1 << 11)], np.uint8)


@lru_cache(maxsize=None)
def _hyp_count_data(hm: int):
    """(bases, functionals, starts) with N_n(f) = bases[n-1] - 2 sum_l
    parity(f & l), the sum over the functionals from starts[n-1] up to the
    next degree's start.

    Each x with h(x) != 0 contributes 2 points when Tr(f(x)/h(x)^2) = 0 and
    none otherwise; the trace is an XOR over the set bits i of f of the
    fixed values Tr(x^i/h(x)^2), which pack into an 11-bit functional l.
    Roots of h contribute one point each, as does infinity when deg h < 5;
    for deg h = 5 infinity behaves like an extra functional with only the
    f10 bit (Tr(1) = n mod 2).  Each degree's functionals start with 0,
    which adds nothing, so that no degree has an empty run.
    """
    bases, lms, starts = [], [], []
    for n in _DEGREES:
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
    return np.array(bases, np.int16), np.array(lms, np.int16), np.array(starts)


def _hyp_counts_vector(hm: int, farr: np.ndarray) -> np.ndarray:
    """N_1..N_4 for every f mask in farr at once; shape (len(farr), 4), from
    one gather of parity(f & l) over the functionals of all four degrees."""
    bases, lms, starts = _hyp_count_data(hm)
    odd = _PARITY.take(np.asarray(farr, np.int16)[:, None] & lms)
    return bases - 2 * np.add.reduceat(odd, starts, axis=1, dtype=np.int16)


_HYP_NOTES = np.array(["", _HYP_AFFINE_NOTE, _HYP_INFINITY_NOTE], dtype=object)


@lru_cache(maxsize=None)
def _hyp_smooth_masks(hm: int) -> tuple[str, ...]:
    """Singular note of every f mask 0..2047 with this h, indexed by the
    mask; "" when the model is smooth.

    An affine point is singular exactly when h and crit = f'^2 + f h'^2
    have a common root.  crit is F_2-linear in the bits of f (squaring is),
    so crit mod h is the XOR of one residue per set bit, and
    gcd(h, crit) = gcd(h, crit mod h) is decided once for each of the
    2^deg h residues.  When deg h < 5 the point at infinity is singular
    exactly when f9 + f10 h4 = 0.
    """
    hd = (hm >> 1) & 0x15  # d/dx keeps odd-exponent bits
    hd2 = gf2x_mul(hd, hd)
    farr = np.arange(2048)
    residue = np.zeros(2048, np.int64)
    for i in range(11):
        fd = (1 << i >> 1) & 0x155
        col = gf2x_mod(gf2x_mul(fd, fd) ^ gf2x_mul(1 << i, hd2), hm)
        residue ^= ((farr >> i) & 1) * col
    common_root = np.array([gf2x_degree(gf2x_gcd(hm, r)) >= 1
                            for r in range(1 << gf2x_degree(hm))])
    codes = np.where(common_root[residue], 1, 0)
    if not (hm >> 5) & 1:
        at_infinity = (((farr >> 9) ^ (farr >> 10) & (hm >> 4)) & 1) == 0
        codes[(codes == 0) & at_infinity] = 2
    return tuple(_HYP_NOTES[codes].tolist())


@lru_cache(maxsize=None)
def _hyp_cartier(hm: int):
    """(a_number, two_rank, type43) for every model sharing this h.

    The Cartier matrix in the basis x^(i-1) dx/h depends on h alone.  An
    Artin-Schreier double cover has 2-rank = (number of branch points) - 1;
    the branch points are the distinct roots of h plus infinity when
    deg h < 5, so the matrix-side 2-rank is checked against that count.
    """
    op = cartier_hyperelliptic(hyperelliptic_from_masks(hm, 1 << 10))
    a = cartier.a_number(op)
    s2 = cartier.two_rank(op)
    branch = sum(gf2x_degree(p) for p, _ in gf2x_factor(hm))
    branch += 1 if gf2x_degree(hm) < 5 else 0
    if s2 != branch - 1:
        raise RuntimeError(
            f"2-rank {s2} of the Cartier operator disagrees with {branch} branch points for h=0x{hm:02x}"
        )
    t43 = cartier.is_type43_candidate(op) if s2 == 0 else None
    return a, s2, t43


# ---------------------------------------------------------------------------
# classification pipeline
# ---------------------------------------------------------------------------


def _ns_cartier(curve: QuadricCubicCurve):
    op = cartier_ns(curve)
    a = cartier.a_number(op)
    s2 = cartier.two_rank(op)
    t43 = cartier.is_type43_candidate(op) if s2 == 0 else None
    return a, s2, t43


@lru_cache(maxsize=None)
def _smooth_invariants(counts: tuple[int, ...], cart) -> tuple:
    """Every record field that the counts and the Cartier data determine,
    counts to eo_candidates in CensusRecord order.

    cart is (a, 2-rank, type43) from the Cartier operator, or None for cone
    models (which have no grid matrix: there the 2-rank is read off the
    slopes, and 2-rank 0 forces a = 2 with the [4,3] layer unreachable).
    A few hundred distinct keys cover the whole census, so the zeta layer
    and its cross-checks run once per key; a failed check raises, and
    lru_cache keeps no entry for it, so every model with a bad key aborts.
    """
    w = weil_from_counts(counts, 2)
    if predicted_counts(w)[:GENUS] != counts:
        raise RuntimeError("count/Weil round trip failed")
    poly = newton_polygon(w)
    stratum = classify_stratum(poly)
    pr = poly.p_rank
    if cart is None:
        a = 2 if pr == 0 else None
        s2 = pr
        t43 = False if pr == 0 else None
    else:
        a, s2, t43 = cart
        if s2 != pr:
            raise RuntimeError(f"2-rank {s2} from the Cartier operator, {pr} zero slopes")
    eo_mu = None
    eo_candidates = None
    if pr == 0:
        label = eo_classify_curve(stratum, a, t43)
        if isinstance(label, EoLabel):
            eo_mu = label.mu
        else:
            eo_candidates = label.options
    return counts, w.coeffs, poly.slopes, stratum.name, pr, a, s2, t43, eo_mu, eo_candidates


def _classified_record(kind: str, cid: str, counts: tuple[int, ...], cart) -> CensusRecord:
    """Full record of a smooth model; see _smooth_invariants for cart."""
    try:
        fields = _smooth_invariants(counts, cart)
    except (ValueError, RuntimeError) as exc:
        raise RuntimeError(f"inconsistent invariants for {cid}: {exc}") from None
    return CensusRecord(cid, kind, True, "", *fields)


@lru_cache(maxsize=None)
def _quadric_orbit_decision(kind: str, rep: int):
    """(SmoothnessResult, Cartier data) of an orbit representative the scan
    leaves unflagged.  Decided once per process and broadcast to the orbit:
    an F_2-automorphism of the quadric maps a model to an isomorphic one,
    with the same smoothness and the same Cartier data."""
    curve = quadric_curve_from_mask(kind, rep)
    res = _quadric_smooth_f2(curve)
    cart = _ns_cartier(curve) if res.smooth and kind == "ns" else None
    return res, cart


def _quadric_chunk(kind: str, m0: int, m1: int, keep=None) -> list[CensusRecord]:
    counts, flagged, witness = _quadric_scan(kind, m0, m1)
    ids = {mask: f"{kind};c=0x{mask:04x}" for mask in range(m0, m1)}
    if keep is not None:
        ids = {mask: cid for mask, cid in ids.items() if keep(cid)}
    flagged = flagged.tolist()
    open_masks = [mask for mask in ids if not flagged[mask - m0]]
    reps = dict(zip(open_masks, _quadric_images(kind, open_masks).min(axis=1).tolist()))
    recs = []
    for mask, cid in ids.items():
        k = mask - m0
        if flagged[k]:
            recs.append(CensusRecord(id=cid, kind=kind, smooth=False,
                                     note=_scan_singular(kind, witness[k]).note))
            continue
        rep = reps[mask]
        # the representative is the orbit's least mask, so it lies in the
        # chunk's own scan unless the chunk starts above it
        if flagged[rep - m0] if rep >= m0 else _quadric_scan(kind, rep, rep + 1)[1][0]:
            raise RuntimeError(f"the scan flags the orbit representative {kind};c=0x{rep:04x} "
                               f"of {cid} but not {cid} itself")
        res, cart = _quadric_orbit_decision(kind, rep)
        if not res.smooth:
            recs.append(CensusRecord(id=cid, kind=kind, smooth=False, note=res.note))
            continue
        recs.append(_classified_record(kind, cid, tuple(counts[k].tolist()), cart))
    return recs


def _hyp_f_min(hm: int) -> int:
    """Least f mask of the genus-4 shape: deg h = 5 admits every f, deg h <= 4
    forces deg f in {9, 10}."""
    return 0 if hm >= 32 else 512


_F_SUFFIX = tuple(f";f=0x{fm:03x}" for fm in range(2048))


def _hyp_chunk(h0: int, h1: int, keep=None) -> list[CensusRecord]:
    recs = []
    for hm in range(h0, h1):
        prefix = f"hyp;h=0x{hm:02x}"
        ids = ((fm, prefix + _F_SUFFIX[fm]) for fm in range(_hyp_f_min(hm), 2048))
        kept = [(fm, cid) for fm, cid in ids if keep is None or keep(cid)]
        notes = _hyp_smooth_masks(hm)
        cart = _hyp_cartier(hm)
        cts = iter(_hyp_counts_vector(hm, [fm for fm, _ in kept if not notes[fm]]).tolist())
        for fm, cid in kept:
            note = notes[fm]
            if note:
                recs.append(CensusRecord(id=cid, kind="hyp", smooth=False, note=note))
            else:
                recs.append(_classified_record("hyp", cid, tuple(next(cts)), cart))
    return recs


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
    if kind == "ns":
        cart = _ns_cartier(curve)
    elif kind == "hyp":
        cart = _hyp_cartier(curve.masks[0])
    else:
        cart = None
    return _classified_record(kind, cid, counts, cart)


def _census_job(args) -> list[CensusRecord]:
    kind, lo, hi, keep = args
    if kind == "hyp":
        return _hyp_chunk(lo, hi, keep)
    return _quadric_chunk(kind, lo, hi, keep)


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
    jobs = [(kind, 0, 1 << 16, keep) for kind in kinds if kind != "hyp"]
    if "hyp" in kinds:
        jobs += [("hyp", h0, h1, keep) for h0, h1 in _hyp_ranges(workers)]
    return jobs


def run_census(kinds=KINDS, workers: int = 1, id_filter=None) -> list[CensusRecord]:
    """CensusRecords for every model of the requested kinds, sorted by id.

    The jobs are those of _census_jobs: one per quadric kind, and hyp cut
    into `workers` contiguous h-ranges of about equal model count.  They run
    in a pool of min(workers, jobs) processes, or in this process when that
    is one; the sorted result is identical for any worker count.  id_filter,
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
        parts = [_census_job(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            parts = list(pool.map(_census_job, jobs))
    records = [rec for part in parts for rec in part]
    records.sort(key=lambda rec: rec.id)
    return records


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


def group_isogeny_classes(records, weil_keys) -> list[IsogenyClassReport]:
    """One report per requested Weil polynomial, in order, over the smooth
    records: members, isomorphism collapse, Jacobian aut orders and the
    exact stack count.  A key no smooth record attains yields an empty
    report with stack count 0.  Each isomorphism orbit is walked once: its
    minimum id represents it.
    """
    groups: dict[tuple[int, ...], list[str]] = {}
    for rec in records:
        if rec.smooth:
            groups.setdefault(rec.weil, []).append(rec.id)
    reports = []
    for key in weil_keys:
        key = tuple(int(c) for c in key)
        ids = groups.get(key, [])
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
    """
    smooth = [rec for rec in records if rec.smooth]
    lines = []
    failures: list[str] = []

    bad = [rec.id for rec in smooth if rec.kind == "ns" and rec.type43]
    lines.append(_check_line("no smooth ns model meets the [4,3] criterion", bad))
    failures += bad

    bad = [rec.id for rec in smooth
           if rec.kind == "hyp" and rec.two_rank == 0 and rec.eo_mu != (4, 2)]
    lines.append(_check_line("every smooth 2-rank-0 hyperelliptic model has EO type [4,2]", bad))
    failures += bad

    bad = [rec.id for rec in smooth if rec.a_number is not None and rec.a_number >= 3]
    lines.append(_check_line("no smooth model has a-number >= 3", bad))
    failures += bad

    ss = sorted({rec.weil for rec in smooth if rec.stratum == "S4"})
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

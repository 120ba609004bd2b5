"""Reference routes that no census, CLI or verify path takes: the tests'
independent oracles for what the package computes another way, and the
hand edits of a records file that the reader's refusal tests make."""

import hashlib
import json
from fractions import Fraction

import numpy as np

from genus4census.cartier import SemilinearOperator, invariants
from genus4census.curves import MONOMIALS3, _powers, eval_quadric
from genus4census.gfarith import F2, poly_degree, poly_mod, xor_apply
from genus4census.zeta import WeilPolynomial, predicted_counts


def poly_resultant(F, a: tuple, b: tuple):
    """Resultant of two polynomials over a field of characteristic 2.

    Euclidean descent: Res(a, b) = lc(b)^(deg a - deg r) Res(b, r) where
    r = a mod b; all signs vanish in characteristic 2.  Res of two nonzero
    constants is 1; if exactly one input is the zero polynomial the result
    is 0 by convention; two zero inputs have no sensible value.
    """
    if not a and not b:
        raise ValueError("undefined resultant of two zero polynomials")
    if not a or not b:
        return F.zero
    res = F.one
    while poly_degree(b) > 0:
        r = poly_mod(F, a, b)
        if not r:
            return F.zero
        res = F.mul(res, F.pow(b[-1], poly_degree(a) - poly_degree(r)))
        a, b = b, r
    return F.mul(res, F.pow(b[0], poly_degree(a)))


def cubic_partials(spec, coeffs, point) -> tuple:
    """The four partial derivatives at a point; char 2 keeps odd exponents."""
    pw = [_powers(spec, c, 3) for c in point]
    out = []
    for v in range(4):
        acc = spec.zero
        for c, e in zip(coeffs, MONOMIALS3):
            if not c or e[v] % 2 == 0:
                continue
            m = pw[v][e[v] - 1]
            for w in range(4):
                if w != v:
                    m = spec.mul(m, pw[w][e[w]])
            acc = spec.add(acc, spec.mul(c, m))
        out.append(acc)
    return tuple(out)


def is_type43_candidate(op: SemilinearOperator) -> bool:
    """rank C = 2 and C^2 = 0, the matrix shape singling out [4, 3] among
    the a-number-2 strata; only meaningful at 2-rank zero."""
    t43 = invariants(op)[2]
    if t43 is None:
        raise ValueError("criterion only valid at p-rank 0")
    return t43


def stabilizer_matrices_by_filter(kind: str) -> np.ndarray:
    """curves._stabilizer_matrices(kind) from all 2^16 4x4 matrices over F_2:
    the images of the 16 vectors under every matrix, kept when the matrix
    preserves the quadric's values and maps no nonzero vector to 0."""
    ms = np.arange(1 << 16, dtype=np.uint16)
    # column j of every matrix as a 4-bit vector; the image of v XORs the
    # columns at the set bits of v
    cols = [sum(((ms >> (4 * i + j)) & 1) << i for i in range(4)).astype(np.uint8) for j in range(4)]
    values = [eval_quadric(kind, F2, tuple((v >> i) & 1 for i in range(4))) for v in range(16)]
    qset = np.uint16(sum(val << v for v, val in enumerate(values)))  # bit v is the value at v
    keep = np.ones(1 << 16, np.bool_)
    for v in range(1, 16):
        image = xor_apply(cols, v)
        keep &= (image != 0) & (((qset >> image) & 1) == values[v])
    return np.flatnonzero(keep).astype(np.uint16)


def base_extend(w: WeilPolynomial, n: int) -> WeilPolynomial:
    """prod (t - alpha_i^n), exactly; q becomes q^n.

    The roots alpha_i^n have power sums s_{nk}, so Newton's identities read
    off the coefficients b_k over the integers.
    """
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    if n == 1:
        return w
    deg = len(w.coeffs) - 1
    s = [None] + [w.q**m + 1 - count for m, count in enumerate(predicted_counts(w, n * deg), 1)]
    b = [1]
    for k in range(1, deg + 1):
        b.append(-(s[n * k] + sum(b[i] * s[n * (k - i)] for i in range(1, k))) // k)
    return WeilPolynomial(tuple(reversed(b)), w.q**n)


def l_series(counts, q: int) -> tuple[Fraction, ...]:
    """a_0..a_m of L(t) = (1 - t)(1 - qt) Z(t) from the counts N_1..N_m
    over F_q..F_{q^m}, where Z(t) = exp(sum N_n t^n / n) is the zeta
    function's definition, as a power series over the rationals.

    No Newton identity: exp comes from E' = F' E, k e_k = sum_j j f_j e_{k-j}.
    A coefficient with a denominator other than 1 means no curve has
    these counts.
    """
    f = [Fraction(0)] + [Fraction(count, n) for n, count in enumerate(counts, 1)]
    e = [Fraction(1)]
    for k in range(1, len(counts) + 1):
        e.append(sum(j * f[j] * e[k - j] for j in range(1, k + 1)) / k)
    # times (1 - t)(1 - qt) = 1 - (1 + q) t + q t^2
    pad = [Fraction(0)] * 2 + e
    return tuple(pad[k + 2] - (1 + q) * pad[k + 1] + q * pad[k] for k in range(len(e)))


# ---------------------------------------------------------------------------
# records lines and records files edited by hand
# ---------------------------------------------------------------------------


def record_json(rec, with_id: bool = True) -> str:
    """record_to_json of rec (without its id unless with_id) built as a dict
    and spelled by json.dumps with sorted keys: exact integers as strings,
    None fields and an empty note omitted."""
    d: dict = {"id": rec.id} if with_id else {}
    d.update(kind=rec.kind, smooth=rec.smooth)
    if rec.note:
        d["note"] = rec.note
    for key in ("counts", "weil", "slopes"):
        if getattr(rec, key) is not None:
            d[key] = [str(n) for n in getattr(rec, key)]
    for key in ("stratum", "p_rank", "a_number", "two_rank", "type43", "aut", "jacobian_aut"):
        if getattr(rec, key) is not None:
            d[key] = getattr(rec, key)
    if rec.eo_mu is not None:
        d["eo_mu"] = list(rec.eo_mu)
    if rec.eo_candidates is not None:
        d["eo_candidates"] = [list(mu) for mu in rec.eo_candidates]
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def reseal(path) -> None:
    """Write the SHA-256 of a records file's body into its header, so that a
    hand edit reaches the checks behind the reader's hash check."""
    header, _, body = path.read_bytes().partition(b"\n")
    fields = json.loads(header)
    fields["body_sha256"] = hashlib.sha256(body).hexdigest()
    path.write_bytes(json.dumps(fields, sort_keys=True, separators=(",", ":")).encode() + b"\n" + body)


def index_entries(line: str) -> list[int]:
    """The row index of each model of an index line's kind, 0xffff for a
    dropped model, read with int() per entry instead of numpy."""
    hexrows = json.loads(line)["rows"]
    return [int(hexrows[i:i + 4], 16) for i in range(0, len(hexrows), 4)]


def with_index_entry(line: str, i: int, row: int) -> str:
    """An index line (with or without its newline) with the entry of its
    kind's i-th model set to row."""
    fields = json.loads(line)
    hexrows = fields["rows"]
    fields["rows"] = hexrows[:4 * i] + f"{row:04x}" + hexrows[4 * i + 4:]
    return json.dumps(fields, separators=(",", ":")) + line[len(line.rstrip("\n")):]


"""Mod-2 Dieudonne modules of BT_1 group schemes and Ekedahl-Oort types.

A final type is the tuple nu = (nu(1), ..., nu(g)) with nu(0) = 0 and steps
0 <= nu(i+1) - nu(i) <= 1; its conjugate Young type mu = [mu_1 > ... > mu_n]
satisfies mu_j = #{i : i - nu(i) >= j}.  The p-rank is g - mu_1 (g when mu is
empty) and the a-number is n = len(mu) = g - nu(g).

Standard modules follow Oort's construction: extend nu symmetrically by
nu(2g - i) = nu(i) + g - i, let m_1 < ... < m_g be the indices where the
extended nu rises and n_1 > ... > n_g the complementary indices; then on the
basis Z_1..Z_{2g} (with X_i = Z_{m_i}, Y_i = Z_{n_i}):

    F(Z_{m_i}) = Z_i,   F(Z_{n_i}) = 0,
    V(Z_i)     = 0,     V(Z_{2g-i+1}) = Z_{n_i}      (i = 1..g)

with the pairing <X_i, Y_j> = delta_ij.  Everything is plain linear algebra
over F_2 (the semilinear twists act trivially on the prime field), done on
int bitmasks: bit j of a vector is the Z_{j+1} coordinate, and a matrix is
the tuple of images of the basis vectors, applied and row-reduced by the
gfarith kit (xor_apply, f2_rref).
"""
from __future__ import annotations

from typing import Sequence

from ._value import Value, setfield
from .gfarith import f2_rref, xor_apply

GENUS = 4

# ---------------------------------------------------------------------------
# F_2 linear algebra on int bitmasks
# ---------------------------------------------------------------------------


def _reduce_mod(space_rref: Sequence[int], v: int) -> int:
    for b in space_rref:
        if (v >> (b.bit_length() - 1)) & 1:
            v ^= b
    return v


def _image(map_rows: Sequence[int], space_rref: Sequence[int]) -> tuple[int, ...]:
    return f2_rref([xor_apply(map_rows, r) for r in space_rref])


def _kernel(map_rows: Sequence[int], n: int) -> tuple[int, ...]:
    """Canonical basis of the kernel: the reduced rows of the graph
    {(map(v), v)} whose map part is zero."""
    graph = f2_rref([(map_rows[i] << n) | (1 << i) for i in range(n)])
    return tuple(r for r in graph if r >> n == 0)


def _preimage(map_rows: Sequence[int], space_rref: Sequence[int], n: int) -> tuple[int, ...]:
    resid = [_reduce_mod(space_rref, map_rows[i]) for i in range(n)]
    return _kernel(resid, n)


def _full_space(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(n - 1, -1, -1))


# ---------------------------------------------------------------------------
# final types and Young types
# ---------------------------------------------------------------------------


def validate_final_type(nu: Sequence[int]) -> tuple[int, ...]:
    nu = tuple(int(x) for x in nu)
    prev = 0
    for i, x in enumerate(nu, 1):
        if not prev <= x <= prev + 1:
            raise ValueError(f"invalid final type {nu}: step at position {i}")
        prev = x
    return nu


def validate_young_type(mu: Sequence[int], g: int) -> tuple[int, ...]:
    mu = tuple(int(x) for x in mu)
    if any(x <= 0 for x in mu) or any(a <= b for a, b in zip(mu, mu[1:])):
        raise ValueError(f"ill-formed Young type {mu}: must be strictly decreasing and positive")
    if mu and (mu[0] > g or len(mu) > g):
        raise ValueError(f"ill-formed Young type {mu} for g = {g}")
    return mu


def young_to_final(mu: Sequence[int], g: int = GENUS) -> tuple[int, ...]:
    """The final type whose conjugate is mu: nu(i) = i - #{j : mu_j >= g-i+1}."""
    mu = validate_young_type(mu, g)
    nu = tuple(i - sum(1 for m in mu if m >= g - i + 1) for i in range(1, g + 1))
    return validate_final_type(nu)


def final_to_young(nu: Sequence[int]) -> tuple[int, ...]:
    """mu_j = #{i : i - nu(i) >= j}, trailing zeros dropped."""
    nu = validate_final_type(nu)
    gaps = [i - v for i, v in enumerate(nu, 1)]
    mu = []
    j = 1
    while True:
        m = sum(1 for x in gaps if x >= j)
        if m == 0:
            break
        mu.append(m)
        j += 1
    return tuple(mu)


class EoLabel(Value):
    """An Ekedahl-Oort class [mu_1, ..., mu_n] of a genus-4 Jacobian."""

    __slots__ = _fields = ("mu", "smooth_impossible")

    def __init__(self, mu: tuple[int, ...], smooth_impossible: bool = False) -> None:
        setfield(self, "mu", mu)
        setfield(self, "smooth_impossible", smooth_impossible)
        validate_young_type(mu, GENUS)

    @property
    def p_rank(self) -> int:
        return GENUS - self.mu[0] if self.mu else GENUS

    @property
    def a_number(self) -> int:
        return len(self.mu)

    @property
    def codim(self) -> int:
        return sum(self.mu)


class EoCandidateSet(Value):
    """Several EO classes that the available invariants cannot separate."""

    __slots__ = _fields = ("options", "smooth_impossible")

    def __init__(self, options: tuple[tuple[int, ...], ...], smooth_impossible: bool = False) -> None:
        setfield(self, "options", options)
        setfield(self, "smooth_impossible", smooth_impossible)


# ---------------------------------------------------------------------------
# BT_1 modules
# ---------------------------------------------------------------------------


class Bt1Module(Value):
    """F and V on a 2g-dimensional F_2 space; row i is the image of Z_{i+1}."""

    __slots__ = _fields = ("g", "f_rows", "v_rows", "pairing", "labels")

    def __init__(self, g: int, f_rows: tuple[int, ...], v_rows: tuple[int, ...],
                 pairing: tuple[int, ...] | None = None, labels: tuple[str, ...] | None = None) -> None:
        setfield(self, "g", g)
        setfield(self, "f_rows", f_rows)
        setfield(self, "v_rows", v_rows)
        setfield(self, "pairing", pairing)
        setfield(self, "labels", labels)
        n = 2 * g
        for rows in (f_rows, v_rows):
            if len(rows) != n or any(not 0 <= r < (1 << n) for r in rows):
                raise ValueError("F/V matrices must be 2g rows of 2g bits")
        ker_f = _kernel(f_rows, n)
        if len(ker_f) != g:
            raise ValueError(f"not a BT1 module: dim ker F = {len(ker_f)} != g = {g}")
        if ker_f != _image(v_rows, _full_space(n)):
            raise ValueError("not a BT1 module: ker F != im V")
        if _kernel(v_rows, n) != _image(f_rows, _full_space(n)):
            raise ValueError("not a BT1 module: ker V != im F")
        if pairing is not None:
            p = pairing
            if len(p) != n or len(f2_rref(p)) != n:
                raise ValueError("pairing must be a nondegenerate 2g x 2g matrix")
            for i in range(n):
                if (p[i] >> i) & 1:
                    raise ValueError("pairing must be alternating (zero diagonal)")
                for j in range(i):
                    if ((p[i] >> j) ^ (p[j] >> i)) & 1:
                        raise ValueError("pairing must be symmetric")
        if labels is not None and len(labels) != n:
            raise ValueError("need one label per basis vector")


ZERO_MODULE = Bt1Module(0, (), (), None, ())


def standard_module(nu: Sequence[int]) -> Bt1Module:
    """Oort's standard BT_1 module of a final type (docstring above)."""
    nu = validate_final_type(nu)
    g = len(nu)
    if g == 0:
        return ZERO_MODULE
    ext = [0] * (2 * g + 1)
    for i in range(1, g + 1):
        ext[i] = nu[i - 1]
    for j in range(g + 1, 2 * g + 1):
        i = 2 * g - j
        ext[j] = (nu[i - 1] if i else 0) + g - i
    ms = [i for i in range(1, 2 * g + 1) if ext[i - 1] < ext[i]]
    ns = sorted(set(range(1, 2 * g + 1)) - set(ms), reverse=True)
    assert len(ms) == g and len(ns) == g
    f_rows = [0] * (2 * g)
    v_rows = [0] * (2 * g)
    pairing = [0] * (2 * g)
    labels = [""] * (2 * g)
    for i, m in enumerate(ms, 1):
        f_rows[m - 1] = 1 << (i - 1)
        labels[m - 1] = f"X{i}"
    for i, nn in enumerate(ns, 1):
        labels[nn - 1] = f"Y{i}"
        v_rows[2 * g - i] = 1 << (nn - 1)  # V(Z_{2g-i+1}) = Z_{n_i}
        pairing[ms[i - 1] - 1] |= 1 << (nn - 1)
        pairing[nn - 1] |= 1 << (ms[i - 1] - 1)
    return Bt1Module(g, tuple(f_rows), tuple(v_rows), tuple(pairing), tuple(labels))


def direct_sum(a: Bt1Module, b: Bt1Module) -> Bt1Module:
    if b.g == 0:
        return a
    if a.g == 0:
        return b
    na, nb = 2 * a.g, 2 * b.g
    f_rows = list(a.f_rows) + [r << na for r in b.f_rows]
    v_rows = list(a.v_rows) + [r << na for r in b.v_rows]
    pairing = None
    if a.pairing is not None and b.pairing is not None:
        pairing = tuple(list(a.pairing) + [r << na for r in b.pairing])
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = tuple([f"1.{x}" for x in a.labels] + [f"2.{x}" for x in b.labels])
    return Bt1Module(a.g + b.g, tuple(f_rows), tuple(v_rows), pairing, labels)


def canonical_filtration(m: Bt1Module) -> list[tuple[int, ...]]:
    """All subspaces obtained from {0, M} by closing under V and F^{-1},
    sorted by dimension.  For a BT_1 module this is a chain."""
    n = 2 * m.g
    zero: tuple[int, ...] = ()
    seen = {zero, _full_space(n)}
    frontier = list(seen)
    while frontier:
        d = frontier.pop()
        for nxt in (_image(m.v_rows, d), _preimage(m.f_rows, d, n)):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    spaces = sorted(seen, key=len)
    for s, t in zip(spaces, spaces[1:]):
        if len(s) == len(t) or any(_reduce_mod(t, row) for row in s):
            raise RuntimeError("canonical filtration is not a chain (non-BT1 input?)")
    return spaces


def final_type_of_module(m: Bt1Module) -> tuple[int, ...]:
    """nu recovered from the canonical filtration: nu(dim D) = dim V(D),
    interpolated with the step-0-or-1 rule between known dimensions."""
    if m.g == 0:
        return ()
    spaces = canonical_filtration(m)
    pairs = [(len(d), len(_image(m.v_rows, d))) for d in spaces]
    nu_at = {}
    for (d0, v0), (d1, v1) in zip(pairs, pairs[1:]):
        nu_at[d0] = v0
        if v1 - v0 == d1 - d0:
            for d in range(d0, d1 + 1):
                nu_at[d] = v0 + (d - d0)
        elif v1 == v0:
            for d in range(d0, d1 + 1):
                nu_at[d] = v0
        else:
            raise RuntimeError(
                "canonical filtration interpolation failed: mixed V-dimension step"
            )
    nu_at[pairs[-1][0]] = pairs[-1][1]
    return validate_final_type(tuple(nu_at[i] for i in range(1, m.g + 1)))


# ---------------------------------------------------------------------------
# the catalog of indecomposable symmetric BT_1 modules used at g <= 4
# ---------------------------------------------------------------------------

_CATALOG_FINAL_TYPES = {
    "I_{1,1}": (0,),
    "I_{2,1}": (0, 1),
    "I_{3,1}": (0, 1, 2),
    "I_{3,2}": (0, 1, 1),
    "I_{4,1}": (0, 1, 2, 3),
    "I_{4,2}": (0, 1, 2, 2),  # the final type of mu = [4,1]
    "I_{4,3}": (0, 0, 1, 1),  # the final type of mu = [4,3,1]
}


def catalog(name: str) -> Bt1Module:
    """The named indecomposable standard module (I_{r,s} naming)."""
    try:
        nu = _CATALOG_FINAL_TYPES[name]
    except KeyError:
        raise ValueError(f"unknown standard BT1 module name {name!r}") from None
    return standard_module(nu)


#: The genus-4 p-rank-0 classification: each EO class with its decomposition
#: into catalog summands.  Indecomposability of the summands is table
#: metadata, not re-derived.
STANDARD_DECOMPOSITIONS: dict[tuple[int, ...], tuple[str, ...]] = {
    (4,): ("I_{4,1}",),
    (4, 1): ("I_{4,2}",),
    (4, 2): ("I_{3,1}", "I_{1,1}"),
    (4, 3): ("I_{2,1}", "I_{2,1}"),
    (4, 2, 1): ("I_{3,2}", "I_{1,1}"),
    (4, 3, 1): ("I_{4,3}",),
    (4, 3, 2): ("I_{2,1}", "I_{1,1}", "I_{1,1}"),
    (4, 3, 2, 1): ("I_{1,1}", "I_{1,1}", "I_{1,1}", "I_{1,1}"),
}


def eo_classify_curve(stratum, a: int, type43=None) -> EoLabel | EoCandidateSet:
    """EO class of a p-rank-0 genus-4 Jacobian from its Newton stratum,
    a-number, and (for a = 2) the [4,3] criterion outcome.

    ``stratum`` is a zeta.StratumLabel; ``type43`` may be None when the
    criterion is not applicable (it is only consulted at a = 2).
    """
    if stratum.p_rank != 0 or stratum.name not in ("S4", "N13", "N14", "V0-only"):
        raise ValueError("table covers V0 only")
    if a == 1:
        return EoLabel((4,))
    if a == 2:
        if type43:
            return EoLabel((4, 3))
        if stratum.name == "N14":
            return EoLabel((4, 1))
        if stratum.name in ("N13", "S4"):
            return EoLabel((4, 2))
        raise ValueError("a = 2 without the [4,3] criterion requires stratum N14, N13 or S4")
    if a == 3:
        return EoCandidateSet(((4, 2, 1), (4, 3, 1), (4, 3, 2)), smooth_impossible=True)
    if a == 4:
        return EoLabel((4, 3, 2, 1), smooth_impossible=True)
    raise ValueError(f"a-number {a} outside 1..4")

"""One description per kind of genus-4 model that the F_2 census counts:
``ns``, cubics on the split quadric X*Y + Z*T (P^1 x P^1); ``cone``, cubics
on the quadric cone X*Y + T^2; ``hyp``, hyperelliptic curves.  Functions
elsewhere take a kind's name and read its description in DESCRIPTIONS,
through quadric where the name may be none.  Kind.spell and its inverse
parse_id are the one codec of curve ids.  This module imports no numpy.
"""

import functools
import itertools

from ._value import Value, setfield

#: The 20 degree-3 monomials in X, Y, Z, T, exponent-lexicographic descending:
#: X^3, X^2 Y, X^2 Z, X^2 T, X Y^2, X Y Z, X Y T, X Z^2, X Z T, X T^2,
#: Y^3, Y^2 Z, Y^2 T, Y Z^2, Y Z T, Y T^2, Z^3, Z^2 T, Z T^2, T^3.
MONOMIALS3, MONOMIALS2 = (tuple(e for e in itertools.product(range(d, -1, -1), repeat=4) if sum(e) == d)
                          for d in (3, 2))
_INDEX3 = {e: i for i, e in enumerate(MONOMIALS3)}


class Kind(Value):
    """The facts of one kind:

    * cartier_basis: the differential basis of its Cartier plane model, as
      cells (i, j) of v^i u^j;
    * group_order: |G|, the group whose orbits are the F_2-isomorphism
      classes; jacobian_factor: j with |Aut(Jacobian)| = j |Aut(C)|;
    * heads, tails, first_tail: a curve id is a head and a tail of one
      width; the ids of heads[i] are heads[i] + tails[t], t >= first_tail[i],
      in id order, with key i * len(tails) + t (a mask, h * 2048 + f on
      hyp), which only Kind.key and Kind.parts compose and split; split_by_h: whether the census cuts the kind's jobs by head;
    * quadric kinds only: the quadric is X*Y + extra, its points are named
      by their parametrization in curves, charts holds (chart, the exponent
      pairs of X, Y, Z, T in the chart's parameters (v, u)), so X^a Y^b Z^g
      T^d lands on cell a*X + b*Y + g*Z + d*T; the cover's charts and the
      distinguished points cover the quadric, the first chart decided on
      packed polynomials over F_2; cartier_chart is the Cartier plane model;
      distinguished holds (point, monomials, note) for each point off the
      cover, singular on a model whose coefficients of the monomials vanish.

    Derived: form, the quadric's monomials; kept, the 16 MONOMIALS3 indices
    a reduced cubic keeps; reduction, each other index -> its X*Y partner
    modulo the quadric; cells, chart -> the cell of each MONOMIALS3 entry;
    domain, the number of ids.
    """

    _fields = ("name", "cartier_basis", "group_order", "jacobian_factor", "heads", "tails", "first_tail",
               "split_by_h", "extra", "points", "charts", "cover", "cartier_chart", "distinguished")
    __slots__ = (*_fields, "quadric", "form", "kept", "reduction", "cells", "domain")

    def __init__(self, name, cartier_basis, group_order, jacobian_factor, heads, tails, first_tail, split_by_h,
                 extra=None, points=None, charts=(), cover=(), cartier_chart=None, distinguished=()):
        facts = locals()
        for field in self._fields:
            setfield(self, field, facts[field])
        setfield(self, "quadric", extra is not None)
        setfield(self, "form", ((1, 1, 0, 0), extra) if self.quadric else ())
        # a monomial divisible by extra is congruent to its quotient times X*Y
        setfield(self, "reduction", {i: _INDEX3[tuple(a - b + (v < 2) for v, (a, b) in enumerate(zip(e, extra)))]
                                     for i, e in enumerate(MONOMIALS3)
                                     if self.quadric and all(a >= b for a, b in zip(e, extra))})
        setfield(self, "kept", tuple(i for i in range(len(MONOMIALS3)) if self.quadric and i not in self.reduction))
        setfield(self, "cells", {chart: tuple(tuple(sum(a * pair[i] for a, pair in zip(e, pairs)) for i in (0, 1))
                                              for e in MONOMIALS3) for chart, pairs in charts})
        setfield(self, "domain", sum(len(tails) - t for t in first_tail))

    def key(self, head: int, tail: int) -> int:
        """The key of the id heads[head] + tails[tail]."""
        return head * len(self.tails) + tail

    def parts(self, key: int) -> tuple[int, int]:
        """The (head, tail) indices of key, the inverse of Kind.key."""
        return divmod(key, len(self.tails))

    def spell(self, key: int) -> str:
        """The curve id of the model with key (see heads)."""
        head, tail = self.parts(key)
        return self.heads[head] + self.tails[tail]


def _mask_ids(name: str) -> dict:
    """A quadric kind's ids: the name, ;c=0x and a 16-bit mask in four hex digits."""
    return dict(heads=tuple(f"{name};c=0x{b:02x}" for b in range(256)), tails=_HEX2, first_tail=(0,) * 256,
                split_by_h=False)


_HEX2 = tuple(f"{b:02x}" for b in range(256))
#: Every kind by name, in the paper's order.
DESCRIPTIONS = {kind.name: kind for kind in (
    Kind("ns", extra=(0, 0, 1, 1), points="segre",
         charts=(("Y", ((1, 1), (0, 0), (1, 0), (0, 1))),    # (u v, 1, v, u)
                 ("X", ((0, 0), (1, 1), (1, 0), (0, 1))),    # (1, u v, v, u)
                 ("T", ((1, 0), (0, 1), (1, 1), (0, 0)))),   # (x, y, x y, 1), the bidegree-(3,3) grid
         cover=("Y", "X"), cartier_chart="T", cartier_basis=((0, 0), (1, 0), (0, 1), (1, 1)),  # 1, x, y, xy
         distinguished=(((0, 0, 0, 1), ((0, 0, 0, 3), (1, 0, 0, 2), (0, 1, 0, 2)), "singular at (0:0:0:1)"),
                        ((0, 0, 1, 0), ((0, 0, 3, 0), (1, 0, 2, 0), (0, 1, 2, 0)), "singular at (0:0:1:0)")),
         group_order=72, jacobian_factor=2, **_mask_ids("ns")),
    Kind("cone", extra=(0, 0, 0, 2), points="conic",
         charts=(("X", ((0, 0), (0, 2), (1, 0), (0, 1))),    # (1, u^2, v, u)
                 ("Y", ((0, 2), (0, 0), (1, 0), (0, 1)))),   # (u^2, 1, v, u)
         cover=("X", "Y"), cartier_chart="X", cartier_basis=((0, 0), (0, 1), (0, 2), (1, 0)),  # 1, u, u^2, v
         # the quadric's gradient vanishes at the vertex, so a cubic through it is singular there
         distinguished=(((0, 0, 1, 0), ((0, 0, 3, 0),), "the cubic meets the cone vertex"),),
         group_order=48, jacobian_factor=2, **_mask_ids("cone")),
    # a head per h and a tail per f, eight high digits each joined with _HEX2; h = 0
    # has no model, and deg h <= 4 forces deg f in {9, 10} (the genus-4 shape)
    Kind("hyp", cartier_basis=((0, 0), (0, 1), (0, 2), (0, 3)),  # 1, x, x^2, x^3
         group_order=384, jacobian_factor=1, heads=tuple(f"hyp;h=0x{hm:02x}" for hm in range(64)),
         tails=tuple([high + low for high in [f";f=0x{hi:x}" for hi in range(8)] for low in _HEX2]),
         first_tail=(2048, *[512] * 31, *[0] * 32), split_by_h=True))}


def quadric(name: str) -> Kind:
    """The description of the quadric kind called name, refusing a name that is none."""
    if name not in DESCRIPTIONS or not DESCRIPTIONS[name].quadric:
        raise ValueError(f"unknown quadric kind {name!r}")
    return DESCRIPTIONS[name]


@functools.cache
def _id_index(name: str) -> tuple[dict, dict]:
    """The index of each head and of each tail of the kind called name."""
    kind = DESCRIPTIONS[name]
    return {head: i for i, head in enumerate(kind.heads)}, {tail: i for i, tail in enumerate(kind.tails)}


def parse_id(cid) -> tuple[str, int]:
    """The kind's name and the key (Kind.spell) of the curve id cid, refusing
    with a ValueError what is no str, an unknown head or tail and a tail
    before its head's first tail.  A kind's index is built at its first id."""
    name = cid.partition(";")[0] if isinstance(cid, str) else None
    if name in DESCRIPTIONS:
        kind, (heads, tails) = DESCRIPTIONS[name], _id_index(name)
        width = len(kind.tails[0])
        head, tail = heads.get(cid[:-width]), tails.get(cid[-width:])
        if head is not None and tail is not None and tail >= kind.first_tail[head]:
            return name, kind.key(head, tail)
    raise ValueError(f"{cid!r} is not the curve_id of a census model")

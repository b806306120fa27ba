"""Chain and tableau weight polynomials.

Two independent routes to the same weights live here.  The pair route
multiplies a zero-count binomial ``theta`` and a refined leg polynomial
``phi`` over consecutive chain elements; the tableau route projects a
multichain to a semistandard skew tableau per component and reads the
weight off the tableau (``theta_tableau`` and ``phi_tableau``).  Tests
exploit the redundancy; the implementations must not share formulas.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ._packed import ONE, Rows, Terms, multiply
from .exactalg import LaurentPoly, Monomial, VarTable, y_binomial
from .poset import (
    Component,
    Element,
    PosetSpec,
    delta,
    is_multichain,
    leq_component,
)


def theta(a: Component, b: Component, y0: int, table: VarTable) -> LaurentPoly:
    """Binomial weight counting arrangements of the zero entries."""
    if len(a) != len(b):
        raise ValueError("components have different arities")
    if a[0] > b[0]:
        return LaurentPoly.zero(table)
    return y_binomial(table, b[0], a[0], y0)


def refined_leg_pair(
    a: Component, b: Component, ys: Sequence[int], table: VarTable
) -> LaurentPoly:
    """Product of (1 - Y_i^delta_i) over positions held by a but not by b.

    Zero when the pair is not ordered; ``ys`` supplies one distinct variable
    per positive position.  The terms are built directly, one factor at a
    time in variable order, so each new monomial is an old one extended.
    """
    n = len(a) - 1
    if len(b) != n + 1:
        raise ValueError("components have different arities")
    if len(ys) < n:
        raise ValueError("not enough leg variables")
    if not leq_component(a, b):
        return LaurentPoly.zero(table)
    terms: dict[Monomial, int] = {(): 1}
    for v, d in sorted((ys[i - 1], delta(a, b, i)) for i in range(1, n + 1) if a[i] > b[i]):
        assert d > 0, "ordered pairs have positive deltas on leg positions"
        terms.update([(m + ((v, d),), -c) for m, c in terms.items()])
    return LaurentPoly(table, terms)


def pair_weight(
    a: Element, b: Element, yvars: Sequence[Sequence[int]], table: VarTable
) -> LaurentPoly:
    """Product over components of theta times the refined leg polynomial.

    The product's terms are built directly.  The ids of ``yvars`` increase,
    as ``series.make_context`` numbers them, so a product monomial is one
    monomial of each factor, concatenated.
    """
    if len(a) != len(b):
        raise ValueError("elements have different numbers of components")
    terms: dict[Monomial, int] = {(): 1}
    for i in range(len(a)):
        binomial = theta(a[i], b[i], yvars[i][0], table).terms
        legs = refined_leg_pair(a[i], b[i], yvars[i][1:], table).terms if binomial else {}
        if not legs:
            return LaurentPoly.zero(table)
        terms = {
            m + mb + ml: c * cb * cl
            for m, c in terms.items()
            for mb, cb in binomial.items()
            for ml, cl in legs.items()
        }
    return LaurentPoly(table, terms)


def chain_weight(
    chain: Sequence[Element],
    spec: PosetSpec,
    yvars: Sequence[Sequence[int]],
    table: VarTable,
) -> LaurentPoly:
    """Weight of a multichain, including the implicit bottom and top pairs."""
    if not is_multichain(chain):
        raise ValueError("input is not a multichain in the tableau order")
    bottom = spec.bottom()
    top = spec.top()
    for e in chain:
        spec.validate_element(e)
        if e == bottom:
            raise ValueError("chain elements must lie strictly above the bottom")
    result = LaurentPoly.const(table, 1)
    prev = bottom
    for e in chain:
        result = result * pair_weight(prev, e, yvars, table)
        prev = e
    return result * pair_weight(prev, top, yvars, table)


def chain_weights(
    rows: Rows, start: int, end: int, max_length: int | None = None
) -> Iterator[tuple[int, Terms]]:
    """Each strict chain up from node ``start``, as a mask, with its weight.

    Row ``a`` of the transfer matrix ``rows`` (``_packed.PairWeights.rows``)
    maps each node that may follow node ``a``, and ``end``, to the packed
    weight of that step.  Bit ``b`` of the mask stands for node ``b``; the
    chains have at most ``max_length`` nodes besides ``start``, the empty
    one first.  The weight is the product of the step weights from
    ``start`` through the chain to ``end``, their keys adding without
    carries.  The walk is depth first, on an explicit stack: each chain's
    product from ``start`` is computed once, as its prefix's times one step,
    and kept for the chains that extend it.
    """
    stack = [(start, 0, ONE, len(rows) if max_length is None else max_length)]
    while stack:
        a, mask, prefix, room = stack.pop()
        row = rows[a]
        yield mask, multiply(prefix, row[end])
        if room:
            for b, w in row.items():
                if b != end:
                    stack.append((b, mask | 1 << b, multiply(prefix, w), room - 1))


# -- skew tableaux ---------------------------------------------------------------


class SkewTableau:
    """Semistandard skew tableau with a zero-filled inner shape.

    Columns are stored left to right, each sorted with zeros first and the
    positive entries strictly increasing.  The inner shape is recorded by
    the zeros, so empty skew shapes with different inner partitions stay
    distinct.
    """

    __slots__ = ("columns", "n", "r")

    def __init__(self, columns: Sequence[Sequence[int]], n: int, r: int):
        cols = tuple(tuple(c) for c in columns)
        prev_height = None
        prev_zeros = None
        for c in cols:
            if not c:
                raise ValueError("empty columns are not stored")
            zeros = sum(1 for x in c if x == 0)
            positives = [x for x in c if x > 0]
            if list(c) != [0] * zeros + positives:
                raise ValueError("column entries must list zeros first")
            if any(positives[k] >= positives[k + 1] for k in range(len(positives) - 1)):
                raise ValueError("positive column entries must strictly increase")
            if any(x < 0 or x > n for x in c):
                raise ValueError(f"entries must lie in [0, {n}]")
            if zeros > r:
                raise ValueError(f"at most {r} zeros per column")
            if prev_height is not None and len(c) > prev_height:
                raise ValueError("column heights must weakly decrease left to right")
            if prev_zeros is not None and zeros > prev_zeros:
                raise ValueError("zero counts must weakly decrease left to right")
            prev_height = len(c)
            prev_zeros = zeros
        # Row condition (weak increase left to right).
        height = len(cols[0]) if cols else 0
        for i in range(height):
            row = [c[i] for c in cols if len(c) > i]
            if any(row[j] > row[j + 1] for j in range(len(row) - 1)):
                raise ValueError("rows must weakly increase left to right")
        self.columns = cols
        self.n = n
        self.r = r

    @property
    def lam(self) -> tuple[int, ...]:
        heights = [len(c) for c in self.columns]
        if not heights:
            return ()
        return tuple(sum(1 for h in heights if h >= i) for i in range(1, max(heights) + 1))

    @property
    def mu(self) -> tuple[int, ...]:
        zeros = [sum(1 for x in c if x == 0) for c in self.columns]
        if not zeros or max(zeros) == 0:
            return ()
        return tuple(
            count
            for count in (sum(1 for z in zeros if z >= i) for i in range(1, max(zeros) + 1))
            if count
        )

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        height = len(self.columns[0]) if self.columns else 0
        return tuple(
            tuple(c[i] for c in self.columns if len(c) > i) for i in range(height)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SkewTableau):
            return NotImplemented
        return (self.columns, self.n, self.r) == (other.columns, other.n, other.r)

    def __hash__(self) -> int:
        return hash((self.columns, self.n, self.r))

    def __repr__(self) -> str:
        return f"<SkewTableau {self.lam}/{self.mu}>"

    def pretty(self) -> str:
        if not self.columns:
            return "(empty)"
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows)

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam),
            "mu": list(self.mu),
            "rows": [list(row) for row in self.rows],
        }


def _component_multiset(a: Component) -> tuple[int, ...]:
    return (0,) * a[0] + tuple(i for i in range(1, len(a)) if a[i])


def project(chain: Sequence[Element], i: int, spec: PosetSpec) -> SkewTableau:
    """Project a multichain onto component ``i`` as a skew tableau.

    Columns are the component multisets, rightmost column first in the
    chain; empty components contribute no cells.  Chains valid in the
    half-open interval always project to a semistandard tableau, so a
    validation failure here indicates a bug in the caller.
    """
    if not 0 <= i < spec.g:
        raise ValueError(f"component index {i} out of range")
    if not is_multichain(chain):
        raise ValueError("input is not a multichain in the tableau order")
    cols = [_component_multiset(e[i]) for e in reversed(chain)]
    cols = [c for c in cols if c]
    return SkewTableau(cols, spec.n[i], spec.r[i])


def theta_tableau(tab: SkewTableau, y0: int, table: VarTable) -> LaurentPoly:
    """Telescoping product of zero-count binomials, right column first."""
    counts = [sum(1 for x in c if x == 0) for c in reversed(tab.columns)]
    counts.append(tab.r)
    result = LaurentPoly.const(table, 1)
    for i in range(len(counts) - 1):
        assert counts[i] <= counts[i + 1], "zero counts must increase toward the left"
        result = result * y_binomial(table, counts[i + 1], counts[i], y0)
    return result


def _leg_cells(tab: SkewTableau) -> Iterator[tuple[int, int, int, int]]:
    """``(row, column, v, size)`` of each cell whose leg yields a factor.

    The cell at 0-based ``(row, column)`` has a right neighbour of value
    ``v`` absent from the cell's leg, and ``size > 0`` leg entries below v.
    """
    cols = tab.columns
    for j in range(len(cols) - 1):
        left, right = cols[j], cols[j + 1]
        for i in range(len(right)):
            v = right[i]
            leg = left[i:]
            if v in leg:
                continue
            size = sum(1 for x in leg if x < v)
            if size:
                yield i, j, v, size


def phi_tableau(tab: SkewTableau, ys: Sequence[int], table: VarTable) -> LaurentPoly:
    """Refined leg polynomial of a tableau.

    For each cell with a right neighbour whose value is absent from the
    cell's leg, the factor is 1 - Y_v^s where v is the neighbour's value
    and s counts the leg entries below v.
    """
    if len(ys) < tab.n:
        raise ValueError("not enough leg variables")
    result = LaurentPoly.const(table, 1)
    for _, _, v, size in _leg_cells(tab):
        assert v >= 1, "leg factors never come from zero entries"
        result = result * (1 - LaurentPoly.variable(table, ys[v - 1], size))
    return result


def leg_plus_positions(tab: SkewTableau) -> list[tuple[int, int]]:
    """1-based cell positions contributing factors to the leg polynomial."""
    return sorted((i + 1, j + 1) for i, j, _, _ in _leg_cells(tab))

"""Packed ints: monomials (``Codec``), chain-series terms and polynomials.

Monomials are keyed by a ``Codec``, so a product of monomials is one int
addition, and a packed polynomial is one dict of them (``Terms``), whose
products one kernel sums (``_add_product``).  ``PairWeights`` holds the
contract of a pair weight: its shape, ``weight(a, b, yvars, table)``, its
exponents, at most δ, and ``w(e, e) = 1``.  ``PairWeights.rows`` packs the
pair weights a call reads once, checked, by the δ codec, whose field of
``Y[c,p]`` is ``δ_p(bottom, top)`` wide, into a transfer matrix (``Rows``;
Stanley, EC1 section 4.7), and every packed route stays on its keys:

- chain weights, one product (``multiply``) per step of the depth-first
  walk ``weight.chain_weights`` over the rows, under the multichain
  expansion, the chain-sum Möbius function and the gap sums and faces of
  ``verify.verify_order_complex``;
- the zeta and Möbius rows of ``verify`` and their products
  (``multiply_rows``, one slot per row in each int, under
  ``verify.PackedRows.times``);
- the chain-series sweep of ``series._chain_series``, which adds products
  of its states and row entries (``_add_product``) and leaves its
  numerator packed, as the series value (``HlsRational``) that renders and
  checks it, and so do the truncated expansions of either route
  (``TruncatedSeries``).

Both records are rendered from their keys in ``LaurentPoly.text``'s order,
on one ranking of their distinct Y keys (``y_orders``), an expansion's
coefficients once per distinct value, or unpacked on each read
(``HlsRational.numerator``, ``TruncatedSeries.coefficients``).
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub
from types import MappingProxyType
from typing import Callable, Iterable, NamedTuple, Sequence

from .exactalg import LaurentPoly, Monomial, VarTable, _power_text, _terms_text
from .poset import Element, PosetSpec, render_element, s_vector

# A packed polynomial: packed key -> nonzero coefficient.
Terms = dict[int, int]
# The unit, read-only: ``multiply`` returns it, and rows and expansions share it.
ONE = MappingProxyType({0: 1})
# A sparse matrix of packed polynomials, such as a transfer matrix of pair
# weights: one {column: entry} dict per row.
Rows = list[dict[int, Terms]]


class Codec:
    """Monomials packed into ints, one bit field per variable.

    The field of variable ``v`` is ``bounds[v].bit_length()`` bits wide, the
    fields lie side by side from variable 0 up, and a variable of bound 0
    gets none.  While no exponent of a product of monomials exceeds its
    bound, no field of the sum of their keys carries into the next, so that
    sum is the product's key.  Callers choose bounds that hold for it.
    Codecs of the same fields are equal.
    """

    def __init__(self, bounds: Iterable[int]):
        widths = [e.bit_length() for e in bounds]
        self.shifts = [0, *accumulate(widths)]
        # (variable, shift, field mask) of each variable with a field
        self.fields = [(v, self.shifts[v], (1 << w) - 1) for v, w in enumerate(widths) if w]

    def __eq__(self, other):
        return self.fields == other.fields if isinstance(other, Codec) else NotImplemented

    def unpack(self, key: int) -> Monomial:
        return tuple((v, e) for v, shift, mask in self.fields if (e := key >> shift & mask))


class PairWeights:
    """The pair weights of one spec, computed, checked and packed on each call.

    ``weight(a, b, yvars, table)`` gives the weight of a pair; a caller builds
    its ``rows`` once, so each pair weight it reads is computed once.  The
    codec gives ``Y[c,p]`` a field for exponents up to ``δ_p(bottom, top)``,
    with ``δ_p(a, b) = s_p(b) - s_p(a)`` over ``poset.s_vector``.  The Möbius
    entry of ``a <= b`` is ``±Y^δ(a,b) * w(a, b)(1/Y)``, so no exponent of
    ``w(a, b)`` exceeds ``δ(a, b)``, and packing checks that: an exponent
    past it, or of a variable other than the spec's Y variables, raises
    ``ValueError``.  δ adds up along a chain, so every chain weight, every
    Möbius entry and every product of zeta and Möbius entries keeps within
    ``δ(bottom, top)`` as well, and their keys add without carries.  As
    ζ(e, e) = 1 in the incidence algebra (Stanley, EC1 section 3.6), a
    weight ``w(e, e)`` other than 1 raises ``ValueError`` too; δ(e, e) = 0
    leaves it a constant.
    """

    def __init__(self, spec, table: VarTable, yvars: Sequence[Sequence[int]], weight: Callable):
        self.table, self.yvars, self.weight = table, yvars, weight
        self.ids = [v for comp in yvars for v in comp]
        self._stats: dict[Element, tuple[list[int], int, int]] = {}
        lowest = self._s(spec.bottom())
        bounds = [0] * len(table)
        for v, lo, hi in zip(self.ids, lowest, self._s(spec.top())):
            bounds[v] = hi - lo
        self.codec = Codec(bounds)
        self._lowest = lowest

    @staticmethod
    def _s(e: Element) -> list[int]:
        """``s_p`` of each Y variable of ``e``, then its cardinality."""
        out, card = [], 0
        for component in e:
            s = s_vector(component)
            out += s[:-1]
            card += s[-1]
        return out + [card]

    def stats(self, e: Element) -> tuple[list[int], int, int]:
        """``_s(e)``, the key of ``Y^(s(e) - s(bottom))``, and ``e``'s cardinality."""
        found = self._stats.get(e)
        if found is None:
            s = self._s(e)
            shifts = self.codec.shifts
            key = sum((x - lo) << shifts[v] for v, x, lo in zip(self.ids, s, self._lowest))
            found = self._stats[e] = (s, key, s[-1])
        return found

    def mobius_factor(self, a: Element, b: Element) -> tuple[int, int]:
        """The key of ``Y^δ(a, b)`` and the sign ``(-1)^(|b| - |a|)``, for ``a <= b``."""
        _, low, card_a = self.stats(a)
        _, high, card_b = self.stats(b)
        return high - low, -1 if (card_b - card_a) % 2 else 1

    def __call__(self, a: Element, b: Element) -> Terms:
        """The weight of ``(a, b)``, packed once its exponents are checked."""
        delta = dict(zip(self.ids, map(sub, self.stats(b)[0], self.stats(a)[0])))
        shifts = self.codec.shifts
        w = {}
        for mono, c in self.weight(a, b, self.yvars, self.table).terms.items():
            key = 0
            for v, e in mono:
                if not 0 < e <= delta.get(v, 0):
                    raise ValueError(
                        f"the weight of ({render_element(a)}, {render_element(b)}) has"
                        f" {self.table.name(v)}^{e}, past δ = {delta.get(v, 0)}"
                    )
                key += e << shifts[v]
            w[key] = c
        if a == b and w != ONE:
            raise ValueError(f"the weight of ({render_element(a)}, {render_element(a)}) is not 1")
        return w

    def rows(self, nodes: Sequence[Element], above: Sequence[Iterable[int]]) -> Rows:
        """Row ``a``: the packed weight of ``(nodes[a], nodes[b])``, each ``b`` in ``above[a]``."""
        return [{b: self(a, nodes[b]) for b in bs} for a, bs in zip(nodes, above)]


def polynomial(table: VarTable, codec: Codec, terms: Terms) -> LaurentPoly:
    """The ``LaurentPoly`` of packed terms, whose coefficients are nonzero."""
    return LaurentPoly(table, {codec.unpack(key): c for key, c in terms.items()})


def multiply(p: Terms, q: Terms) -> Terms:
    """The product of two packed polynomials whose keys add without carries."""
    if q == ONE:
        return p
    if p == ONE:
        return q
    acc: Terms = {}
    _add_product(acc, p, q)
    return acc


def _add_product(acc: Terms, terms: Terms, weight: Terms) -> None:
    """acc += terms * weight, on packed keys."""
    get = acc.get
    for wk, wc in weight.items():
        for key, a in terms.items():
            k = key + wk
            c = get(k, 0) + a * wc
            if c:
                acc[k] = c
            else:
                del acc[k]


def multiply_rows(a: Rows, b: Rows) -> Rows:
    """The product of two matrices packed by one codec, over the nonzero products only.

    The product's keys must add without carries.  Column ``k`` of ``a`` is
    packed into one int per Y key, row ``i`` in the ``s``-bit slot at bit
    ``s * i``, so one multiply-add per term of ``b[k][j]`` advances column
    ``j`` of every row.  No coefficient exceeds ``bound = max_i L1(a[i]) *
    max |b|``, and ``s = bound.bit_length() + 2`` keeps each within
    ``±2^(s - 2)``, so the slots read back exactly as balanced digits: a
    slot's value is its low ``s`` bits, less ``2^s`` if the top one is set.
    The lowest set bit finds the next nonzero slot.
    """
    norm = max((sum(abs(c) for t in row.values() for c in t.values()) for row in a), default=0)
    bound = norm * max((abs(c) for row in b for t in row.values() for c in t.values()), default=0)
    s = bound.bit_length() + 2
    mask, top = (1 << s) - 1, 1 << s - 1
    cols: list[Terms] = [{} for _ in b]
    for i, row in enumerate(a):
        for k, terms in row.items():
            col = cols[k]
            for key, c in terms.items():
                col[key] = col.get(key, 0) + (c << s * i)
    by_column: dict[int, list[tuple[Terms, Terms]]] = {}
    for col, row in zip(cols, b):
        if col:
            for j, terms in row.items():
                by_column.setdefault(j, []).append((col, terms))
    out: Rows = [{} for _ in a]
    for j in sorted(by_column):
        acc: Terms = {}
        get = acc.get
        for col, terms in by_column[j]:
            for key_b, c_b in terms.items():
                for key_a, v in col.items():
                    key = key_a + key_b
                    acc[key] = get(key, 0) + c_b * v
        for key, v in acc.items():
            while v:
                i = ((v & -v).bit_length() - 1) // s
                c = v >> s * i & mask
                c -= (c & top) << 1
                out[i].setdefault(j, {})[key] = c
                v -= c << s * i
    return out


class HlsRational(NamedTuple):
    """A series value: a packed numerator over an implicit product of (1 - X_c).

    ``terms`` are keyed as at ``series._chain_series``: mask bit ``i``
    stands for the X variable ``denominator_vars[i]``, that of the ``i``-th
    denominator factor, and the rest of the key is a Y part packed by
    ``codec``.  Y variable ids must precede the X ones, and
    ``denominator_vars`` must increase.  ``numerator`` unpacks the terms on
    each read; ``term_count``, the texts and the checks read the keys.
    """

    spec: PosetSpec | None
    yvars: tuple[tuple[int, ...], ...]
    chain_count: int
    table: VarTable
    denominator_vars: tuple[int, ...]
    codec: Codec
    terms: Terms

    @property
    def denominator_names(self) -> tuple[str, ...]:
        """The element of each denominator factor: its ``X{...}`` name without the braces."""
        names = self.table.names
        return tuple(names[v][2:-1] for v in self.denominator_vars)

    @property
    def numerator(self) -> LaurentPoly:
        _, _, _, table, x_vars, codec, terms = self
        m = len(x_vars)
        low = (1 << m) - 1
        ys = {y: codec.unpack(y) for y in {key >> m for key in terms}}
        masks = {key & low for key in terms}
        xs = {x: tuple((v, 1) for i, v in enumerate(x_vars) if x >> i & 1) for x in masks}
        return LaurentPoly(table, {ys[key >> m] + xs[key & low]: a for key, a in terms.items()})

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def numerator_text(self) -> str:
        """``numerator.text()``, rendered from the keys (``ordered_rows``)."""
        return _terms_text((y + x, c) for _, y, x, c, _ in self.ordered_rows())

    def denominator_text(self) -> str:
        if not self.denominator_vars:
            return "1"
        return "*".join(f"(1 - {self.table.name(v)})" for v in self.denominator_vars)

    def ordered_rows(self) -> list[tuple[int, tuple[str, ...], tuple[str, ...], int, int]]:
        """Each term's print order, Y and X factor texts, coefficient and key, in print order.

        ``LaurentPoly.text`` orders terms by total degree, then by the dense
        exponent vector in variable id order.  Every Y id precedes every X
        id, so that vector is the Y part's dense tuple followed by the X
        exponents; those are 0 or 1 and in ``denominator_vars`` order, mask
        bit ``i`` first, so comparing them compares the masks with their
        ``m`` bits reversed.  Packed exponents are never negative, so the
        total degree is the Y part's plus the mask's bit count.  Each term
        thus sorts on ``(degree, dense Y tuple, reversed mask)``, unique per
        term.

        That tuple is folded into one int: with the ``ny`` distinct Y parts
        ranked as at ``y_orders``, ``(degree * ny + rank) << m | reversed
        mask`` sorts the same.  It is the sum of a Y part's ``y_orders``
        value shifted by ``m`` and a mask's ``bit count * ny << m | reversed
        mask``, each computed once, with the factor texts of the part.
        """
        names = self.table.names
        m = len(self.denominator_vars)
        low = (1 << m) - 1
        y_parts = y_orders(self.codec, {key >> m for key in self.terms}, names)
        ny = len(y_parts)
        x_names = [names[v] for v in self.denominator_vars]
        x_parts = {}
        for mask in {key & low for key in self.terms}:
            bits = f"{mask:0{m}b}"[::-1]
            factors = tuple(name for name, b in zip(x_names, bits) if b == "1")
            x_parts[mask] = (mask.bit_count() * ny << m) + int(bits, 2), factors
        rows = []
        for key, c in self.terms.items():
            y_order, y_factors = y_parts[key >> m]
            x_order, x_factors = x_parts[key & low]
            rows.append(((y_order << m) + x_order, y_factors, x_factors, c, key))
        rows.sort()
        return rows

    def reciprocity_failure(self, k: LaurentPoly, n: int, top: bool) -> tuple[str, str] | None:
        """The first term in print order lacking its reciprocity partner, and that partner; or None.

        Inverting and multiplying by ``(-1)^m * K * prod X`` sends each term
        ``c * Y^e * X^S`` to one term, of key ``(key(K) - y) << m | (full ^
        mask)``, which must be one of ``(-1)^n * X_top * N`` if ``top``
        (the top's is the last mask bit), else of ``(-1)^(n - 1) * N``.
        So the partner has that key, less the top bit, and the coefficient
        ``(-1)^(m + n - (not top)) * c``.  There is none if K is not a
        monomial of coefficient 1, if ``K - e`` has an exponent below 0 or
        past its field, or if ``top`` and the term has the top bit.  Both are
        rendered as one-term numerators, or the second says why there is none.
        """
        terms, names = self.terms, self.table.names
        m = len(self.denominator_vars)
        low = (1 << m) - 1
        top_bit = 1 << m - 1 if top else 0
        flip = low ^ top_bit
        sign = -1 if (m + n + (not top)) % 2 else 1
        fields = {v: (shift, mask) for v, shift, mask in self.codec.fields}
        k_exps = dict(next(iter(k.terms))) if list(k.terms.values()) == [1] else None

        def partner(y: int) -> int | str:  # the key of Y^(K - e) past the mask, or why none
            if k_exps is None:
                return f"none: K = {k.text()} is not a monomial of coefficient 1"
            out = 0
            for v in sorted(fields.keys() | k_exps.keys()):
                shift, mask = fields.get(v, (0, 0))
                d = k_exps.get(v, 0) - (y >> shift & mask)
                if not 0 <= d <= mask:
                    return f"none: no term can carry {_power_text(names[v], d)}"
                out += d << shift
            return out << m

        partners: dict[int, int | str] = {}
        failing: dict[int, int | str] = {}
        for key, c in terms.items():
            p = partners.get(key >> m)
            if p is None:
                p = partners[key >> m] = partner(key >> m)
            if key & top_bit:
                p = f"none: the term has {names[self.denominator_vars[-1]]}"
            if isinstance(p, str) or terms.get(p := p | (key & low ^ flip)) != sign * c:
                failing[key] = p
        if not failing:
            return None
        *_, c, key = self._replace(terms={key: terms[key] for key in failing}).ordered_rows()[0]
        p = failing[key]
        if not isinstance(p, str):
            p = self._replace(terms={p: sign * c}).numerator_text()
        return self._replace(terms={key: c}).numerator_text(), p

    def equals_open(self, other: HlsRational) -> bool:
        """Whether this half-open numerator equals ``other``, the open one.

        ``other`` must have these fields and mask bits but the top's, the last;
        its key ``y << (m - 1) | mask`` is then ``y << m | mask`` here, one to
        one, so the two are equal if as many terms and each re-keyed one match.
        """
        x_vars = self.denominator_vars
        m = len(x_vars)
        if not m or other.denominator_vars != x_vars[:-1] or other.codec != self.codec:
            return False
        low = (1 << m - 1) - 1
        get = self.terms.get
        return len(other.terms) == len(self.terms) and all(
            get((key >> m - 1) << m | (key & low)) == c for key, c in other.terms.items()
        )


def y_orders(
    codec: Codec, keys: Iterable[int], names: Sequence[str]
) -> dict[int, tuple[int, tuple[str, ...]]]:
    """Each distinct key's print order and the texts of its factors.

    ``LaurentPoly.text`` sorts monomials of nonnegative exponents by total
    degree, then by the dense exponent vector in variable id order, which
    is the tuple of the codec's fields.  With the ``ny`` keys ranked once by
    that tuple, ``degree * ny + rank`` is an int that sorts the same.
    """
    dense = {y: tuple(y >> shift & mask for _, shift, mask in codec.fields) for y in keys}
    ny = len(dense)
    out = {}
    for rank, y in enumerate(sorted(dense, key=dense.__getitem__)):
        factors = tuple(_power_text(names[v], e) for v, e in codec.unpack(y))
        out[y] = sum(dense[y]) * ny + rank, factors
    return out


class TruncatedSeries(NamedTuple):
    """Coefficients of X multidegrees up to a total-degree bound, packed.

    ``x_vars`` are the X variables of the multidegrees' positions.
    ``terms`` maps each multidegree to its coefficient, a dict of nonzero
    coefficients keyed by Y monomials packed by ``codec``.  ``coefficients``
    unpacks them on each read; ``texts`` renders them from the keys.
    """

    bound: int
    x_vars: tuple[int, ...]
    table: VarTable
    codec: Codec
    terms: dict[tuple[int, ...], Terms]

    @property
    def coefficients(self) -> dict[tuple[int, ...], LaurentPoly]:
        return {d: polynomial(self.table, self.codec, t) for d, t in self.terms.items()}

    def coefficient(self, key: tuple[int, ...]) -> LaurentPoly:
        return polynomial(self.table, self.codec, self.terms.get(key, {}))

    def texts(self) -> list[tuple[tuple[int, ...], str]]:
        """Each X multidegree and its coefficient's text, by total degree, then multidegree.

        The texts are rendered from the keys once per distinct value.
        Multidegrees may share one dict, whose content is then taken once; a
        content key is kept only for the first dict of each distinct content.
        """
        shared = {id(t): t for t in self.terms.values()}
        orders = y_orders(self.codec, {y for t in shared.values() for y in t}, self.table.names)
        texts: dict[frozenset, str] = {}
        by_id = {}
        for i, t in shared.items():
            content = frozenset(t.items())
            text = texts.get(content)
            if text is None:
                rows = sorted([orders[y] + (c,) for y, c in t.items()])
                text = texts[content] = _terms_text((factors, c) for _, factors, c in rows)
            by_id[i] = text
        keys = sorted(self.terms)
        keys.sort(key=sum)  # stable, so by multidegree within a total degree
        return [(key, by_id[id(self.terms[key])]) for key in keys]

"""Chain generating series over the universal denominator, and specializations.

A series value is stored as an exact numerator polynomial together with the
ordered list of denominator factors ``(1 - X_c)``, one per interval element;
no rational-function normalization ever happens.  The numerator of the
half-open series is

    sum over strict chains C of  W_C(Y) * prod_{c in C} X_c * prod_{c not in C} (1 - X_c),

which is the chain sum with denominators cleared.  Every series here is
assembled by one transfer-matrix sweep, ``_chain_series``, from a pair weight
of its own.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter, itemgetter
from typing import Callable, Mapping, NamedTuple, Sequence

from ._packed import (
    PackedCoefficients,
    PackedNumerator,
    PairWeights,
    Terms,
    sweep,
    unpack,
)
from .exactalg import LaurentPoly, VarTable, y_binomial
from .poset import (
    DEFAULT_MAX_CHAINS,
    CapExceededError,
    DegenerateSpecError,
    Element,
    PosetSpec,
    above_lists,
    enumerate_multichains,
    interval_elements,
    order_key,
    render_element,
)
from .weight import chain_weights, pair_weight, phi_tableau, project


class SeriesContext(NamedTuple):
    """Variable bookkeeping for one poset spec.

    Y variables come first, ordered by (component, position); X variables
    follow, one per element of the half-open interval in enumeration order.
    """

    spec: PosetSpec
    table: VarTable
    yvars: tuple[tuple[int, ...], ...]
    x_elements: tuple[Element, ...]
    x_ids: dict[Element, int]

    def all_y_ids(self) -> list[int]:
        return [v for comp in self.yvars for v in comp]


def make_context(spec: PosetSpec, max_elements: int | None = None) -> SeriesContext:
    names = []
    yvars = []
    next_id = 0
    for i in range(spec.g):
        comp = []
        for j in range(spec.n[i] + 1):
            names.append(f"Y[{i + 1},{j}]")
            comp.append(next_id)
            next_id += 1
        yvars.append(tuple(comp))
    x_elements = tuple(interval_elements(spec, "half_open", max_elements))
    x_ids = {}
    for e in x_elements:
        names.append("X{" + render_element(e) + "}")
        x_ids[e] = next_id
        next_id += 1
    return SeriesContext(spec, VarTable(names), tuple(yvars), x_elements, x_ids)


class _Unpacked:
    """A field read as the unpacked view of a value that may be packed.

    It takes the view itself or a value of ``packed_type``, which is kept
    and unpacked once, by ``unpack``, on first read.  The field has no
    default: read on the class, it raises ``AttributeError``.
    """

    def __init__(self, packed_type: type, unpack: Callable):
        self.packed_type, self.unpack = packed_type, unpack

    def __set_name__(self, owner, name: str) -> None:
        self.name, self.stored, self.view = name, "_" + name, f"_{name}_view"

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        value = obj.__dict__[self.stored]
        if not isinstance(value, self.packed_type):
            return value
        view = obj.__dict__.get(self.view)
        if view is None:
            view = obj.__dict__[self.view] = self.unpack(value)
        return view

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.stored] = value
        obj.__dict__.pop(self.view, None)


class _Fields:
    """Equality field by field, over ``_fields`` read as attributes."""

    _fields: tuple[str, ...]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = attrgetter(*self._fields)
        return fields(self) == fields(other)


class HlsRational(_Fields):
    """A series value: exact numerator over an implicit product of (1 - X_c).

    A series built here keeps its numerator packed until ``numerator`` is
    read; ``term_count`` and ``numerator_text`` do not unpack it.  Fields
    may be assigned; assigning ``numerator`` drops its unpacked view.
    """

    _fields = (
        "spec", "table", "yvars", "numerator",
        "denominator_vars", "denominator_names", "chain_count",
    )
    # A lambda, so that rebinding ``unpack`` here (a test double) takes effect.
    numerator = _Unpacked(PackedNumerator, lambda packed: unpack(packed))

    def __init__(
        self,
        spec: PosetSpec | None,
        table: VarTable,
        yvars: tuple[tuple[int, ...], ...],
        numerator: LaurentPoly | PackedNumerator,
        denominator_vars: tuple[int, ...],
        denominator_names: tuple[str, ...],
        chain_count: int,
    ):
        self.spec, self.table, self.yvars, self.numerator = spec, table, yvars, numerator
        self.denominator_vars, self.denominator_names = denominator_vars, denominator_names
        self.chain_count = chain_count

    @property
    def term_count(self) -> int:
        return len(self._numerator.terms)

    def packed_numerator(self) -> PackedNumerator:
        """The numerator of a series built here, still packed, however it was read."""
        if not isinstance(self._numerator, PackedNumerator):
            raise ValueError("this needs a series whose numerator is still packed, not assigned")
        return self._numerator

    def numerator_text(self) -> str:
        """``numerator.text()``, from the packed keys while there are any."""
        return self._numerator.text()

    def denominator_text(self) -> str:
        if not self.denominator_vars:
            return "1"
        return "*".join(f"(1 - {self.table.name(v)})" for v in self.denominator_vars)


# Live terms a chain-series sweep may hold after any element.  A live term
# takes about 90 bytes, and one element multiplied the count by at most 3.4
# on the specs measured, so a run this cap stops stays well under 2 GB.
DEFAULT_MAX_TERMS = 5_000_000


def _chain_series(
    ctx: SeriesContext,
    elements: Sequence[Element],
    key: Callable[[Element], Sequence[int]],
    pair_w: Callable[[SeriesContext, Element, Element], LaurentPoly],
    max_chains: int | None,
    max_terms: int | None = None,
) -> tuple[PackedNumerator, int]:
    """Numerator and chain count of a chain sum, by the transfer-matrix method.

    The chains are the strict chains of ``elements`` in the order of their
    ``key`` vectors (``poset.OrderIndex``), each weighted by the product of
    ``pair_w`` over consecutive members once the spec's bottom is prepended
    and its top appended.  The bottom must lie below every element, the top
    above every other element if it is one of them, ``elements`` must come
    in X variable order, and ``pair_w`` must return polynomials in the Y
    variables alone, whose exponents keep within δ (``_packed.PairWeights``).

    The sweep follows a linear extension and keeps one partial numerator
    per last chain element, starting from the bottom.  At each element
    ``c``, every state ``s`` below ``c`` sends ``state * X_c * pair_w(s, c)``
    to the new state ``c``, and every earlier state takes the factor
    ``1 - X_c`` (Stanley, EC1 section 4.7).  A state is folded into one
    running ``total``, times ``pair_w(s, top)``, as soon as the last element
    above it other than the top is swept; from then on ``total`` takes the
    ``1 - X_c`` factors in its place, and equal keys of different states
    merge.  If the top is one of ``elements``, it is swept last, on
    ``total`` alone: with ``state_top = total * X_top``, the step
    ``total * (1 - X_top) + state_top * pair_w(top, top)`` is computed as
    ``total + state_top * (pair_w(top, top) - 1)``, which spares a doubled
    copy of ``total``.

    Each pair weight is packed once, by the δ codec of ``PairWeights``, and
    terms are keyed by packed ints (``_packed.sweep``), so a term times a
    pair-weight monomial times ``X_c`` is one int addition; an exponent past
    δ raises ``ValueError``.  The numerator is returned packed, its mask
    bits the X variables of ``elements``.

    Chains are counted first, so a chain cap hit costs no polynomial work.
    After each element the live terms of all states and ``total`` are
    counted, and more than ``max_terms`` raises ``CapExceededError``.
    """
    bottom = ctx.spec.bottom()
    top = ctx.spec.top()
    above = above_lists(elements, key)
    # An element strictly below another has strictly fewer elements below it.
    below = Counter(j for js in above for j in js)
    ranked = sorted(range(len(elements)), key=below.__getitem__)
    order = [elements[i] for i in ranked]
    preds = {c: [bottom] for c in elements}
    for i in ranked:
        for j in above[i]:
            preds[elements[j]].append(elements[i])

    counts = {bottom: 1}
    for c in order:
        counts[c] = sum(counts[s] for s in preds[c])
    chain_count = sum(counts.values())
    cap = DEFAULT_MAX_CHAINS if max_chains is None else max_chains
    if chain_count > cap:
        raise CapExceededError(f"chain enumeration exceeds cap {cap}")

    swept = order[:-1] if top in preds else order
    bit = {c: 1 << k for k, c in enumerate(elements)}
    weights = PairWeights(ctx.spec, ctx.table, ctx.yvars, lambda a, b, *_: pair_w(ctx, a, b))
    term_cap = DEFAULT_MAX_TERMS if max_terms is None else max_terms
    total = sweep(bottom, top, above, preds, swept, bit, weights, term_cap)
    x_vids = tuple(ctx.x_ids[e] for e in elements)
    return PackedNumerator(ctx.table, x_vids, weights.codec, total), chain_count


def _hls_pair(ctx: SeriesContext, a: Element, b: Element) -> LaurentPoly:
    return pair_weight(a, b, ctx.yvars, ctx.table)


def _series(
    spec: PosetSpec,
    pair_w: Callable[[SeriesContext, Element, Element], LaurentPoly],
    max_chains: int | None,
    max_elements: int | None,
    max_terms: int | None,
    interval: str = "half_open",
    key: Callable[[Element], Sequence[int]] = order_key,
) -> HlsRational:
    """The chain series of an interval of ``spec`` under ``key`` and ``pair_w``."""
    ctx = make_context(spec, max_elements)
    elements = ctx.x_elements if interval == "half_open" else ctx.x_elements[:-1]
    numerator, chain_count = _chain_series(ctx, elements, key, pair_w, max_chains, max_terms)
    names = tuple(render_element(e) for e in elements)
    return HlsRational(spec, ctx.table, ctx.yvars, numerator, numerator.x_vids, names, chain_count)


def hls(
    spec: PosetSpec,
    max_chains: int | None = None,
    max_elements: int | None = None,
    max_terms: int | None = None,
) -> HlsRational:
    """The series over strict chains of the half-open interval."""
    return _series(spec, _hls_pair, max_chains, max_elements, max_terms)


def hls_modified(
    spec: PosetSpec,
    max_chains: int | None = None,
    max_elements: int | None = None,
    max_terms: int | None = None,
) -> HlsRational:
    """The series over strict chains of the open interval."""
    return _series(spec, _hls_pair, max_chains, max_elements, max_terms, "open")


def relation_check(
    spec: PosetSpec,
    max_chains: int | None = None,
    max_elements: int | None = None,
    max_terms: int | None = None,
) -> bool:
    """Exact check that the half-open series is the open one over 1 - X_top.

    With the shared universal denominator this reduces to equality of the
    two packed numerators (``PackedNumerator.equals_open``), since the
    denominators differ by exactly the top factor.
    """
    if spec.is_degenerate():
        raise DegenerateSpecError("bottom equals top; the relation presupposes otherwise")
    h = hls(spec, max_chains, max_elements, max_terms)
    hm = hls_modified(spec, max_chains, max_elements, max_terms)
    return h.packed_numerator().equals_open(hm.packed_numerator())


# -- truncated expansions ----------------------------------------------------------


class TruncatedSeries(_Fields):
    """Coefficients of X multidegrees up to a total-degree bound.

    A series built here keeps its coefficients packed until
    ``coefficients`` is read; ``texts`` renders them from the keys.
    """

    _fields = ("bound", "table", "x_vars", "coefficients")
    # A lambda, so that a test double of ``PackedCoefficients.unpack`` takes effect.
    coefficients = _Unpacked(PackedCoefficients, lambda packed: packed.unpack())

    def __init__(
        self,
        bound: int,
        table: VarTable,
        x_vars: tuple[int, ...],
        coefficients: dict[tuple[int, ...], LaurentPoly] | PackedCoefficients,
    ):
        self.bound, self.table, self.x_vars, self.coefficients = bound, table, x_vars, coefficients

    def coefficient(self, key: tuple[int, ...]) -> LaurentPoly:
        return self.coefficients.get(key, LaurentPoly.zero(self.table))

    def texts(self) -> list[tuple[tuple[int, ...], str]]:
        """Each X multidegree and its coefficient's text, by total degree, then multidegree."""
        stored = self._coefficients
        if isinstance(stored, PackedCoefficients):
            texts = stored.texts()
        else:
            texts = {key: c.text() for key, c in stored.items()}
        return sorted(texts.items(), key=lambda kv: (sum(kv[0]), kv[0]))


def expand_multichain(
    spec: PosetSpec,
    bound: int,
    max_chains: int | None = None,
    max_elements: int | None = None,
) -> TruncatedSeries:
    """Direct multichain expansion: one weight per multiplicity vector.

    The weights come packed by the δ codec (``_packed.PairWeights``), and
    each coefficient sums them on their keys.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    ctx = make_context(spec, max_elements)
    index = {e: k for k, e in enumerate(ctx.x_elements)}
    m = len(ctx.x_elements)
    weights = PairWeights(spec, ctx.table, ctx.yvars, pair_weight)
    coeffs: dict[tuple[int, ...], Terms] = {}
    mchains = enumerate_multichains(spec, "half_open", bound, max_chains, max_elements)
    for mchain, weight in chain_weights(mchains, spec.bottom(), spec.top(), weights):
        key = [0] * m
        for e in mchain:
            key[index[e]] += 1
        acc = coeffs.setdefault(tuple(key), {})
        for y, c in weight:
            acc[y] = acc.get(y, 0) + c
    coeffs = {k: t for k, acc in coeffs.items() if (t := {y: c for y, c in acc.items() if c})}
    x_vars = tuple(ctx.x_ids[e] for e in ctx.x_elements)
    packed = PackedCoefficients(ctx.table, weights.codec, coeffs)
    return TruncatedSeries(bound, ctx.table, x_vars, packed)


def expand_rational(h: HlsRational, bound: int) -> TruncatedSeries:
    """Geometric expansion of the stored numerator/denominator, truncated.

    The numerator must be the packed one of a series built here: each
    term's X degrees are the bits of its mask, and its Y key is kept.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    numerator = h.packed_numerator()
    m = len(numerator.x_vids)
    low = (1 << m) - 1
    coeffs: dict[tuple[int, ...], Terms] = {}
    for key, c in numerator.terms.items():
        mask = key & low
        if mask.bit_count() <= bound:
            degrees = tuple(mask >> i & 1 for i in range(m))
            coeffs.setdefault(degrees, {})[key >> m] = c
    for pos in range(m):
        update: dict[tuple[int, ...], Terms] = {}
        for key, bucket in coeffs.items():
            total = sum(key)
            for t in range(0, bound - total + 1):
                key2 = key[:pos] + (key[pos] + t,) + key[pos + 1 :]
                target = update.setdefault(key2, {})
                for y, c in bucket.items():
                    c2 = target.get(y, 0) + c
                    if c2:
                        target[y] = c2
                    elif y in target:
                        del target[y]
        coeffs = update
    coeffs = {key: bucket for key, bucket in coeffs.items() if bucket}
    packed = PackedCoefficients(h.table, numerator.codec, coeffs)
    return TruncatedSeries(bound, h.table, h.denominator_vars, packed)


# -- substitution ------------------------------------------------------------------


class ZeroDenominatorError(ValueError):
    """A substitution sent some denominator factor to the zero polynomial."""


class SubstitutedRational(NamedTuple):
    table: VarTable
    numerator: LaurentPoly
    denominator_factors: tuple[LaurentPoly, ...]


def substitute(
    h: HlsRational,
    x_map: Mapping[Element, LaurentPoly | int] | None = None,
    y_map: Mapping[int, LaurentPoly | int] | None = None,
    table: VarTable | None = None,
) -> SubstitutedRational:
    """Substitute into numerator and denominator factors, no cancellation.

    ``x_map`` is keyed by interval elements (resolved through the spec's
    context); ``y_map`` directly by variable id.  Unmapped variables keep
    their names in the target table.
    """
    images: dict[int, LaurentPoly | int] = {}
    if x_map:
        if h.spec is None:
            raise ValueError("this value has no poset spec; map variables by id instead")
        ctx = make_context(h.spec)
        for element, image in x_map.items():
            images[ctx.x_ids[element]] = image
    if y_map:
        images.update(y_map)
    target = table if table is not None else h.table
    numerator = h.numerator.subs(images, target)
    factors = []
    for v in h.denominator_vars:
        image = images.get(v)
        if image is None:
            image = LaurentPoly.variable(target, target.id(h.table.name(v)))
        factor = 1 - (LaurentPoly.const(target, image) if isinstance(image, int) else image)
        if factor.is_zero():
            raise ZeroDenominatorError(
                f"denominator factor for {h.table.name(v)} vanished under substitution"
            )
        factors.append(factor)
    return SubstitutedRational(target, numerator, tuple(factors))


# -- specializations ----------------------------------------------------------------


def _zero_count_pair(ctx: SeriesContext, a: Element, b: Element) -> LaurentPoly:
    """Telescoping factor of the tableau zero-count binomials, per component."""
    result = LaurentPoly.const(ctx.table, 1)
    for i, (x, y) in enumerate(zip(a, b)):
        result = result * y_binomial(ctx.table, y[0], x[0], ctx.yvars[i][0])
    return result


def _leg_pair(ctx: SeriesContext, a: Element, b: Element) -> LaurentPoly:
    """Leg polynomial of the two adjacent columns that a pair projects to."""
    return phi_tableau(project((a, b), 0, ctx.spec), ctx.yvars[0][1:], ctx.table)


def _unit_pair(ctx: SeriesContext, a: Element, b: Element) -> LaurentPoly:
    return LaurentPoly.const(ctx.table, 1)


def classical_igusa(
    r: int,
    max_elements: int | None = None,
    max_chains: int | None = None,
    max_terms: int | None = None,
) -> HlsRational:
    """Subset-sum form of the one-component, n = 0 series.

    The chains are the subsets of [r], each weighted by its telescoping
    Gaussian multinomial rather than by the pair weights.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    spec = PosetSpec((0,), (r,))
    return _series(spec, _zero_count_pair, max_chains, max_elements, max_terms)


def generalized_igusa(
    r_vec: Sequence[int],
    max_elements: int | None = None,
    max_chains: int | None = None,
    max_terms: int | None = None,
) -> HlsRational:
    """Chain-sum form over a product of chains, weighted by tableau binomials."""
    spec = PosetSpec(tuple(0 for _ in r_vec), tuple(r_vec))
    return _series(spec, _zero_count_pair, max_chains, max_elements, max_terms)


def mv_hls(
    n: int,
    max_elements: int | None = None,
    max_chains: int | None = None,
    max_terms: int | None = None,
) -> HlsRational:
    """Reduced-tableau sum for one component with r = 0.

    Reduced tableaux are identified with strict chains of their column
    sets; the weight is the leg polynomial of the projected tableau, read
    off adjacent columns, so this route is independent of the pairwise
    chain weights.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _series(PosetSpec((n,), (0,)), _leg_pair, max_chains, max_elements, max_terms)


def weak_order_igusa(
    g: int,
    max_elements: int | None = None,
    max_chains: int | None = None,
    max_terms: int | None = None,
) -> HlsRational:
    """Flag sum over nonempty subsets of [g], ordered by inclusion.

    X variables are named by the subsets, which coincides with the element
    naming of the one-component r = 0 poset on [g].
    """
    if g < 1:
        raise ValueError("g must be positive")
    spec = PosetSpec((g,), (0,))
    # Inclusion of subsets is componentwise <= of their indicator vectors.
    value = _series(spec, _unit_pair, max_chains, max_elements, max_terms, key=itemgetter(0))
    # Set in place, which leaves the numerator packed.
    value.spec = None
    return value

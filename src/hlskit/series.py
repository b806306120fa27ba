"""Chain generating series over the universal denominator, and specializations.

A series value (``HlsRational``, defined in ``_packed``) is an immutable
record of the exact numerator, left packed as the sweep builds it, over the
ordered denominator factors ``(1 - X_c)``, one per X variable of the
numerator, i.e. per interval element; no rational-function normalization
ever happens.  The numerator of the half-open series is

    sum over strict chains C of  W_C(Y) * prod_{c in C} X_c * prod_{c not in C} (1 - X_c),

which is the chain sum with denominators cleared.  Every series here is
assembled by one transfer-matrix sweep, ``_chain_series``, from a pair weight
of its own.  Truncated expansions (``TruncatedSeries``) hold their
coefficients packed in the same way; the ``LaurentPoly`` views,
``numerator`` and ``coefficients``, unpack on each read.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from operator import itemgetter, sub
from typing import Callable, NamedTuple, Sequence

from ._packed import ONE, HlsRational, PairWeights, Terms, TruncatedSeries, _add_product
from .exactalg import LaurentPoly, VarTable, y_binomial
from .poset import (
    CapExceededError,
    DegenerateSpecError,
    Element,
    PosetSpec,
    _members,
    chain_plan,
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


def make_context(spec: PosetSpec, max_elements: int | None = None) -> SeriesContext:
    x_elements = tuple(interval_elements(spec, "half_open", max_elements))
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
    x_ids = {}
    for e in x_elements:
        names.append("X{" + render_element(e) + "}")
        x_ids[e] = next_id
        next_id += 1
    return SeriesContext(spec, VarTable(names), tuple(yvars), x_elements, x_ids)


# Live terms a chain-series sweep may hold after any element.  A live term
# takes about 90 bytes, and one element multiplied the count by at most 3.4
# on the specs measured, so a run this cap stops stays well under 2 GB.
DEFAULT_MAX_TERMS = 5_000_000


def _chain_series(
    spec: PosetSpec,
    weight: Callable[..., LaurentPoly],
    max_chains: int | None,
    max_elements: int | None,
    max_terms: int | None,
    interval: str = "half_open",
    key: Callable[[Element], Sequence[int]] = order_key,
) -> HlsRational:
    """The series value of a chain sum over ``interval``, by the transfer-matrix method.

    The chains are the strict chains of the half-open or open interval's
    elements in the order of their ``key`` vectors (``poset.OrderIndex``),
    each weighted by the product of the pair weight ``weight(a, b, yvars,
    table)`` over consecutive members once the spec's bottom is prepended
    and its top appended.  The bottom must lie below every element and the
    top above every other one, and ``weight`` must keep the contract of
    ``_packed.PairWeights``: polynomials in the Y variables alone, whose
    exponents keep within δ, and ``w(e, e) = 1``.

    The sweep follows a linear extension and keeps one partial numerator
    per last chain element, starting from the bottom.  At each element
    ``c``, every state ``s`` below ``c`` sends ``state * X_c * w(s, c)``
    to the new state ``c``, and every earlier state takes the factor
    ``1 - X_c`` (Stanley, EC1 section 4.7).  A state is folded into one
    running ``total``, times ``w(s, top)``, as soon as the last element
    above it other than the top is swept; from then on ``total`` takes the
    ``1 - X_c`` factors in its place, and equal keys of different states
    merge.  The top of the half-open interval is not swept: its step,
    ``total * (1 - X_top) + total * X_top * w(top, top)``, is ``total``, as
    ``w(top, top) = 1``, which packing its row checks.

    The sweep runs on the nodes of ``poset.chain_plan``, along its linear
    extension.  The pair weights it reads are packed once, by the δ codec,
    into the rows of a transfer matrix (``PairWeights.rows``), and a term
    ``c * Y^e * prod_{i in S} X_i`` has the key ``y << m | mask``, ``y``
    the key of ``Y^e`` and bit ``i`` of the mask for element ``i``.  So a
    term times a pair-weight monomial times ``X_c`` is one int addition,
    and ``1 - X_c`` is ``key + (1 << c)``.  The numerator is returned
    packed, its mask bits the X variables of the interval, with the chain
    count.

    Chains are counted first, so a chain cap hit costs no polynomial work.
    After each element the live terms of all states and ``total`` are
    counted, and more than ``max_terms`` raises ``CapExceededError``.
    """
    ctx = make_context(spec, max_elements)
    elements = ctx.x_elements if interval == "half_open" else ctx.x_elements[:-1]
    m = len(elements)
    above, order, chain_count = chain_plan(elements, key, max_chains)
    preds = [[m] for _ in elements]
    for i in order:
        for j in above[i]:
            preds[j].append(i)

    swept = order[:-1] if interval == "half_open" else order
    term_cap = DEFAULT_MAX_TERMS if max_terms is None else max_terms
    position = {c: k for k, c in enumerate(swept)}
    # Row s of the transfer matrix: the swept nodes above node s, then the top.
    end = m + 1
    successors = [[*(j for j in js if j in position), end] for js in above]
    # A state folds into ``total`` once no element but the top is left above
    # it: in the step of the last one above it, before its ``1 - X_c``, or
    # right after its own step if there is none (key None).
    fold_at = {}
    for s in (m, *range(m)):
        after = [position[j] for j in successors[s][:-1]]
        fold_at.setdefault(max(after, default=None), []).append(s)
    maximal = set(fold_at.pop(None, ()))
    weights = PairWeights(spec, ctx.table, ctx.yvars, weight)
    rows = weights.rows([*elements, spec.bottom(), spec.top()], successors)

    states = {m: {0: 1}}
    total: Terms = {}

    def fold(s: int) -> None:
        _add_product(total, states.pop(s), {y << m: a for y, a in rows[s][end].items()})

    def check(step: int) -> None:
        if len(total) + sum(map(len, states.values())) > term_cap:
            raise CapExceededError(f"term cap {term_cap} exceeded at element {step} of {m}")

    if m in maximal:
        fold(m)
    check(0)
    for k, c in enumerate(swept):
        b = 1 << c
        incoming: Terms = {}
        for s in preds[c]:
            _add_product(incoming, states[s], {y << m | b: a for y, a in rows[s][c].items()})
        for s in fold_at.get(k, ()):
            fold(s)
        for terms in (*states.values(), total):
            terms.update({key + b: -a for key, a in terms.items()})
        states[c] = incoming
        if c in maximal:
            fold(c)
        check(k + 1)
    x_vars = tuple(ctx.x_ids[e] for e in elements)
    return HlsRational(spec, ctx.yvars, chain_count, ctx.table, x_vars, weights.codec, total)


def hls(
    spec: PosetSpec,
    max_chains: int | None = None,
    max_elements: int | None = None,
    max_terms: int | None = None,
) -> HlsRational:
    """The series over strict chains of the half-open interval."""
    return _chain_series(spec, pair_weight, max_chains, max_elements, max_terms)


def hls_modified(
    spec: PosetSpec,
    max_chains: int | None = None,
    max_elements: int | None = None,
    max_terms: int | None = None,
) -> HlsRational:
    """The series over strict chains of the open interval."""
    return _chain_series(spec, pair_weight, max_chains, max_elements, max_terms, "open")


def relation_check(
    spec: PosetSpec,
    max_chains: int | None = None,
    max_elements: int | None = None,
    max_terms: int | None = None,
) -> bool:
    """Exact check that the half-open series is the open one over 1 - X_top.

    With the shared universal denominator this reduces to equality of the
    two packed numerators (``HlsRational.equals_open``), since the
    denominators differ by exactly the top factor.
    """
    if spec.is_degenerate():
        raise DegenerateSpecError("bottom equals top; the relation presupposes otherwise")
    h = hls(spec, max_chains, max_elements, max_terms)
    hm = hls_modified(spec, max_chains, max_elements, max_terms)
    return h.equals_open(hm)


# -- truncated expansions ----------------------------------------------------------


def expand_multichain(
    spec: PosetSpec,
    bound: int,
    max_chains: int | None = None,
    max_elements: int | None = None,
) -> TruncatedSeries:
    """Direct multichain expansion: one weight per strict chain.

    A multichain's weight is the product of the pair weights along it, from
    the bottom to the top, where a repeated element ``e`` adds ``w(e, e)``.
    ``PairWeights`` checks that to be 1 for every element (a ``ValueError``
    names one where it is not), so the multichains on a strict chain of ``l``
    elements, one per multiplicity vector of total at most ``bound``
    (``C(bound, l)``, by stars and bars), share the chain's weight, packed
    by the δ codec (``_packed.PairWeights``), as one coefficient dict.
    ``poset.chain_plan`` counts the multichains first, with ``degree``
    ``bound``, and more than ``max_chains``, the empty one included, raises
    ``CapExceededError`` before any weight work; its strict-above lists
    then guide the walk.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    ctx = make_context(spec, max_elements)
    elements = ctx.x_elements
    m = len(elements)
    above, _, _ = chain_plan(elements, max_chains=max_chains, degree=bound)
    weights = PairWeights(spec, ctx.table, ctx.yvars, pair_weight)
    for e in elements:
        weights(e, e)  # raises unless w(e, e) = 1
    # combinations() copies its pool, and with no element only () needs one.
    pool = range(1, bound + 1) if m else ()
    # Multiplicity vectors on k elements, from partial sums, after a 0 for elements off the chain.
    vectors = cache(lambda k: [(0, *map(sub, sums, (0, *sums))) for sums in combinations(pool, k)])
    coeffs: dict[tuple[int, ...], Terms] = {}
    # Node m is the bottom; the end, node m + 1, is the top, the last column of every row
    # (node m - 1, if m > 0), so its column is the top's, as w(top, top) is 1.  A chain's
    # members come in index order, and the vectors of one length are closed under permutation.
    steps = above
    if bound < 2:  # no step joins two elements: their rows need only the top
        steps = [*(js[-1:] for js in above[:m]), above[m] if bound else above[m][-1:]]
    rows = weights.rows([*elements, spec.bottom()], steps)
    for row in rows:
        row[m + 1] = row.get(m - 1, ONE)
    for mask, weight in chain_weights(rows, m, m + 1, bound):
        if weight:
            slots, chain = [0] * m, _members(mask)
            for j, i in enumerate(chain, 1):
                slots[i] = j
            for vector in vectors(len(chain)):
                coeffs[tuple(map(vector.__getitem__, slots))] = weight
    x_vars = tuple(ctx.x_ids[e] for e in elements)
    return TruncatedSeries(bound, x_vars, ctx.table, weights.codec, coeffs)


def expand_rational(h: HlsRational, bound: int) -> TruncatedSeries:
    """Geometric expansion of the stored numerator/denominator, truncated.

    Each term's X degrees are the bits of its packed key's mask, and its Y
    key is kept.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    m = len(h.denominator_vars)
    low = (1 << m) - 1
    coeffs: dict[tuple[int, ...], Terms] = {}
    for key, c in h.terms.items():
        mask = key & low
        if mask.bit_count() <= bound:
            degrees = tuple(mask >> i & 1 for i in range(m))
            coeffs.setdefault(degrees, {})[key >> m] = c
    for pos in range(m):
        update: dict[tuple[int, ...], Terms] = {}
        for key, bucket in coeffs.items():
            total = sum(key)
            # Merged inline: one _add_product per (key2, t) ran degree 120 14% slower, median of 9.
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
    return TruncatedSeries(bound, h.denominator_vars, h.table, h.codec, coeffs)


# -- specializations ----------------------------------------------------------------


def _zero_count_pair(
    a: Element, b: Element, yvars: Sequence[Sequence[int]], table: VarTable
) -> LaurentPoly:
    """Telescoping factor of the tableau zero-count binomials, per component."""
    result = LaurentPoly.const(table, 1)
    for i, (x, y) in enumerate(zip(a, b)):
        result = result * y_binomial(table, y[0], x[0], yvars[i][0])
    return result


def _leg_pair(
    a: Element, b: Element, yvars: Sequence[Sequence[int]], table: VarTable
) -> LaurentPoly:
    """Leg polynomial of the two adjacent columns that a pair of (n),(0) projects to."""
    return phi_tableau(project((a, b), 0, PosetSpec((len(a[0]) - 1,), (0,))), yvars[0][1:], table)


def _unit_pair(
    a: Element, b: Element, yvars: Sequence[Sequence[int]], table: VarTable
) -> LaurentPoly:
    return LaurentPoly.const(table, 1)


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
    return _chain_series(spec, _zero_count_pair, max_chains, max_elements, max_terms)


def generalized_igusa(
    r_vec: Sequence[int],
    max_elements: int | None = None,
    max_chains: int | None = None,
    max_terms: int | None = None,
) -> HlsRational:
    """Chain-sum form over a product of chains, weighted by tableau binomials."""
    spec = PosetSpec(tuple(0 for _ in r_vec), tuple(r_vec))
    return _chain_series(spec, _zero_count_pair, max_chains, max_elements, max_terms)


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
    return _chain_series(PosetSpec((n,), (0,)), _leg_pair, max_chains, max_elements, max_terms)


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
    value = _chain_series(spec, _unit_pair, max_chains, max_elements, max_terms, key=itemgetter(0))
    return value._replace(spec=None)

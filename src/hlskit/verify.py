"""Identity checking: zeta/Moebius matrices, reciprocity, order-complex sums.

All checks are exact polynomial identities after clearing the universal
denominator.  By 1 - 1/X = -(1 - X)/X, inverting every variable of a
numerator over m denominator factors multiplies the value by (-1)^m * prod X.
Times K, that is an involution on the sweep's packed keys: c * Y^e * X^S goes
to ±c * Y^(K - e) * X^(full - S), of key (key(K) - key(e)) << m | (full ^ mask),
with no borrow while e <= K in every field (``HlsRational.reciprocity_failure``);
``check_reciprocity`` reads off the value whether its last factor is the top's.
The Möbius rows invert on keys under δ alike.  ``verify_order_complex``
checks each face of the order complex on its own, through sums over its
gaps computed by their own recursion, a route independent of both.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from ._packed import (
    ONE,
    Codec,
    PairWeights,
    Rows,
    Terms,
    _add_product,
    multiply_rows,
    polynomial,
)
from .exactalg import LaurentPoly, VarTable
from .poset import (
    CapExceededError,
    DegenerateSpecError,
    Element,
    OrderIndex,
    PosetSpec,
    chain_plan,
    count_text,
    enumerate_elements,
    leq_t,
    lt_t,
    render_element,
)
from .series import HlsRational, hls, hls_modified, make_context
from .weight import chain_weights, pair_weight

DEFAULT_MAX_SUBSETS = 1 << 12
DEFAULT_MAX_PRODUCTS = 1_000_000


class PolyMatrix(NamedTuple):
    """Square matrix of polynomials indexed by an ordered element list."""

    labels: tuple[Element, ...]
    entries: list[list[LaurentPoly]]
    table: VarTable

    @property
    def dim(self) -> int:
        return len(self.labels)


def _context_vars(
    spec: PosetSpec,
    table: VarTable | None,
    yvars: Sequence[Sequence[int]] | None,
    max_elements: int | None = None,
) -> tuple[VarTable, tuple[tuple[int, ...], ...]]:
    if table is None or yvars is None:
        ctx = make_context(spec, max_elements)
        return ctx.table, ctx.yvars
    return table, tuple(tuple(v) for v in yvars)


class PackedRows(NamedTuple):
    """A matrix over ``labels`` on the packed keys of ``weights.codec``.

    Row ``i`` maps each column ``j`` of a nonzero entry to it, packed;
    entry ``(i, j)`` has exponents at most ``δ(labels[i], labels[j])``.
    """

    labels: tuple[Element, ...]
    weights: PairWeights
    rows: Rows

    def times(self, other: "PackedRows") -> "PackedRows":
        """The product, whose entries must keep within δ as those of zeta and Möbius do."""
        if (other.labels, other.weights.codec) != (self.labels, self.weights.codec):
            raise ValueError("the rows are not over the same elements and codec")
        return self._replace(rows=multiply_rows(self.rows, other.rows))

    def entry(self, i: int, j: int) -> LaurentPoly:
        return polynomial(self.weights.table, self.weights.codec, self.rows[i].get(j, {}))

    def view(self) -> PolyMatrix:
        """The ``PolyMatrix`` of these rows; zero entries share one zero."""
        zero = LaurentPoly.zero(self.weights.table)
        entries = [[zero] * len(self.labels) for _ in self.rows]
        for i, row in enumerate(self.rows):
            for j in row:
                entries[i][j] = self.entry(i, j)
        return PolyMatrix(self.labels, entries, self.weights.table)


def zeta_rows(
    spec: PosetSpec,
    table: VarTable | None = None,
    yvars: Sequence[Sequence[int]] | None = None,
    max_elements: int | None = None,
) -> PackedRows:
    """The pair weights of the comparable pairs, found by ``OrderIndex``, packed as rows."""
    table, yvars = _context_vars(spec, table, yvars, max_elements)
    elements = tuple(enumerate_elements(spec, max_elements))
    index = OrderIndex(elements)
    weights = PairWeights(spec, table, yvars, pair_weight)
    at_or_above = [(i, *index.above(i)) for i in range(len(elements))]
    return PackedRows(elements, weights, weights.rows(elements, at_or_above))


def mobius_rows(zeta: PackedRows) -> PackedRows:
    """The closed-form inverse of packed zeta rows.

    Entry ``(a, b)`` is ``(-1)^(|b| - |a|) * Y^δ(a,b)`` times the zeta
    entry at inverted Y variables.  Each of its terms ``c * Y^e`` has
    ``e <= δ(a, b)``, as packing checked, so it becomes ``±c * Y^(δ - e)``,
    whose key is ``key(δ) - key(e)`` with no borrow.
    """
    labels, weights = zeta.labels, zeta.weights
    rows = []
    for a, row in zip(labels, zeta.rows):
        out = {}
        for j, terms in row.items():
            delta, sign = weights.mobius_factor(a, labels[j])
            out[j] = {delta - key: sign * c for key, c in terms.items()}
        rows.append(out)
    return PackedRows(labels, weights, rows)


def zeta_matrix(
    spec: PosetSpec,
    table: VarTable | None = None,
    yvars: Sequence[Sequence[int]] | None = None,
    max_elements: int | None = None,
) -> PolyMatrix:
    """Entries are the pair weights; zero off the order, one on the diagonal.

    The view of ``zeta_rows``: ``pair_weight`` is called once per
    comparable pair, and every other entry is one shared zero.
    """
    return zeta_rows(spec, table, yvars, max_elements).view()


def mobius_matrix(
    spec: PosetSpec,
    table: VarTable | None = None,
    yvars: Sequence[Sequence[int]] | None = None,
    max_elements: int | None = None,
) -> PolyMatrix:
    """Closed-form inverse of the zeta matrix, the view of ``mobius_rows``."""
    return mobius_rows(zeta_rows(spec, table, yvars, max_elements)).view()


def matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Matrix product on ``LaurentPoly`` arithmetic, summed only over the nonzero products."""
    if a.labels != b.labels:
        raise ValueError("matrix index mismatch")
    if a.table != b.table:
        raise ValueError("operands use different variable tables")
    zero = LaurentPoly.zero(a.table)
    entries = []
    for row_a in a.entries:
        row = [zero] * a.dim
        for x, row_b in zip(row_a, b.entries):
            if x:
                for j, y in enumerate(row_b):
                    if y:
                        row[j] = row[j] + x * y
        entries.append(row)
    return PolyMatrix(a.labels, entries, a.table)


def count_products(
    spec: PosetSpec,
    max_products: int | None = None,
    max_elements: int | None = None,
) -> int:
    """The triples i <= k <= j, one per nonzero product of zeta times Moebius.

    Sums |{j >= k}| * |{i <= k}| over k, one row of the order at a time and
    before any polynomial work.  The partial sum only grows, so the count
    stops at the first row that takes it past the cap.  ``OrderIndex``
    builds a threshold mask only when a row first reads it, so the rows
    counted bound the masks built as well as the products.  The cap
    (``--max-products``) also bounds ``multiply_rows``, which packs the
    rows: it makes at most one multiply-add per pair of terms of
    ``zeta[i][k]`` and ``mobius[k][j]`` over the triples.
    """
    cap = DEFAULT_MAX_PRODUCTS if max_products is None else max_products
    elements = enumerate_elements(spec, max_elements)
    index = OrderIndex(elements)
    up = [0] * len(elements)
    down = [1] * len(elements)  # counts the rows done so far
    triples = 0
    for k in range(len(elements)):
        above = index.above(k)
        up[k] = len(above) + 1
        triples += up[k] * down[k]
        for j in above:
            down[j] += 1
            if j < k:
                triples += up[j]
        if triples > cap:
            raise CapExceededError(
                f"{triples} triples i <= k <= j exceed the cap {cap}"
                f" (counted {k + 1} of {len(elements)} rows)"
            )
    return triples


def identity_mismatch(a: PolyMatrix) -> tuple[int, int] | None:
    """The first (row, column) where ``a`` differs from the identity, if any."""
    for i in range(a.dim):
        for j in range(a.dim):
            e = a.entries[i][j]
            if not (e.is_one() if i == j else e.is_zero()):
                return i, j
    return None


def rows_mismatch(rows: Rows) -> tuple[int, int] | None:
    """``identity_mismatch`` of packed rows, read off the keys.

    Row ``i`` is the identity's when its one nonzero entry is ``{i: 1}``;
    otherwise its first column out of place is the first of its nonzero
    columns other than ``i``, and ``i`` itself if that entry is not 1.
    """
    for i, row in enumerate(rows):
        if row != {i: ONE}:
            wrong = [j for j, terms in row.items() if j != i or terms != ONE]
            return i, min(wrong if i in row else [*wrong, i])
    return None


def is_identity(a: PolyMatrix) -> bool:
    return identity_mismatch(a) is None


def kron(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Kronecker product; combined labels concatenate the component tuples."""
    if a.table != b.table:
        raise ValueError("operands use different variable tables")
    labels = tuple(la + lb for la in a.labels for lb in b.labels)
    entries = [[x * y for x in row_a for y in row_b] for row_a in a.entries for row_b in b.entries]
    return PolyMatrix(labels, entries, a.table)


def mobius_via_chains(
    spec: PosetSpec,
    a: Element,
    b: Element,
    table: VarTable | None = None,
    yvars: Sequence[Sequence[int]] | None = None,
) -> LaurentPoly:
    """Alternating chain sum over the open interval (a, b).

    More than ``poset.DEFAULT_MAX_CHAINS`` chains, the empty one included,
    raise ``CapExceededError`` before any weight.
    """
    table, yvars = _context_vars(spec, table, yvars)
    if a == b:
        return LaurentPoly.const(table, 1)
    if not leq_t(a, b):
        raise ValueError("a must lie below b in the tableau order")
    between = [c for c in enumerate_elements(spec) if lt_t(a, c) and lt_t(c, b)]
    m = len(between)  # chain_plan's nodes: a is the bottom, b the top
    above, _, _ = chain_plan(between)
    weights = PairWeights(spec, table, yvars, pair_weight)
    rows = weights.rows([*between, a, b], [[*js, m + 1] for js in above])
    total: Terms = {}
    for mask, w in chain_weights(rows, m, m + 1):
        _add_product(total, w, ONE if mask.bit_count() % 2 else {0: -1})
    return polynomial(table, weights.codec, total)


def K_and_N(
    spec: PosetSpec,
    table: VarTable | None = None,
    yvars: Sequence[Sequence[int]] | None = None,
) -> tuple[LaurentPoly, int]:
    """The reciprocity monomial and exponent sum for a spec."""
    table, yvars = _context_vars(spec, table, yvars)
    exps: dict[int, int] = {}
    for n, r, ys in zip(spec.n, spec.r, yvars):
        exps[ys[0]] = r * (r - 1) // 2
        exps.update((ys[j], r + j - 1) for j in range(1, n + 1))
    return LaurentPoly.monomial(table, exps, 1), sum(spec.n) + sum(spec.r)


_SERIES = {"hls": hls, "hls_modified": hls_modified}


class ReciprocityCertificate(NamedTuple):
    """A reciprocity verdict; a failed one has a term without its partner, and that partner."""

    spec: PosetSpec | None
    kind: str
    n_value: int
    equal: bool
    term: str | None = None
    expected: str | None = None


def check_reciprocity(value: HlsRational, k: LaurentPoly, n_value: int) -> ReciprocityCertificate:
    """Reciprocity on the packed numerator of a series value, half-open or open.

    ``make_context`` numbers the X variables last, the top's last of all,
    and only the open series drops it: so a value is half-open (``kind``
    ``"hls"``, its last factor the top's) exactly when its last factor is
    the table's last variable, and open (``"hls_modified"``) otherwise.  A
    value whose spec has its bottom equal to its top raises
    ``DegenerateSpecError``.
    """
    if value.spec is not None and value.spec.is_degenerate():
        raise DegenerateSpecError("bottom equals top; the reciprocity statement is vacuous here")
    half_open = value.denominator_vars[-1:] == (len(value.table) - 1,)
    failure = value.reciprocity_failure(k, n_value, half_open)
    kind = "hls" if half_open else "hls_modified"
    return ReciprocityCertificate(value.spec, kind, n_value, failure is None, *failure or ())


def verify_reciprocity(
    spec: PosetSpec,
    kind: str = "hls",
    max_chains: int | None = None,
    max_elements: int | None = None,
    max_terms: int | None = None,
) -> ReciprocityCertificate:
    """Check the functional equation exactly for one spec and series kind."""
    # Before the build, whose caps would count the one element and chain first.
    if spec.is_degenerate():
        raise DegenerateSpecError("bottom equals top; the reciprocity statement is vacuous here")
    if kind not in _SERIES:
        raise ValueError(f"unknown series kind {kind!r}")
    value = _SERIES[kind](spec, max_chains, max_elements, max_terms)
    return check_reciprocity(value, *K_and_N(spec, value.table, value.yvars))


class OrderComplexReport(NamedTuple):
    """The faces that fail the order-complex identity, and how the verdict was reached.

    ``method`` is ``"pairs"`` when the per-pair certificate decided, and
    ``"faces"`` when the face walk ran; ``pairs_checked`` counts the pairs
    the certificate compared, and ``witness`` renders the first pair that
    failed it.
    """

    spec: PosetSpec
    subsets_checked: int
    failures: tuple[str, ...]
    method: str = "faces"
    pairs_checked: int = 0
    witness: tuple[str, str] | None = None

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_order_complex(
    spec: PosetSpec,
    max_subsets: int | None = None,
    max_chains: int | None = None,
    max_elements: int | None = None,
) -> OrderComplexReport:
    """Check the alternating chain-sum identity for every subset of (0,1), face by face.

    For each subset S of the open interval, the signed chain weights of the
    order complex of S must equal σK, ``σ = (-1)^(N-1)``, times the signed
    inverted chain weights over the complement of S.  With ``L[t] =
    (-1)^|t| W_t`` and ``R[t] = σK (-1)^|t| W_t(1/Y)`` for chain t, that
    is ``sum(L[t], t within S) == sum(R[t], t within full - S)``.  Its
    Moebius inversion is ``D[s] = L[s] - (-1)^|s| * sum(R[t], t ⊇ s) ==
    0`` for every s, and only the chains (the faces of the order complex)
    can fail it: a superset of a non-chain is none.  So the identity holds
    on every subset exactly when it holds on every face, and the failures
    are the faces, in ascending mask order.

    The chains t ⊇ s are s plus one chain in each gap (a, b) of ``bottom,
    s, top``, so the superset sum is ``σK (-1)^|s| prod h(a, b)``, with
    ``h(a, b)`` the sum over the chains u of (a, b) of ``(-1)^|u|`` times
    the product of the inverted pair weights along ``a, u, b``; ``-h`` is
    their weighted Moebius function (Philip Hall's theorem, EC1 §3.8).  Let
    ``ŵ(a, b) = Y^δ(a,b) * w(a, b)(1/Y)`` and ``g(a, b) = -Y^δ(a,b) *
    h(a, b)``; splitting u at its first element gives ``g(a, b) = -ŵ(a, b)
    - sum over a < x < b of ŵ(a, x) * g(x, b)``.  δ adds up along s, so
    face s passes exactly when ``W_s = -σ * c * prod g(a, b)``, with ``c =
    K * Y^-δ(bottom, top)``.

    No exponent of ``w(a, b)`` exceeds ``δ(a, b)`` (``PairWeights``), so
    ŵ and g keep within δ and pack by its codec: ŵ has the keys
    ``key(δ(a, b)) - key`` of w, with no borrow.  ``-σ`` is folded into
    the gaps at the top, whose recursion then starts from ``σ * ŵ``, so
    face s passes when ``W_s = c * G_s``, G_s the product of g over its
    gaps.

    The verdict is first tried on the comparable pairs
    (``_pair_certificate``).  Let ``ε`` be 1 at the bottom and the top,
    and at each x of the open interval the sign with ``w(bottom, x) = ε(x)
    * g(bottom, x)``.  If ``w(a, b) = ε(a) ε(b) g(a, b)`` on every pair
    below the top, and ``w(a, top) = ε(a) * c * g(a, top)``, then on a
    chain ``bottom = x0 < x1 < ... < xk < top`` the signs telescope:
    ``W_s = prod ε(x_i) ε(x_i+1) * c * G_s = ε(bottom) ε(top) * c * G_s =
    c * G_s``, with exactly one gap at the top to carry c.  So every face
    passes, and no face is walked.  Away from the top that certificate is
    the closed-form Möbius identity of ŵ, which is ``verify
    zeta-mobius``'s route; so the face walk stays as this route's own
    check, and runs whenever the certificate fails.  It then decides the
    verdict alone (``_failing_faces``): two walks of
    ``weight.chain_weights``, one over the rows of w and one over those of
    g, which hold the same columns in the same order, yield each face's
    two products in step, and each face is checked as they reach it.  Both
    compare on keys when c is 1, as ``K_and_N``'s K gives, and on
    polynomials otherwise.

    ``subsets_checked`` is ``2^m`` for the m elements of the open interval;
    more than ``max_subsets`` raise ``CapExceededError`` first, and more
    than ``max_chains`` chains, the empty one included, before any weight,
    whichever path then decides.
    """
    if spec.is_degenerate():
        raise DegenerateSpecError(
            "bottom equals top; the order-complex identity is vacuous here"
        )
    cap = DEFAULT_MAX_SUBSETS if max_subsets is None else max_subsets
    ctx = make_context(spec, max_elements)
    open_interval = ctx.x_elements[:-1]
    m = len(open_interval)
    if 1 << m > cap:
        raise CapExceededError(f"2^{m} subsets exceed the cap {count_text(cap)}")

    top = m + 1  # chain_plan's nodes
    above, order, _ = chain_plan(open_interval, max_chains=max_chains)

    k, n_value = K_and_N(spec, ctx.table, ctx.yvars)
    sigma = 1 if n_value % 2 else -1
    weights = PairWeights(spec, ctx.table, ctx.yvars, pair_weight)
    nodes = [*open_interval, spec.bottom(), spec.top()]
    keys = [weights.stats(e)[1] for e in nodes]
    delta = weights.codec.unpack(keys[top])
    c = k * LaurentPoly.monomial(ctx.table, {v: -e for v, e in delta}, 1)

    # w and g on every comparable pair, g from the top down.
    w = weights.rows(nodes, [[*js, top] for js in above])
    g: Rows = [{} for _ in nodes]
    for a in (*reversed(order), m):
        # -ŵ(a, b) for each b above a, so each gap sum adds g(mid, b) * -ŵ(a, mid)
        neg = {b: {keys[b] - keys[a] - k: -co for k, co in wb.items()} for b, wb in w[a].items()}
        for b, neg_b in neg.items():
            acc = {key: (-sigma if b == top else 1) * co for key, co in neg_b.items()}
            for mid, neg_mid in neg.items():
                if b in g[mid]:  # g(mid, b) is 0 unless mid < b
                    _add_product(acc, g[mid][b], neg_mid)
            g[a][b] = acc

    rows = (w, g, c, ctx.table, weights.codec)
    checked, witness = _pair_certificate(*rows)
    if witness is None:
        return OrderComplexReport(spec, 1 << m, (), "pairs", checked)
    failures = []
    for s in sorted(_failing_faces(*rows)):
        members = [render_element(open_interval[i]) for i in range(m) if s >> i & 1]
        failures.append("{" + ", ".join(members) + "}")
    pair = tuple(render_element(nodes[x]) for x in witness)
    return OrderComplexReport(spec, 1 << m, tuple(failures), "faces", checked, pair)


def _pair_certificate(
    w: Rows, g: Rows, c: LaurentPoly, table: VarTable, codec: Codec
) -> tuple[int, tuple[int, int] | None]:
    """The pairs compared, and the first ``(a, b)`` off ``w = ε(a) ε(b) g``, or None.

    The bottom is node ``len(w) - 1``, its row first; ``ε(x)`` is -1 where
    ``w(bottom, x)`` is not ``g(bottom, x)``, so that pair fails unless it
    is ``-g(bottom, x)``.  Pairs at the top compare w with c times g.
    """
    bottom = len(w) - 1
    top = bottom + 1
    eps = [1] * len(g)
    for x, wx in w[bottom].items():
        if x != top and wx != g[bottom][x]:
            eps[x] = -1
    on_keys = c.is_one()
    checked = 0
    for a in (bottom, *range(bottom)):
        for b, wb in w[a].items():
            checked += 1
            gb = g[a][b] if eps[a] == eps[b] else {key: -co for key, co in g[a][b].items()}
            if on_keys or b != top:
                same = wb == gb
            else:
                same = polynomial(table, codec, wb) == c * polynomial(table, codec, gb)
            if not same:
                return checked, (a, b)
    return checked, None


def _failing_faces(w: Rows, g: Rows, c: LaurentPoly, table: VarTable, codec: Codec) -> list[int]:
    """The masks of the faces s where ``W_s != c * G_s``, walked in step; see above."""
    m = len(w) - 1
    walks = zip(chain_weights(w, m, m + 1), chain_weights(g, m, m + 1))
    if c.is_one():
        return [mask for (mask, fw), (_, fg) in walks if fw != fg]
    return [
        mask
        for (mask, fw), (_, fg) in walks
        if polynomial(table, codec, fw) != c * polynomial(table, codec, fg)
    ]

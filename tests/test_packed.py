"""The packed-monomial codec, and both of its users against their oracles."""

from collections.abc import Mapping

import pytest

from hlskit import series
from hlskit._packed import (
    ONE,
    Codec,
    HlsRational,
    TruncatedSeries,
    _add_product,
    multiply,
    multiply_rows,
    polynomial,
)
from hlskit.exactalg import VarTable
from hlskit.poset import PosetSpec, enumerate_chains, interval_elements
from hlskit.series import (
    classical_igusa,
    expand_multichain,
    expand_rational,
    generalized_igusa,
    hls,
    hls_modified,
    make_context,
    mv_hls,
    weak_order_igusa,
)
from hlskit.verify import (
    is_identity,
    matmul,
    mobius_matrix,
    mobius_rows,
    mobius_via_chains,
    rows_mismatch,
    zeta_matrix,
    zeta_rows,
)
from hlskit.weight import chain_weight

from conftest import (
    order_complex_routes,
    reference_expand_multichain,
    reference_mobius_matrix,
    reference_multiply_rows,
    reference_numerator_sum,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def test_adjacent_full_width_fields_round_trip():
    # Bounds 3, 7 and 1 fill fields of 2, 3 and 1 bits with no spare bit.
    codec = Codec([3, 7, 1])
    assert codec.fields == [(0, 0, 3), (1, 2, 7), (2, 5, 1)]
    keys = {0b111111: ((0, 3), (1, 7), (2, 1)), 0b011100: ((1, 7),), 0b100011: ((0, 3), (2, 1))}
    for key, mono in [*keys.items(), (0, ())]:
        assert codec.unpack(key) == mono
    # A product within the bounds is the sum of the keys: x y^3 times x^2 y^4 z.
    assert codec.unpack(0b001101 + 0b110010) == ((0, 3), (1, 7), (2, 1))


def test_bound_zero_gets_no_field():
    codec = Codec([2, 0, 5, 0])
    assert [v for v, _, _ in codec.fields] == [0, 2]
    assert codec.shifts[1] == codec.shifts[2] == 2
    assert codec.unpack(0b10110) == ((0, 2), (2, 5))
    assert Codec([0, 0]).fields == [] and Codec([0, 0]).unpack(0) == ()


def test_codecs_of_the_same_fields_are_equal():
    # Bounds 3, 7, 1 and 2, 4, 1 give fields of 2, 3 and 1 bits alike.
    assert Codec([3, 7, 1]) == Codec([2, 4, 1])
    assert Codec([2, 0, 5]) == Codec([3, 0, 4])
    assert Codec([3, 7, 1]) != Codec([3, 8, 1])
    assert Codec([2, 0, 5]) != Codec([2, 5, 0])
    assert Codec([0, 0]) == Codec([])
    assert Codec([3]) != Codec([3]).fields


def test_add_product_accumulates_and_drops_cancelled_keys():
    # Keys add as exponents: (t^3 + 2 t^5)(t - t^2) = t^4 + 2 t^6 - t^5 - 2 t^7,
    # added to -t^4 - 2 t^6 + t^9, cancels two keys.
    acc = {4: -1, 6: -2, 9: 1}
    _add_product(acc, {3: 1, 5: 2}, {1: 1, 2: -1})
    assert acc == {5: -1, 7: -2, 9: 1}
    acc = {}
    _add_product(acc, {0: 1, 1: 1}, {0: 1, 1: -1})
    assert acc == {0: 1, 2: -1}
    _add_product(acc, {0: -1}, {0: 1})
    assert acc == {2: -1}


def test_the_shared_unit_is_read_only():
    # multiply returns ONE itself, and rows and expansions store it, so an
    # update in place would change every later product.
    assert ONE == {0: 1} and multiply(ONE, ONE) is ONE
    with pytest.raises(TypeError):
        ONE[0] = 2
    with pytest.raises(TypeError):
        ONE[1] = 1
    with pytest.raises(TypeError):
        del ONE[0]
    assert ONE == {0: 1}


# Three variables of 3-bit fields: exponents up to 3 in each factor add without carries.
TABLE, CODEC = VarTable(["a", "b", "c"]), Codec([6, 6, 6])
EXPONENTS = st.integers(min_value=0, max_value=3)
PACKED = st.dictionaries(
    st.builds(lambda a, b, c: a | b << 3 | c << 6, EXPONENTS, EXPONENTS, EXPONENTS),
    st.integers(min_value=-3, max_value=3).filter(bool),
    max_size=6,
)


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(p=PACKED, q=PACKED)
def test_multiply_matches_the_laurent_product_and_keeps_its_inputs(p, q):
    before = dict(p), dict(q)
    product = multiply(p, q)
    assert all(product.values())
    want = polynomial(TABLE, CODEC, p) * polynomial(TABLE, CODEC, q)
    assert polynomial(TABLE, CODEC, product) == want
    assert (p, q) == before


def test_multiply_shortcuts_the_unit_and_drops_cancelled_keys():
    p = {1: 2, 8: -1}
    for one in (ONE, {0: 1}):
        assert multiply(p, one) is p and multiply(one, p) is p
    # (1 + a)(1 - a) = 1 - a^2: the two a terms cancel and leave no key.
    assert multiply({0: 1, 1: 1}, {0: 1, 1: -1}) == {0: 1, 2: -1}
    # A product over the integers is zero only with a zero factor.
    for zero, other in (({}, p), (p, {}), ({}, ONE), (ONE, {})):
        assert multiply(zero, other) == {}
    assert p == {1: 2, 8: -1}


def assert_clean_rows(rows):
    """Columns ascend, and no entry is empty or holds a zero coefficient."""
    for row in rows:
        assert list(row) == sorted(row)
        assert all(terms and all(terms.values()) for terms in row.values())


# Entries of one to three terms with coefficients up to ±2^100; keys only add here.
ENTRIES = st.dictionaries(
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=-(2**100), max_value=2**100).filter(bool),
    min_size=1,
    max_size=3,
)


@st.composite
def square_rows(draw):
    """Two sparse square matrices, with empty rows and columns.

    Optionally rows ``k1`` and ``k2`` of ``b`` cancel: ``b[k2] = -b[k1]``,
    column ``k2`` of ``a`` equals column ``k1``, and column ``j`` of ``b`` is
    nonzero only at those rows, so column ``j`` of the product sums to zero.
    """
    dim = draw(st.integers(min_value=0, max_value=6))
    cells = st.lists(st.tuples(st.integers(0, max(dim - 1, 0)), ENTRIES), max_size=dim)
    a = [dict(draw(cells)) for _ in range(dim)]
    b = [dict(draw(cells)) for _ in range(dim)]
    if dim >= 2 and draw(st.booleans()):
        k1, k2 = draw(st.permutations(range(dim)))[:2]
        j = draw(st.integers(0, dim - 1))
        b[k1].setdefault(j, draw(ENTRIES))
        for k, row in enumerate(b):
            if k != k1:
                row.pop(j, None)
        b[k2] = {col: {key: -c for key, c in terms.items()} for col, terms in b[k1].items()}
        for row in a:
            row.pop(k2, None)
            if k1 in row:
                row[k2] = dict(row[k1])
    return a, b


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
@hypothesis.given(operands=square_rows())
def test_multiply_rows_matches_the_triple_loop(operands):
    a, b = operands
    before = repr(operands)
    product = multiply_rows(a, b)
    assert product == reference_multiply_rows(a, b)
    assert_clean_rows(product)
    assert repr(operands) == before


@pytest.mark.parametrize("t", [2, 3, 7, 30, 31, 64, 100])
def test_multiply_rows_decodes_coefficients_at_plus_and_minus_the_bound(t):
    # Row 0 of a has L1 norm 2^t - 1 and every |b| is 1, so the slot bound is
    # 2^t - 1, and row 0 of the product reaches it; row 2 is row 0 negated,
    # and row 1, between them, is empty.
    bound, half = 2**t - 1, 2 ** (t - 1)
    a = [{0: {0: half}, 1: {0: half - 1}}, {}, {0: {0: -half}, 1: {0: 1 - half}}]
    b = [{0: {0: 1}, 2: {5: -1}}, {0: {0: 1}}, {}]
    product = multiply_rows(a, b)
    assert product == [{0: {0: bound}, 2: {5: -half}}, {}, {0: {0: -bound}, 2: {5: half}}]
    assert product == reference_multiply_rows(a, b)
    # One entry alone at the bound, and at minus the bound, in rows 0 and 2.
    assert multiply_rows([{0: {3: bound}}, {}, {0: {3: -bound}}], b) == [
        {0: {3: bound}, 2: {8: -bound}},
        {},
        {0: {3: -bound}, 2: {8: bound}},
    ]


# -- both codec users against routes that do not pack -------------------------------

PARTS = st.integers(min_value=0, max_value=3)
# The per-chain oracle expands 2^(m - |C|) terms for each chain C, about 6 s
# on (2),(2), which test_series already checks; here it stops at 8 elements.
ORACLE_ELEMENTS = 8


@st.composite
def small_specs(draw):
    """Specs of one or two components with at most 12 elements."""
    g = draw(st.integers(min_value=1, max_value=2))
    n = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=g, max_size=g))
    r = draw(st.lists(PARTS, min_size=g, max_size=g))
    spec = PosetSpec(tuple(n), tuple(r))
    hypothesis.assume(spec.element_count() <= 12)
    return spec


def oracle(spec, interval):
    """Numerator and chain count of a series, chain by chain."""
    ctx = make_context(spec)
    contributions = (
        (chain_weight(chain, spec, ctx.yvars, ctx.table), [ctx.x_ids[e] for e in chain])
        for chain in enumerate_chains(spec, interval)
    )
    vids = [ctx.x_ids[e] for e in interval_elements(spec, interval)]
    return reference_numerator_sum(ctx.table, vids, contributions)


def sorted_coefficients(expansion):
    return sorted(expansion.coefficients.items(), key=lambda kv: (sum(kv[0]), kv[0]))


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(spec=small_specs(), bound=PARTS)
def test_packed_routes_match_unpacked_ones(spec, bound):
    for build, interval in ((hls, "half_open"), (hls_modified, "open")):
        value = build(spec)
        # Rendered from the keys before ``numerator`` unpacks them.
        text = value.numerator_text()
        assert text == value.numerator.text()
        if spec.element_count() <= ORACLE_ELEMENTS:
            assert (value.numerator, value.chain_count) == oracle(spec, interval)
    expansions = expand_rational(hls(spec), bound), expand_multichain(spec, bound)
    for expansion in expansions:
        # Rendered from the keys before ``coefficients`` unpacks them.
        texts = expansion.texts()
        assert texts == [(key, c.text()) for key, c in sorted_coefficients(expansion)]
    assert expansions[0] == expansions[1]
    if spec.element_count() <= ORACLE_ELEMENTS:
        assert expansions[1].coefficients == reference_expand_multichain(spec, bound)
        x_vars = tuple(make_context(spec).x_ids.values())
        assert (expansions[1].bound, expansions[1].x_vars) == (bound, x_vars)
    zeta, mobius = zeta_matrix(spec), mobius_matrix(spec)
    assert mobius.entries == reference_mobius_matrix(spec, zeta).entries
    product = matmul(zeta, mobius)
    assert is_identity(product)
    packed = zeta_rows(spec)
    packed_product = packed.times(mobius_rows(packed))
    assert packed_product.view().entries == product.entries
    assert rows_mismatch(packed_product.rows) is None
    if not spec.is_degenerate():
        # The order-complex certificate and its face walk, each on its own.
        report, witness, failing = order_complex_routes(spec)
        assert (report.method, witness, failing) == ("pairs", None, [])
    # The closed-form Möbius function against the alternating chain sums.
    for i, a in enumerate(mobius.labels):
        for j, b in enumerate(mobius.labels):
            if zeta.entries[i][j]:
                assert mobius_via_chains(spec, a, b) == mobius.entries[i][j]


# -- the numerator text, rendered from packed keys ----------------------------------


def packed_and_unpacked_text(value):
    """The text of a series rendered from its keys, and its numerator's text."""
    assert isinstance(value, HlsRational)
    return value.numerator_text(), value.numerator.text()


@pytest.mark.parametrize(
    "build",
    [
        lambda: classical_igusa(0),
        lambda: classical_igusa(4),
        lambda: generalized_igusa((0, 0)),
        lambda: generalized_igusa((1, 2)),
        lambda: mv_hls(0),
        lambda: mv_hls(3),
        lambda: weak_order_igusa(1),
        lambda: weak_order_igusa(3),
    ],
)
def test_specialization_text_matches_the_unpacked_text(build):
    rendered, unpacked = packed_and_unpacked_text(build())
    assert rendered == unpacked


def test_packed_text_of_the_empty_interval_is_one():
    value = hls(PosetSpec((0,), (0,)))
    assert value.denominator_vars == ()
    assert packed_and_unpacked_text(value) == ("1", "1")


def test_packed_text_shows_coefficients_beyond_one(monkeypatch):
    # weak_order_igusa(3) has coefficients of 2 on X monomials; a pair weight
    # of 4 - 3*w, within δ as the weight w is, gives larger ones, of both
    # signs, on Y monomials.
    value = weak_order_igusa(3)
    assert max(map(abs, value.terms.values())) == 2
    rendered, unpacked = packed_and_unpacked_text(value)
    assert rendered == unpacked and "+ 2*X{1}" in rendered

    pair_weight = series.pair_weight
    monkeypatch.setattr(series, "pair_weight", lambda *args: 4 - 3 * pair_weight(*args))
    value = hls(PosetSpec((0,), (3,)))
    rendered, unpacked = packed_and_unpacked_text(value)
    assert rendered == unpacked == (
        "1 - 3*Y[1,0]*X{0^2} - 3*Y[1,0]*X{0} - 3*Y[1,0]^2*X{0^2} - 3*Y[1,0]^2*X{0}"
        " + 12*Y[1,0]^2*X{0}*X{0^2} + 9*Y[1,0]^3*X{0}*X{0^2}"
    )


# -- truncated expansions, rendered from packed keys --------------------------------


@pytest.mark.parametrize("method", ["multichain", "rational"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_expand_output_never_unpacks_the_coefficients(capsys, monkeypatch, method, fmt):
    from hlskit.cli import main

    argv = ["expand", "--n", "1,1", "--r", "1,1", "--max-degree", "3", "--method", method]
    argv += ["--format", fmt, "--no-timing"]
    assert main(argv) == 0
    expected = capsys.readouterr().out

    def unpack(value):
        raise AssertionError("the coefficients were unpacked")

    monkeypatch.setattr(TruncatedSeries, "coefficients", property(unpack))
    monkeypatch.setattr(HlsRational, "numerator", property(unpack))
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_expansions_hold_their_coefficients_packed():
    spec = PosetSpec((2,), (1,))
    for expansion in (expand_multichain(spec, 3), expand_rational(hls(spec), 3)):
        terms = expansion.terms
        assert all(isinstance(t, Mapping) for t in terms.values())
        view = expansion.coefficients
        # Each read unpacks anew and leaves the packed form as it was.
        assert expansion.coefficients is not view and expansion.coefficients == view
        assert expansion.terms is terms


def test_expand_rational_reads_the_packed_numerator_after_an_unpack():
    spec = PosetSpec((1,), (2,))
    value = hls(spec)
    expected = expand_rational(value, 3)
    assert value.numerator.term_count == 12
    assert expand_rational(value, 3) == expected


def one_term_mutant(value):
    """A copy of ``value`` whose packed form has one coefficient negated."""
    terms = dict(value.terms)
    key = next(iter(terms))
    if isinstance(terms[key], Mapping):  # an expansion: a coefficient is a dict of its own
        y, c = next(iter(terms[key].items()))
        terms[key] = {**terms[key], y: -c}
    else:
        terms[key] = -terms[key]
    return value._replace(terms=terms)


def test_series_values_are_immutable_and_compare_by_value():
    spec = PosetSpec((1,), (2,))
    value, expansion = hls(spec), expand_multichain(spec, 3)
    assert value != hls_modified(spec)
    assert expansion == expand_rational(hls(spec), 3) != expand_multichain(spec, 2)
    fields = ("spec", "yvars", "chain_count", "table", "denominator_vars", "codec", "terms")
    assert value._fields == fields
    assert expansion._fields == ("bound", "x_vars", "table", "codec", "terms")
    cases = (
        (value, lambda: hls(spec), ("numerator", "term_count", "denominator_names")),
        (expansion, lambda: expand_multichain(spec, 3), ("coefficients",)),
    )
    for item, build, views in cases:
        for field in (*item._fields, *views):
            with pytest.raises(AttributeError):
                setattr(item, field, None)
        with pytest.raises(TypeError):
            hash(item)
        mutant = one_term_mutant(item)
        assert item == build() and mutant != item and mutant != build()

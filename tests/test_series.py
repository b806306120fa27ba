from math import comb

import pytest

from hlskit import poset, series
from hlskit._packed import PairWeights
from hlskit.exactalg import LaurentPoly, VarTable, y_multinomial
from hlskit.poset import (
    CapExceededError,
    DegenerateSpecError,
    OrderIndex,
    PosetSpec,
    enumerate_chains,
    interval_elements,
    leq_t,
    order_key,
    parse_element,
    render_element,
)
from hlskit.series import (
    _leg_pair,
    _unit_pair,
    _zero_count_pair,
    classical_igusa,
    expand_multichain,
    expand_rational,
    generalized_igusa,
    hls,
    hls_modified,
    make_context,
    mv_hls,
    relation_check,
    weak_order_igusa,
)
from hlskit.weight import chain_weight, pair_weight, phi_tableau, project, theta_tableau

from conftest import (
    brute_force_chains,
    reference_expand_multichain,
    reference_numerator_1_2,
    reference_numerator_sum,
)

SPEC12 = PosetSpec((1,), (2,))

# Every spec with at most 16 elements drawn from a small family.
SMALL_SPECS = [
    PosetSpec((0,), (1,)),
    PosetSpec((0,), (3,)),
    PosetSpec((1,), (1,)),
    PosetSpec((2,), (0,)),
    PosetSpec((3,), (0,)),
    PosetSpec((2,), (2,)),
    PosetSpec((0, 1), (1, 0)),
    PosetSpec((1, 1), (0, 0)),
    PosetSpec((0, 0), (1, 3)),
]


def spec_id(spec):
    return "n" + ",".join(map(str, spec.n)) + "-r" + ",".join(map(str, spec.r))


def test_context_variable_layout():
    ctx = make_context(PosetSpec((1, 0), (0, 2)))
    assert ctx.table.names[:3] == ("Y[1,0]", "Y[1,1]", "Y[2,0]")
    assert all(name.startswith("X{") for name in ctx.table.names[3:])
    assert len(ctx.x_elements) == 2 * 3 - 1
    assert ctx.table.name(ctx.x_ids[ctx.x_elements[-1]]) == "X{1|0^2}"


def test_hls_1_2_matches_the_reference_numerator():
    h = hls(SPEC12)
    assert h.term_count == 12
    assert len(h.denominator_vars) == 5
    assert h.numerator == reference_numerator_1_2(h.table)
    assert h.denominator_names == ("0", "0^2", "1", "0 1", "0^2 1")
    assert h.chain_count == 32


def test_hls_2_2_term_count():
    h = hls(PosetSpec((2,), (2,)))
    assert h.term_count == 1412
    assert len(h.denominator_vars) == 11


def test_degenerate_series_is_one():
    for build in (hls, hls_modified):
        h = build(PosetSpec((0, 0), (0, 0)))
        assert h.numerator.is_one()
        assert h.denominator_vars == ()


def test_modified_series_avoids_the_top_variable():
    h = hls_modified(SPEC12)
    ctx = make_context(SPEC12)
    top = ctx.x_ids[ctx.x_elements[-1]]
    assert all(v != top for mono in h.numerator.terms for v, _ in mono)
    assert len(h.denominator_vars) == 4


def test_relation_between_series():
    assert relation_check(SPEC12)
    assert relation_check(PosetSpec((2,), (1,)))
    assert relation_check(PosetSpec((0, 0), (1, 1)))
    with pytest.raises(DegenerateSpecError):
        relation_check(PosetSpec((0,), (0,)))


@pytest.mark.parametrize(
    "spec", SMALL_SPECS + [SPEC12, PosetSpec((1, 1), (0, 2))], ids=spec_id
)
@pytest.mark.parametrize(
    "interval, build", [("half_open", hls), ("open", hls_modified)], ids=["hls", "hls_modified"]
)
def test_series_matches_per_chain_oracle(spec, interval, build):
    # The transfer-matrix sweep against the chain-by-chain expansion.
    ctx = make_context(spec)
    elements = interval_elements(spec, interval)
    vids = [ctx.x_ids[e] for e in elements]
    contributions = (
        (chain_weight(chain, spec, ctx.yvars, ctx.table), [ctx.x_ids[e] for e in chain])
        for chain in enumerate_chains(spec, interval)
    )
    numerator, count = reference_numerator_sum(ctx.table, vids, contributions)
    h = build(spec)
    assert h.numerator == numerator
    assert h.chain_count == count
    assert h.denominator_vars == tuple(vids)
    assert h.denominator_names == tuple(render_element(e) for e in elements)


def test_constant_term_in_x_is_one():
    for spec in (SPEC12, PosetSpec((1, 1), (1, 0))):
        for build in (hls, hls_modified):
            h = build(spec)
            xvars = set(h.denominator_vars)
            const = {
                m: c
                for m, c in h.numerator.terms.items()
                if all(v not in xvars for v, _ in m)
            }
            assert const == {(): 1}


# -- expansions ---------------------------------------------------------------


def test_expand_multichain_bound_zero():
    ts = expand_multichain(SPEC12, 0)
    key = (0,) * len(ts.x_vars)
    assert list(ts.coefficients) == [key]
    assert ts.coefficient(key).is_one()
    assert ts.coefficient((1,) + key[1:]).is_zero()


def test_expand_top_power_coefficients_are_one():
    ts = expand_multichain(SPEC12, 3)
    m = len(ts.x_vars)
    for k in range(1, 4):
        key = tuple(0 if i < m - 1 else k for i in range(m))
        assert ts.coefficient(key).is_one()


def test_expand_full_table_1_1_by_brute_force():
    # Independent route: accumulate weights multichain by multichain.
    spec = PosetSpec((1,), (1,))
    ctx = make_context(spec)
    from hlskit.poset import enumerate_multichains

    table = {}
    for chain in enumerate_multichains(spec, max_total_length=3):
        key = [0] * len(ctx.x_elements)
        for e in chain:
            key[ctx.x_elements.index(e)] += 1
        key = tuple(key)
        w = chain_weight(chain, spec, ctx.yvars, ctx.table)
        table[key] = table.get(key, LaurentPoly.zero(ctx.table)) + w
    ts = expand_multichain(spec, 3)
    assert ts.coefficients == {k: v for k, v in table.items() if not v.is_zero()}


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=spec_id)
def test_expand_multichain_matches_per_chain_oracle(spec):
    x_vars = tuple(make_context(spec).x_ids.values())
    for bound in range(6):
        expansion = expand_multichain(spec, bound)
        assert expansion.coefficients == reference_expand_multichain(spec, bound)
        assert (expansion.bound, expansion.x_vars) == (bound, x_vars)


@pytest.mark.parametrize(
    "spec, bound", [(PosetSpec((2,), (2,)), 5), (PosetSpec((3,), (1,)), 4)], ids=["n2-r2", "n3-r1"]
)
def test_expand_multichain_matches_per_chain_oracle_on_larger_specs(spec, bound):
    assert expand_multichain(spec, bound).coefficients == reference_expand_multichain(spec, bound)


def test_expand_multichain_requires_unit_weights_on_repeats(monkeypatch):
    # Every multichain on one strict chain takes that chain's weight only
    # because w(e, e) = 1; a pair weight where it fails is refused, by name.
    spec = PosetSpec((1,), (1,))
    e = parse_element("0 1", spec)

    def doubled(a, b, yvars, table):
        w = pair_weight(a, b, yvars, table)
        return w + w if a == b == e else w

    monkeypatch.setattr(series, "pair_weight", doubled)
    with pytest.raises(ValueError, match=r"^the weight of \(0 1, 0 1\) is not 1$"):
        expand_multichain(spec, 2)


def test_expand_multichain_builds_one_order_index(monkeypatch):
    # The strict-above lists that count the multichains also guide the walk.
    built = []

    class Counted(OrderIndex):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(poset, "OrderIndex", Counted)
    for spec, bound in [(SPEC12, 3), (PosetSpec((2,), (2,)), 2), (PosetSpec((1, 1), (1, 0)), 0)]:
        built.clear()
        expand_multichain(spec, bound)
        assert len(built) == 1


@pytest.mark.parametrize(
    "spec", [SPEC12, PosetSpec((1, 1), (1, 0)), PosetSpec((3,), (1,))], ids=spec_id
)
def test_multichain_count_stops_past_the_longest_chain(monkeypatch, spec):
    # No strict chain is longer than the longest, so the count takes no
    # C(bound, l) past it however far the bound lies past the element count.
    calls = []
    monkeypatch.setattr(poset.math, "comb", lambda n, k: calls.append(k) or comb(n, k))
    chains = list(enumerate_chains(spec))
    longest = max(map(len, chains))
    bound = 4 * len(interval_elements(spec, "half_open"))
    count = sum(comb(bound, len(chain)) for chain in chains)
    message = f"^multichain enumeration exceeds cap {count - 1} up to degree {bound}$"
    with pytest.raises(CapExceededError, match=message):
        expand_multichain(spec, bound, max_chains=count - 1)
    assert len(calls) <= longest + 1


def test_dual_path_expansion():
    for spec, bound in [(SPEC12, 4), (PosetSpec((2,), (1,)), 4), (PosetSpec((1, 1), (1, 0)), 3)]:
        assert expand_multichain(spec, bound) == expand_rational(hls(spec), bound)


def test_dual_path_expansion_all_small_specs():
    for spec in SMALL_SPECS:
        assert spec.element_count() <= 16
        for bound in (2, 4):
            assert expand_multichain(spec, bound) == expand_rational(hls(spec), bound)


def test_rational_expansion_degree_zero_is_one():
    for spec in (SPEC12, PosetSpec((1, 1), (1, 0))):
        ts = expand_rational(hls(spec), 0)
        key = (0,) * len(ts.x_vars)
        assert ts.coefficient(key).is_one()
        assert list(ts.coefficients) == [key]


# -- substitution ---------------------------------------------------------------


def test_indicator_substitution_matches_direct_chain_sum():
    # Sending the positive-position variables to 1 must agree with the
    # indicator-weighted chain sum computed directly.
    spec = PosetSpec((2,), (0,))
    ctx = make_context(spec)
    h = hls(spec)
    substituted = h.numerator.subs({v: 1 for v in ctx.yvars[0][1:]})

    def contributions():
        for chain in enumerate_chains(spec):
            full = (spec.bottom(),) + chain + (spec.top(),)
            ok = all(
                all(x <= y for x, y in zip(full[i][0], full[i + 1][0]))
                for i in range(len(full) - 1)
            )
            yield LaurentPoly.const(ctx.table, 1 if ok else 0), [
                ctx.x_ids[e] for e in chain
            ]

    expected, _ = reference_numerator_sum(ctx.table, h.denominator_vars, contributions())
    assert substituted == expected


def test_monomial_substitution_counts_tableau_weights():
    # X_c -> prod of x_i over the multiset gives the cell-count generating
    # function; compare a truncated expansion against direct enumeration.
    spec = PosetSpec((1,), (1,))
    ctx = make_context(spec)
    h = hls(spec)
    names = list(ctx.table.names) + ["x0", "x1"]
    big = VarTable(names)
    x0 = LaurentPoly.variable(big, big.id("x0"))
    x1 = LaurentPoly.variable(big, big.id("x1"))

    def image(element):
        comp = element[0]
        return x0**comp[0] * (x1 if comp[1] else 1)

    # Every element above the bottom has a cell, so X-degree <= cell degree
    # and the X-truncation at the bound loses no term of cell degree <= bound.
    bound = 3
    cell_counts = [sum(e[0]) for e in ctx.x_elements]
    assert min(cell_counts) >= 1
    got = LaurentPoly.zero(big)
    for key, coeff in expand_rational(h, bound).coefficients.items():
        if sum(k * c for k, c in zip(key, cell_counts)) > bound:
            continue
        mono = LaurentPoly.const(big, 1)
        for k, e in zip(key, ctx.x_elements):
            mono = mono * image(e) ** k
        got = got + coeff.subs({}, big) * mono

    from hlskit.poset import enumerate_multichains

    expected = LaurentPoly.zero(big)
    for chain in enumerate_multichains(spec, max_total_length=bound):
        cells = sum(sum(e[0]) for e in chain)
        if cells > bound:
            continue
        w = chain_weight(chain, spec, ctx.yvars, ctx.table).subs({}, big)
        mono = LaurentPoly.const(big, 1)
        for e in chain:
            mono = mono * image(e)
        expected = expected + w * mono
    assert got == expected


# -- specializations ---------------------------------------------------------------


def test_classical_igusa_equals_series():
    for r in (0, 1, 2, 3):
        ci = classical_igusa(r)
        h = hls(PosetSpec((0,), (r,)))
        assert ci.numerator == h.numerator
        assert ci.denominator_vars == h.denominator_vars


def test_generalized_igusa_equals_series():
    for rv in ((2,), (1, 2), (2, 2)):
        gi = generalized_igusa(rv)
        h = hls(PosetSpec(tuple(0 for _ in rv), rv))
        assert gi.numerator == h.numerator
        assert gi.denominator_names == h.denominator_names


def test_mv_hls_univariate_specialization():
    # Tableau-route series, all leg variables sent to one Y, equals the
    # chain-route series under the same substitution.
    for n in (1, 2, 3):
        spec = PosetSpec((n,), (0,))
        ctx = make_context(spec)
        mv = mv_hls(n)
        h = hls(spec)
        assert mv.table == h.table
        if n == 1:
            assert mv.numerator == h.numerator
            continue
        ys = ctx.yvars[0][1:]
        collapse = {v: LaurentPoly.variable(ctx.table, ys[0]) for v in ys[1:]}
        assert mv.numerator.subs(collapse) == h.numerator.subs(collapse)


def test_weak_order_igusa_is_mv_hls_at_one():
    for g in (1, 2, 3):
        wo = weak_order_igusa(g)
        mv = mv_hls(g)
        y_ids = list(range(g + 1))
        assert wo.numerator == mv.numerator.eval_at_one(y_ids)
        assert wo.denominator_vars == mv.denominator_vars
        assert wo.denominator_names == mv.denominator_names


def test_weak_order_igusa_returns_a_value_without_a_spec():
    wo = weak_order_igusa(2)
    assert wo.spec is None
    assert wo == weak_order_igusa(2)
    assert wo._replace(spec=PosetSpec((2,), (0,))) != wo
    with pytest.raises(AttributeError):
        wo.spec = PosetSpec((2,), (0,))
    assert wo.spec is None


def pair_product(pair, ctx, chain):
    full = (ctx.spec.bottom(),) + chain + (ctx.spec.top(),)
    result = LaurentPoly.const(ctx.table, 1)
    for a, b in zip(full, full[1:]):
        result = result * pair(a, b, ctx.yvars, ctx.table)
    return result


def test_classical_igusa_pairs_telescope_to_multinomials():
    for r in range(6):
        spec = PosetSpec((0,), (r,))
        ctx = make_context(spec)
        for chain in enumerate_chains(spec):
            subset = [e[0][0] for e in chain]
            expected = y_multinomial(ctx.table, r, subset, ctx.yvars[0][0])
            assert pair_product(_zero_count_pair, ctx, chain) == expected


def test_generalized_igusa_pairs_telescope_to_tableau_binomials():
    for rv in ((2,), (1, 2), (2, 2), (1, 1, 1)):
        spec = PosetSpec(tuple(0 for _ in rv), rv)
        ctx = make_context(spec)
        for chain in enumerate_chains(spec):
            expected = LaurentPoly.const(ctx.table, 1)
            for i in range(spec.g):
                tab = project(chain, i, spec)
                expected = expected * theta_tableau(tab, ctx.yvars[i][0], ctx.table)
            assert pair_product(_zero_count_pair, ctx, chain) == expected


def test_mv_hls_pairs_multiply_to_tableau_weights():
    for n in range(4):
        spec = PosetSpec((n,), (0,))
        ctx = make_context(spec)
        for chain in enumerate_chains(spec):
            tab = project(chain, 0, spec)
            expected = theta_tableau(tab, ctx.yvars[0][0], ctx.table) * phi_tableau(
                tab, ctx.yvars[0][1:], ctx.table
            )
            assert pair_product(_leg_pair, ctx, chain) == expected


def subset_key(e):
    """The weak order's key: the indicator vector of the subset."""
    return e[0]


def subset_leq(a, b):
    """Inclusion of the subsets that two elements of (g),(0) stand for."""
    return {i for i, x in enumerate(a[0]) if x} <= {i for i, x in enumerate(b[0]) if x}


@pytest.mark.parametrize("g", range(5))
def test_subset_key_index_matches_inclusion(g):
    elements = interval_elements(PosetSpec((g,), (0,)), "half_open")
    above = OrderIndex(elements, subset_key)
    for i, a in enumerate(elements):
        expected = [j for j, b in enumerate(elements) if j != i and subset_leq(a, b)]
        assert above.above(i) == expected


def test_weak_order_igusa_matches_flag_oracle():
    # Flags under inclusion, which the sweep orders by counting subsets below.
    for g in (1, 2, 3):
        ctx = make_context(PosetSpec((g,), (0,)))
        one = LaurentPoly.const(ctx.table, 1)
        contributions = (
            (one, [ctx.x_ids[e] for e in flag])
            for flag in brute_force_chains(ctx.x_elements, len(ctx.x_elements), leq=subset_leq)
        )
        wo = weak_order_igusa(g)
        numerator, count = reference_numerator_sum(ctx.table, wo.denominator_vars, contributions)
        assert wo.numerator == numerator
        assert wo.chain_count == count


def test_weak_order_igusa_flag_count():
    # Flags of nonempty subsets of [2]: {}, {1}, {2}, {12}, {1<12}, {2<12}
    assert weak_order_igusa(2).chain_count == 6


def test_specialization_chain_counts():
    assert classical_igusa(2).chain_count == 4  # subsets of [2]
    assert mv_hls(2).chain_count == hls(PosetSpec((2,), (0,))).chain_count


# -- the chain-series kernel against the per-chain oracle ---------------------------


def kernel_oracle(spec, pair, interval="half_open", leq=leq_t):
    """Numerator and chain count of ``series._chain_series``, chain by chain."""
    ctx = make_context(spec)
    elements = ctx.x_elements if interval == "half_open" else ctx.x_elements[:-1]
    contributions = (
        (pair_product(pair, ctx, chain), [ctx.x_ids[e] for e in chain])
        for chain in brute_force_chains(elements, len(elements), leq=leq)
    )
    return reference_numerator_sum(ctx.table, [ctx.x_ids[e] for e in elements], contributions)


# The orders of the builders: the key the sweep reads, and the pairwise test
# the oracle reads.
TABLEAU = (order_key, leq_t)
SUBSETS = (subset_key, subset_leq)

# Each public builder with its pair weight, its order and specs (n, r) with
# g = 1 and 2 and, where the builder allows one, bottom == top.
BUILDERS = {
    "hls": (hls, pair_weight, TABLEAU, [((0,), (0,)), ((0, 0), (0, 0)), ((1,), (2,)), ((0, 1), (1, 1))]),
    "classical_igusa": (
        lambda spec: classical_igusa(spec.r[0]),
        _zero_count_pair,
        TABLEAU,
        [((0,), (0,)), ((0,), (2,)), ((0,), (4,))],
    ),
    "generalized_igusa": (
        lambda spec: generalized_igusa(spec.r),
        _zero_count_pair,
        TABLEAU,
        [((0, 0), (0, 0)), ((0,), (3,)), ((0, 0), (1, 2))],
    ),
    "mv_hls": (
        lambda spec: mv_hls(spec.n[0]), _leg_pair, TABLEAU, [((0,), (0,)), ((2,), (0,)), ((3,), (0,))]
    ),
    "weak_order_igusa": (
        lambda spec: weak_order_igusa(spec.n[0]),
        _unit_pair,
        SUBSETS,
        [((1,), (0,)), ((2,), (0,)), ((3,), (0,))],
    ),
}


def built(name, interval):
    """Each spec of a builder in ``BUILDERS`` with its series over ``interval``."""
    build, pair, (key, _), shapes = BUILDERS[name]
    for n, r in shapes:
        spec = PosetSpec(n, r)
        if interval == "half_open":
            yield spec, build(spec)
        elif spec.is_degenerate():
            continue
        elif name == "hls":
            yield spec, hls_modified(spec)
        else:
            # The specializations have no open-interval builder; sweep it directly.
            yield spec, series._chain_series(spec, pair, None, None, None, "open", key)


@pytest.mark.parametrize("interval", ["half_open", "open"])
@pytest.mark.parametrize("name", list(BUILDERS))
def test_kernel_matches_reference_for_every_builder(name, interval):
    _, pair, (_, leq), _ = BUILDERS[name]
    for spec, value in built(name, interval):
        numerator, count = kernel_oracle(spec, pair, interval, leq)
        assert value.numerator == numerator
        assert value.chain_count == count
        assert len(value.denominator_vars) == len(make_context(spec).x_elements) - (
            interval == "open"
        )


@pytest.mark.parametrize("interval", ["half_open", "open"])
@pytest.mark.parametrize("name", list(BUILDERS))
def test_every_builder_packs_by_the_delta_codec(name, interval):
    for spec, value in built(name, interval):
        ctx = make_context(spec)
        delta_codec = PairWeights(spec, ctx.table, ctx.yvars, pair_weight).codec
        assert value.codec.fields == delta_codec.fields


def strict_pair(weight):
    """A pair weight that is ``weight(table)`` on strict pairs and 1 on (top, top)."""

    def pair(a, b, yvars, table):
        return LaurentPoly.const(table, 1) if a == b else weight(table)

    return pair


def test_full_width_y_field_does_not_wrap():
    # On (0),(3), δ_0(bottom, top) = 3 gives Y[1,0] a full field of 2 bits,
    # and the weights of the chain 0 < 0^2 reach Y[1,0]^3 in either interval.
    spec = PosetSpec((0,), (3,))
    y = make_context(spec).table.id("Y[1,0]")
    for build, interval in ((hls, "half_open"), (hls_modified, "open")):
        h = build(spec)
        assert h.codec.fields == [(y, 0, 3)]
        numerator, count = kernel_oracle(spec, pair_weight, interval)
        assert h.numerator == numerator and h.chain_count == count
        assert max(e for mono in h.numerator.terms for v, e in mono if v == y) == 3


def test_negative_pair_exponent_raises(monkeypatch):
    def weight(table):
        return LaurentPoly.variable(table, table.id("Y[1,0]"), -1)

    monkeypatch.setattr(series, "pair_weight", strict_pair(weight))
    with pytest.raises(ValueError, match=r"Y\[1,0\]\^-1, past δ"):
        hls(PosetSpec((0,), (2,)))


def test_top_step_reads_the_top_pair_weight(monkeypatch):
    # The half-open sweep does not sweep the top, as w(top, top) = 1, but
    # packs that weight into the top's row; with a weight of 2 there, the
    # half-open series raises, and the open one, which never reads it, builds.
    spec = PosetSpec((1,), (1,))

    def pair(a, b, yvars, table):
        w = pair_weight(a, b, yvars, table)
        return 2 * w if a == b == spec.top() else w

    monkeypatch.setattr(series, "pair_weight", pair)
    with pytest.raises(ValueError, match=r"^the weight of \(0 1, 0 1\) is not 1$"):
        hls(spec)
    numerator, _ = kernel_oracle(spec, pair, "open")
    assert hls_modified(spec).numerator == numerator


def test_term_cap_at_the_peak():
    # (2),(2) holds 3,240 live terms after its 9th of 11 elements, its peak.
    spec = PosetSpec((2,), (2,))
    assert hls(spec, max_terms=3240).numerator == hls(spec).numerator
    with pytest.raises(CapExceededError, match="^term cap 3239 exceeded at element 9 of 11$"):
        hls(spec, max_terms=3239)
    with pytest.raises(CapExceededError, match="^term cap 0 exceeded at element 0 of 0$"):
        hls(PosetSpec((0,), (0,)), max_terms=0)
    # (1,1),(1,1) has two coatoms, so states below only one of them fold
    # early; folding them all at the last element would peak at 50,328.
    spec = PosetSpec((1, 1), (1, 1))
    hls(spec, max_terms=47868)
    with pytest.raises(CapExceededError, match="^term cap 47867 exceeded at element 13 of 15$"):
        hls(spec, max_terms=47867)
    # The peak depends on the sweep's linear extension (poset.chain_plan's):
    # ordered by the number of elements above, in place of below, it is 37,114.
    spec = PosetSpec((2, 1), (1, 0))
    hls(spec, max_terms=51968)
    with pytest.raises(CapExceededError, match="^term cap 51967 exceeded at element 13 of 15$"):
        hls(spec, max_terms=51967)


# -- the series as rational functions, against sympy ----------------------------------


@pytest.mark.parametrize("build, interval", [(hls, "half_open"), (hls_modified, "open")])
@pytest.mark.parametrize(
    "spec", [SPEC12, PosetSpec((1,), (1,)), PosetSpec((1, 1), (1, 0))], ids=spec_id
)
def test_series_is_the_chain_sum_as_a_rational_function(spec, build, interval):
    # numerator / prod(1 - X_c) == sum over chains C of W_C * prod_{c in C} X_c / (1 - X_c),
    # with the denominators left uncleared on the right.
    sympy = pytest.importorskip("sympy")
    ctx = make_context(spec)
    symbol = sympy.symbols(f"v0:{len(ctx.table)}")

    def expr(p):
        terms = p.terms.items()
        return sympy.Add(*(c * sympy.Mul(*(symbol[v] ** e for v, e in m)) for m, c in terms))

    value = build(spec)
    lhs = expr(value.numerator) / sympy.Mul(*(1 - symbol[v] for v in value.denominator_vars))
    rhs = sympy.Add(
        *(
            expr(chain_weight(chain, spec, ctx.yvars, ctx.table))
            * sympy.Mul(*(symbol[ctx.x_ids[c]] / (1 - symbol[ctx.x_ids[c]]) for c in chain))
            for chain in enumerate_chains(spec, interval)
        )
    )
    assert sympy.cancel(sympy.together(lhs - rhs)) == 0
    # The comparison can fail: a difference of 1 does not cancel to zero.
    assert sympy.cancel(sympy.together(lhs - rhs - 1)) != 0

import random

import pytest

from hlskit._packed import PairWeights
from hlskit.exactalg import LaurentPoly, VarTable
from hlskit.poset import (
    PosetSpec,
    above_lists,
    chains_in,
    enumerate_elements,
    enumerate_multichains,
    interval_elements,
    parse_chain,
    parse_component,
    parse_element,
)
from hlskit.series import make_context
from hlskit.weight import (
    SkewTableau,
    chain_weight,
    chain_weights,
    leg_plus_positions,
    pair_weight,
    phi_tableau,
    project,
    refined_leg_pair,
    theta,
    theta_tableau,
)

from conftest import SEED
from test_series import SMALL_SPECS, spec_id

N7 = VarTable(["Y0", "Y1", "Y2", "Y3", "Y4", "Y5", "Y6", "Y7"])
YS7 = list(range(1, 8))


def yv(table, k, e=1):
    return LaurentPoly.variable(table, k, e)


def test_theta_boundary_values():
    table = VarTable(["Y0"])
    a = parse_component("2 4 7", 7, 3)
    empty = (0,) * 8
    top = (3,) + (1,) * 7
    assert theta(empty, a, 0, table).is_one()
    assert theta(a, a, 0, table).is_one()
    assert theta(a, top, 0, table).is_one()  # binom(3, 0): a has no zeros
    b = parse_component("0 4", 7, 3)
    assert theta(b, top, 0, table) == 1 + yv(table, 0) + yv(table, 0, 2)  # binom(3,1)


def test_theta_small_values():
    table = VarTable(["Y0"])
    assert theta((1, 0), (2, 0), 0, table) == 1 + yv(table, 0)
    assert theta((2, 0), (1, 0), 0, table).is_zero()


def test_refined_leg_pair_reference_values():
    a = parse_component("2 4 7", 7, 3)
    b = parse_component("1 4 5 6", 7, 3)
    assert refined_leg_pair(a, b, YS7, N7) == (1 - yv(N7, 2)) * (1 - yv(N7, 7, 2))
    b2 = parse_component("0^3 1 4 5 6", 7, 3)
    assert refined_leg_pair(a, b2, YS7, N7) == (1 - yv(N7, 2, 4)) * (1 - yv(N7, 7, 5))
    a3 = parse_component("1 4 6", 7, 3)
    assert refined_leg_pair(a3, b, YS7, N7).is_one()
    a4 = parse_component("2 3 7", 7, 3)
    b4 = parse_component("0 4 5 6", 7, 3)
    assert refined_leg_pair(a4, b4, YS7, N7).is_zero()


def test_refined_leg_pair_boundary_values():
    spec = PosetSpec((3,), (2,))
    empty = (0, 0, 0, 0)
    top = (2, 1, 1, 1)
    for e in enumerate_elements(spec):
        a = e[0]
        assert refined_leg_pair(empty, a, [1, 2, 3], N7).is_one()
        assert refined_leg_pair(a, a, [1, 2, 3], N7).is_one()
        assert refined_leg_pair(a, top, [1, 2, 3], N7).is_one()


def test_leg_factors_have_positive_exponents():
    # Every emitted factor is 1 - Y^d with d > 0.
    spec = PosetSpec((3,), (2,))
    els = [e[0] for e in enumerate_elements(spec)]
    table = VarTable(["Y1", "Y2", "Y3"])
    for a in els:
        for b in els:
            p = refined_leg_pair(a, b, [0, 1, 2], table)
            assert all(e >= 0 for mono in p.terms for _, e in mono)


def test_pair_weight_anchored_values():
    spec = PosetSpec((2,), (2,))
    ctx = make_context(spec)
    bottom = spec.bottom()
    for e in enumerate_elements(spec):
        assert pair_weight(bottom, e, ctx.yvars, ctx.table).is_one()
        assert pair_weight(e, e, ctx.yvars, ctx.table).is_one()


def test_pair_weight_vanishes_off_order():
    from hlskit.poset import leq_t

    spec = PosetSpec((2,), (2,))
    ctx = make_context(spec)
    els = enumerate_elements(spec)
    for a in els:
        for b in els:
            w = pair_weight(a, b, ctx.yvars, ctx.table)
            assert w.is_zero() == (not leq_t(a, b))


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=spec_id)
def test_pair_weight_is_the_product_of_its_factors(spec):
    # Each factor is computed on its own and multiplied out as polynomials;
    # the terms dict that pair_weight builds directly must be that product,
    # with the variables of every monomial strictly increasing.
    ctx = make_context(spec)
    els = enumerate_elements(spec)
    for a in els:
        for b in els:
            expected = LaurentPoly.const(ctx.table, 1)
            for x, y, ys in zip(a, b, ctx.yvars):
                expected = expected * theta(x, y, ys[0], ctx.table)
                expected = expected * refined_leg_pair(x, y, ys[1:], ctx.table)
            w = pair_weight(a, b, ctx.yvars, ctx.table)
            assert w == expected
            assert all(v < u for mono in w.terms for (v, _), (u, _) in zip(mono, mono[1:]))
    a = els[0]
    with pytest.raises(ValueError, match="elements have different numbers of components"):
        pair_weight(a, a + a, ctx.yvars, ctx.table)
    with pytest.raises(ValueError, match="components have different arities"):
        pair_weight(a, ((0,) + a[0],) + a[1:], ctx.yvars, ctx.table)


def test_chain_weight_empty_chain():
    spec = PosetSpec((2,), (2,))
    ctx = make_context(spec)
    assert chain_weight((), spec, ctx.yvars, ctx.table).is_one()


def test_chain_weight_rejects_non_chains():
    spec = PosetSpec((2,), (2,))
    ctx = make_context(spec)
    a = parse_element("0", spec)
    b = parse_element("1 2", spec)
    with pytest.raises(ValueError):
        chain_weight((a, b), spec, ctx.yvars, ctx.table)
    with pytest.raises(ValueError):
        chain_weight((spec.bottom(),), spec, ctx.yvars, ctx.table)


@pytest.mark.parametrize("max_length", [None, 0, 1, 3])
@pytest.mark.parametrize("spec", SMALL_SPECS, ids=spec_id)
def test_chain_weights_match_chain_weight(spec, max_length):
    ctx = make_context(spec)
    weights = PairWeights(spec, ctx.table, ctx.yvars, pair_weight)
    elements = interval_elements(spec)
    m = len(elements)
    nodes = [*elements, spec.bottom(), spec.top()]
    rows = weights.rows(nodes, [[*js, m + 1] for js in [*above_lists(elements), range(m)]])
    got = list(chain_weights(rows, m, m + 1, max_length))
    longest = m if max_length is None else max_length
    want = {frozenset(c): c for c in chains_in(elements) if len(c) <= longest}
    walked = {frozenset(elements[i] for i in range(m) if mask >> i & 1): w for mask, w in got}
    assert len(walked) == len(got) and walked.keys() == want.keys()
    for members, w in walked.items():
        unpacked = {weights.codec.unpack(key): c for key, c in w.items()}
        assert len(unpacked) == len(w) and all(w.values())
        expected = chain_weight(want[members], spec, ctx.yvars, ctx.table)
        assert LaurentPoly(ctx.table, unpacked) == expected


def test_chain_weight_depends_only_on_support():
    spec = PosetSpec((2,), (2,))
    ctx = make_context(spec)
    rng = random.Random(SEED)
    multichains = [c for c in enumerate_multichains(spec, max_total_length=3) if c]
    for chain in rng.sample(multichains, 40):
        repeated = tuple(sorted(chain + chain, key=chain.index))
        doubled = []
        for e in chain:
            doubled.extend([e] * rng.randint(1, 3))
        assert chain_weight(chain, spec, ctx.yvars, ctx.table) == chain_weight(
            tuple(doubled), spec, ctx.yvars, ctx.table
        )
        assert chain_weight(repeated, spec, ctx.yvars, ctx.table) == chain_weight(
            chain, spec, ctx.yvars, ctx.table
        )


# -- tableaux -------------------------------------------------------------------


def worked_tableau():
    spec = PosetSpec((5,), (2,))
    chain = parse_chain("2 < 2 5 < 0 3 < 0 1 < 0^2 < 0^2 5 < 0^2 2 3", spec)
    return project(chain, 0, spec), spec


def test_projected_shape_of_worked_tableau():
    tab, _ = worked_tableau()
    assert tab.lam == (7, 6, 2, 1)
    assert tab.mu == (5, 3)
    assert tab.rows == (
        (0, 0, 0, 0, 0, 2, 2),
        (0, 0, 0, 1, 3, 5),
        (2, 5),
        (3,),
    )


def test_leg_plus_of_worked_tableau():
    tab, _ = worked_tableau()
    assert set(leg_plus_positions(tab)) == {(3, 1), (2, 3), (2, 4), (1, 5), (2, 5)}


def test_phi_of_worked_tableau():
    tab, _ = worked_tableau()
    table = VarTable(["Y0", "Y1", "Y2", "Y3", "Y4", "Y5"])
    phi = phi_tableau(tab, [1, 2, 3, 4, 5], table)
    expected = (
        (1 - yv(table, 5, 2))
        * (1 - yv(table, 1))
        * (1 - yv(table, 3))
        * (1 - yv(table, 2))
        * (1 - yv(table, 5))
    )
    assert phi == expected


def test_theta_of_worked_tableau():
    from hlskit.exactalg import y_multinomial

    tab, _ = worked_tableau()
    table = VarTable(["Y0"])
    got = theta_tableau(tab, 0, table)
    assert got == y_multinomial(table, 2, [2, 2, 1, 1, 1], 0)
    assert got == 1 + yv(table, 0)


def test_theta_tableau_trivial_cases():
    table = VarTable(["Y0"])
    # r <= 1 forces the value 1
    for r in (0, 1):
        tab = SkewTableau([(0,) * r + (1, 2)], 3, r) if r else SkewTableau([(1, 2)], 3, 0)
        assert theta_tableau(tab, 0, table).is_one()
    # no zeros: every factor is a binom(e, 0), so the product telescopes to 1
    tab = SkewTableau([(1, 2), (2,)], 3, 2)
    assert theta_tableau(tab, 0, table).is_one()


def test_phi_tableau_trivial_when_no_positive_positions():
    # n = 0: every cell is a zero, so no leg factor can appear.
    spec = PosetSpec((0,), (3,))
    table = VarTable(["Y0"])
    chain = parse_chain("0 < 0^2 < 0^3", spec)
    tab = project(chain, 0, spec)
    assert phi_tableau(tab, [], table).is_one()


def test_phi_tableau_nested_columns_give_one():
    table = VarTable(["Y0", "Y1", "Y2", "Y3"])
    spec = PosetSpec((3,), (2,))
    chain = parse_chain("1 < 1 2 < 0 1 2 3", spec)
    tab = project(chain, 0, spec)
    assert phi_tableau(tab, [1, 2, 3], table).is_one()


def test_phi_tableau_never_mentions_y0():
    spec = PosetSpec((2,), (2,))
    ctx = make_context(spec)
    for chain in enumerate_multichains(spec, max_total_length=3):
        if not chain:
            continue
        tab = project(chain, 0, spec)
        phi = phi_tableau(tab, ctx.yvars[0][1:], ctx.table)
        assert all(v != ctx.yvars[0][0] for mono in phi.terms for v, _ in mono)


def test_empty_skew_shapes_stay_distinct():
    a = SkewTableau([(0, 0), (0,)], 2, 2)
    b = SkewTableau([(0,), (0,)], 2, 2)
    assert a.lam == a.mu == (2, 1)
    assert b.lam == b.mu == (2,)
    assert a != b


def test_tableau_validation():
    with pytest.raises(ValueError):
        SkewTableau([(1, 1)], 2, 0)  # repeated positive entry in a column
    with pytest.raises(ValueError):
        SkewTableau([(1,), (0, 2)], 2, 1)  # heights increase to the right
    with pytest.raises(ValueError):
        SkewTableau([(2,), (1,)], 2, 0)  # row decreases
    with pytest.raises(ValueError):
        SkewTableau([(0, 0, 1)], 2, 1)  # too many zeros


def test_projection_of_singleton_multichain():
    spec = PosetSpec((3,), (2,))
    e = parse_element("0 1 3", spec)
    tab = project((e,), 0, spec)
    assert tab.columns == ((0, 1, 3),)
    assert tab.lam == (1, 1, 1)
    assert tab.mu == (1,)


def test_worked_g2_projections():
    spec = PosetSpec((4, 3), (2, 3))
    chain = parse_chain(
        "4|- < 2 4|2 < 2 3|2 3 < 0 3 4|0 2 3 < 0 1 3|0 2 3 "
        "< 0 1 3|0 1 3 < 0 1 2 3|0^2 2 3 < 0^2 1 2 3 4|0^3 1 3",
        spec,
    )
    assert len(chain) == 8
    t1 = project(chain, 0, spec)
    t2 = project(chain, 1, spec)
    assert t1.rows == (
        (0, 0, 0, 0, 0, 2, 2, 4),
        (0, 1, 1, 1, 3, 3, 4),
        (1, 2, 3, 3, 4),
        (2, 3),
        (3,),
        (4,),
    )
    assert t2.rows == (
        (0, 0, 0, 0, 0, 2, 2),
        (0, 0, 1, 2, 2, 3),
        (0, 2, 3, 3, 3),
        (1, 3),
        (3,),
    )
    # repeating columns in both projections even though the chain is strict
    assert len(set(t1.columns)) < len(t1.columns)
    assert len(set(t2.columns)) < len(t2.columns)


def test_empty_components_are_dropped():
    spec = PosetSpec((2, 2), (1, 1))
    a = parse_element("-|1", spec)
    b = parse_element("2|1 2", spec)
    tab = project((a, b), 0, spec)
    assert tab.columns == ((2,),)


def test_tableau_json_and_pretty():
    tab, _ = worked_tableau()
    data = tab.to_json()
    assert data["lambda"] == [7, 6, 2, 1]
    assert data["mu"] == [5, 3]
    assert data["rows"][0] == [0, 0, 0, 0, 0, 2, 2]
    assert tab.pretty().splitlines()[3] == "3"


# -- the chain/tableau dual route ---------------------------------------------


def run_chain_tableau_agreement(specs, max_len=3):
    checked = 0
    for spec in specs:
        ctx = make_context(spec)
        for chain in enumerate_multichains(spec, max_total_length=max_len):
            lhs = chain_weight(chain, spec, ctx.yvars, ctx.table)
            rhs = LaurentPoly.const(ctx.table, 1)
            for i in range(spec.g):
                tab = project(chain, i, spec)
                rhs = rhs * theta_tableau(tab, ctx.yvars[i][0], ctx.table)
                rhs = rhs * phi_tableau(tab, ctx.yvars[i][1:], ctx.table)
            assert lhs == rhs
            checked += 1
    return checked


def test_chain_weight_equals_tableau_weight():
    specs = [
        PosetSpec((2,), (2,)),
        PosetSpec((1, 1), (1, 0)),
        PosetSpec((1, 0), (0, 2)),
        PosetSpec((0, 0), (2, 1)),
    ]
    for spec in specs:
        assert spec.element_count() <= 64
    assert run_chain_tableau_agreement(specs) > 0


def test_seven_chain_weight_equals_tableau_weight():
    spec = PosetSpec((5,), (2,))
    ctx = make_context(spec)
    chain = parse_chain("2 < 2 5 < 0 3 < 0 1 < 0^2 < 0^2 5 < 0^2 2 3", spec)
    tab = project(chain, 0, spec)
    lhs = chain_weight(chain, spec, ctx.yvars, ctx.table)
    rhs = theta_tableau(tab, ctx.yvars[0][0], ctx.table) * phi_tableau(
        tab, ctx.yvars[0][1:], ctx.table
    )
    assert lhs == rhs


def test_weight_at_y_one_is_containment_indicator():
    # Setting the positive-position variables to 1 leaves theta times the
    # multiset-containment indicator.
    spec = PosetSpec((2,), (2,))
    ctx = make_context(spec)
    els = enumerate_elements(spec)
    positive_vars = ctx.yvars[0][1:]
    for a in els:
        for b in els:
            w = pair_weight(a, b, ctx.yvars, ctx.table).eval_at_one(positive_vars)
            contained = all(x <= y for x, y in zip(a[0], b[0]))
            expected = (
                theta(a[0], b[0], ctx.yvars[0][0], ctx.table)
                if contained
                else LaurentPoly.zero(ctx.table)
            )
            assert w == expected

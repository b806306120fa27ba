import itertools
import json
import math
import random
from operator import itemgetter

import pytest

from hlskit.cli import main
from hlskit.poset import (
    CapExceededError,
    OrderIndex,
    PosetSpec,
    chain_plan,
    chains_in,
    complement,
    count_text,
    cover_relations,
    delta,
    enumerate_chains,
    enumerate_component_elements,
    enumerate_elements,
    enumerate_multichains,
    hasse_dot,
    interval_elements,
    leq_component,
    leq_t,
    lt_t,
    order_key,
    parse_chain,
    parse_component,
    parse_element,
    render_component,
    render_element,
    s_vector,
)

from conftest import SEED, brute_force_chains, brute_force_covers
from test_series import SMALL_SPECS

P22 = PosetSpec((2,), (2,))
P11 = PosetSpec((1,), (1,))
G2 = PosetSpec((1, 1), (1, 0))


def two_column_semistandard(a, b):
    """Independent order oracle: b as the left column, a as the right one.

    The pair is ordered iff the two-column filling (zeros first, positives
    increasing down each column) has weakly increasing rows.
    """

    def multiset(c):
        return [0] * c[0] + [i for i in range(1, len(c)) if c[i]]

    right = multiset(a)
    left = multiset(b)
    if len(right) > len(left):
        return False
    return all(left[i] <= right[i] for i in range(len(right)))


def test_spec_validation():
    with pytest.raises(ValueError, match="^n and r must have the same length$"):
        PosetSpec((1,), (1, 2))
    with pytest.raises(ValueError, match="^at least one component is required$"):
        PosetSpec((), ())
    with pytest.raises(ValueError, match="^bounds must be nonnegative$"):
        PosetSpec((-1,), (0,))
    with pytest.raises(ValueError, match="invalid literal for int"):
        PosetSpec(("x",), (0,))


def test_spec_is_an_immutable_value():
    spec = PosetSpec([1, 0], (2, "1"))
    assert (spec.n, spec.r) == ((1, 0), (2, 1))
    assert repr(spec) == "PosetSpec(n=(1, 0), r=(2, 1))"
    same = PosetSpec((1, 0), (2, 1))
    assert spec == same and hash(spec) == hash(same)
    assert spec != PosetSpec((1, 0), (2, 2)) and spec != ((1, 0), (2, 1))
    assert {spec: "a", same: "b"} == {PosetSpec((1, 0), (2, 1)): "b"}
    for field in ("n", "r", "g"):
        with pytest.raises(AttributeError):
            setattr(spec, field, (0, 0))
    assert spec == same


def test_element_counts():
    assert len(enumerate_elements(P22)) == 12  # the twelve elements
    assert len(enumerate_elements(PosetSpec((0,), (0,)))) == 1
    assert len(enumerate_elements(G2)) == 8  # (1+1)*2 * (0+1)*2


def test_reverse_lex_component_order():
    got = [render_component(a) for a in enumerate_component_elements(2, 2)]
    assert got == ["-", "0", "0^2", "1", "0 1", "0^2 1", "2", "0 2", "0^2 2", "1 2", "0 1 2", "0^2 1 2"]


def test_element_cap():
    with pytest.raises(CapExceededError):
        enumerate_elements(PosetSpec((3, 3), (3, 3)), max_elements=100)


@pytest.mark.parametrize(
    "c, k, text",
    [
        (0, 0, "0"),
        (6, 0, "6"),
        ((1 << 64) - 1, 0, "18446744073709551615"),
        (3, 62, str(3 << 62)),
        (1 << 64, 0, "2^64"),
        ((1 << 64) + 1, 0, "over 2^64"),
        (3, 63, "3 * 2^63"),
        ((1 << 64) + 1, 1, "over 2^65"),
        (1, 64, "2^64"),
        (2, 2000000, "2 * 2^2000000"),
        ((1 << 64) - 1, 64, "18446744073709551615 * 2^64"),
        (1 << 64, 64, "2^128"),
        (10**3000, 2000000, f"over 2^{(10**3000).bit_length() - 1 + 2000000}"),
    ],
)
def test_count_text_is_decimal_below_2_to_the_64_only(c, k, text):
    assert count_text(c, k) == text


def test_known_incomparable_pairs():
    a = ((1, 0, 0),)
    b = ((0, 1, 1),)
    assert not leq_t(a, b) and not leq_t(b, a)
    c = ((2, 0, 0),)
    d = ((1, 1, 1),)
    assert not leq_t(c, d) and not leq_t(d, c)


def test_leq_reflexive():
    for e in enumerate_elements(P22):
        assert leq_t(e, e)


def test_worked_seven_chain_is_strict():
    spec = PosetSpec((5,), (2,))
    chain = parse_chain("2 < 2 5 < 0 3 < 0 1 < 0^2 < 0^2 5 < 0^2 2 3", spec)
    assert len(chain) == 7
    assert all(lt_t(a, b) for a, b in zip(chain, chain[1:]))


def test_partial_order_axioms_exhaustive():
    for spec in (P22, G2):
        els = enumerate_elements(spec)
        for a in els:
            assert leq_t(a, a)
            for b in els:
                if leq_t(a, b) and leq_t(b, a):
                    assert a == b
                for c in els:
                    if leq_t(a, b) and leq_t(b, c):
                        assert leq_t(a, c)


def test_bounds_bottom_top():
    for spec in (P22, G2, PosetSpec((0,), (3,))):
        bottom = spec.bottom()
        top = spec.top()
        for e in enumerate_elements(spec):
            assert leq_t(bottom, e)
            assert leq_t(e, top)


def test_leq_matches_two_column_oracle():
    spec = PosetSpec((3,), (2,))
    els = [e[0] for e in enumerate_elements(spec)]
    assert len(els) == 24
    for a in els:
        for b in els:
            assert leq_component(a, b) == two_column_semistandard(a, b)


# SMALL_SPECS, then specs with g = 2 and g = 3 and components with r = 0
# or n = 0, including the one-element poset, and a chain whose prefix sums
# pass 255 and so take two digit planes.
INDEX_SPECS = SMALL_SPECS + [
    PosetSpec((0,), (0,)),
    PosetSpec((2, 1), (1, 2)),
    PosetSpec((0, 2), (2, 0)),
    PosetSpec((1, 0, 1), (0, 2, 1)),
    PosetSpec((0, 0, 0), (1, 2, 1)),
    PosetSpec((1, 1, 1), (0, 0, 0)),
    PosetSpec((0,), (300,)),
]


@pytest.mark.parametrize("spec", INDEX_SPECS, ids=str)
def test_order_index_matches_leq_t_on_every_pair(spec):
    elements = enumerate_elements(spec)
    index = OrderIndex(elements)
    for i, a in enumerate(elements):
        up = index.up(i)
        for j, b in enumerate(elements):
            assert (up >> j & 1) == leq_t(a, b)
        assert index.above(i) == [j for j, b in enumerate(elements) if lt_t(a, b)]


@pytest.mark.parametrize("spec", [P22, G2, PosetSpec((0, 1), (2, 0))], ids=str)
def test_order_index_on_an_interval_and_in_any_element_order(spec):
    # The index reads positions in the list it is given, whatever the order.
    elements = interval_elements(spec, "open")[::-1]
    index = OrderIndex(elements)
    for i, a in enumerate(elements):
        assert index.above(i) == [j for j, b in enumerate(elements) if lt_t(a, b)]


def test_order_key_is_the_prefix_sums():
    assert order_key(((2, 0, 1), (0, 1))) == (2, 2, 3, 0, 1)


def test_order_index_of_no_elements():
    index = OrderIndex([])
    assert (index.full, index._planes, index._thresholds) == (0, [], [])


def test_order_index_joins_blocks_of_different_plane_counts():
    # A chain past 4,096 elements is keyed in blocks; its first block takes
    # two digit planes, the later ones three.
    m = 70_000
    index = OrderIndex(range(m), lambda e: (e, m - 1 - e))
    assert [len(planes) for planes in index._planes] == [3, 3]
    for t in (0, 1, 255, 256, 4095, 4096, 4097, 65535, 65536, 69999):
        assert index.at_least(0, t) == index.full >> t << t
        assert index.at_least(1, t) == index.full >> t
    for i in (0, 4095, 4096, 65536, 69999):
        assert index.up(i) == 1 << i  # the two columns run opposite ways


def test_order_index_thresholds_across_digit_planes():
    # Values at and around the base-256 digit boundaries, some repeated; the
    # two columns take four and three digit planes.
    values = [0, 1, 255, 256, 257, 511, 512, 65535, 65536, 65537, 70000, 16777216, 3, 256, 65536]
    keys = [(v, values[-1 - k] // 7) for k, v in enumerate(values)]
    index = OrderIndex(range(len(keys)), keys.__getitem__)
    for c in range(2):
        for t in sorted({k[c] for k in keys}):
            expected = sum(1 << j for j, k in enumerate(keys) if k[c] >= t)
            assert index.at_least(c, t) == expected
    for i, a in enumerate(keys):
        expected = [j for j, b in enumerate(keys) if j != i and a[0] <= b[0] and a[1] <= b[1]]
        assert index.above(i) == expected


def test_order_index_builds_only_the_masks_a_row_reads():
    # A chain of 70,000 elements has 70,000 thresholds in three digit planes;
    # one row reads one threshold, from at most two digit masks a plane.
    elements = enumerate_elements(PosetSpec((0,), (69999,)))
    index = OrderIndex(elements)
    assert index.above(69990) == list(range(69991, 70000))
    assert sum(len(masks) for column in index._digit_masks for masks in column) <= 5


def test_s_vector():
    assert s_vector((3,))[0] == 3  # C(3, 2)
    assert s_vector((0, 0, 0)) == (0, 0, 0, 0)
    a = parse_component("2 4 7", 7, 3)
    s = s_vector(a)
    assert s[2] == 0 and s[7] == 2 and s[8] == 3


def test_delta_examples():
    a = parse_component("2 4 7", 7, 3)
    b = parse_component("1 4 5 6", 7, 3)
    assert delta(a, b, 2) == 1
    assert delta(a, b, 7) == 2
    assert all(delta(a, a, i) == 0 for i in range(9))
    bottom = (0,) * 8
    top = (3,) + (1,) * 7
    assert delta(bottom, top, 0) == 3  # C(3, 2)
    for j in range(1, 9):
        assert delta(bottom, top, j) == 3 + j - 1
    with pytest.raises(ValueError):
        delta(a, b, 9)


def covers_of(spec):
    """The covers of ``spec`` as element pairs, mapped back from their index pairs."""
    els = enumerate_elements(spec)
    return [(els[i], els[j]) for i, j in cover_relations(els)]


def test_cover_relations_of_p22():
    covers = covers_of(P22)
    assert len(covers) == 13
    names = {(render_element(a), render_element(b)) for a, b in covers}
    expected = {
        ("-", "2"), ("2", "1"), ("1", "0"), ("1", "1 2"), ("0", "0 2"),
        ("1 2", "0 2"), ("0 2", "0 1"), ("0 1", "0^2"), ("0 1", "0 1 2"),
        ("0^2", "0^2 2"), ("0 1 2", "0^2 2"), ("0^2 2", "0^2 1"),
        ("0^2 1", "0^2 1 2"),
    }
    assert names == expected


def test_cover_relations_path_for_chain_poset():
    covers = covers_of(PosetSpec((0,), (4,)))
    assert len(covers) == 4
    assert all(b[0][0] == a[0][0] + 1 for a, b in covers)


def test_cover_relations_p11_is_a_path():
    covers = {(render_element(a), render_element(b)) for a, b in covers_of(P11)}
    assert covers == {("-", "1"), ("1", "0"), ("0", "0 1")}


@pytest.mark.parametrize(
    "spec",
    [P22, PosetSpec((1, 1), (1, 2)), PosetSpec((6,), (3,)), PosetSpec((1, 1, 1), (1, 0, 1))],
    ids=str,
)
def test_cover_relations_match_brute_force(spec, capsys):
    covers = brute_force_covers(spec)
    assert covers_of(spec) == covers
    # The JSON export lists the DOT export's nodes and edges, in its order.
    shape = [",".join(map(str, bounds)) for bounds in (spec.n, spec.r)]
    assert main(["hasse", "--n", shape[0], "--r", shape[1], "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    lines = hasse_dot(spec).splitlines()
    assert [f'  "{name}";' for name in data["nodes"]] == [
        line for line in lines if line.endswith('";') and "->" not in line
    ]
    assert [f'  "{a}" -> "{b}";' for a, b in data["edges"]] == [
        line for line in lines if "->" in line
    ]
    assert data["edges"] == [[render_element(a), render_element(b)] for a, b in covers]


def test_transitive_closure_of_covers_matches_leq():
    for spec in (P22, G2, P11):
        els = enumerate_elements(spec)
        m = len(els)
        reach = [[False] * m for _ in range(m)]
        for i in range(m):
            reach[i][i] = True
        for i, j in cover_relations(els):
            reach[i][j] = True
        for k in range(m):
            for i in range(m):
                if reach[i][k]:
                    for j in range(m):
                        if reach[k][j]:
                            reach[i][j] = True
        for i, a in enumerate(els):
            for j, b in enumerate(els):
                assert reach[i][j] == leq_t(a, b)


def test_complement_involution_and_order_reversal():
    els = enumerate_elements(P22)
    assert complement(P22, P22.bottom()) == P22.top()
    for a in els:
        assert complement(P22, complement(P22, a)) == a
        for b in els:
            assert leq_t(a, b) == leq_t(complement(P22, b), complement(P22, a))


def test_complement_order_reversal_g2():
    els = enumerate_elements(G2)
    for a in els:
        for b in els:
            assert leq_t(a, b) == leq_t(complement(G2, b), complement(G2, a))


def test_chain_enumeration_counts_by_brute_force():
    # Chains = subsets that are pairwise comparable.
    for spec, interval in [(P11, "half_open"), (PosetSpec((2,), (1,)), "half_open"), (P22, "open")]:
        els = interval_elements(spec, interval)
        expected = 0
        for size in range(len(els) + 1):
            for combo in itertools.combinations(els, size):
                if all(
                    leq_t(x, y) or leq_t(y, x)
                    for x, y in itertools.combinations(combo, 2)
                ):
                    expected += 1
        assert sum(1 for _ in enumerate_chains(spec, interval)) == expected


@pytest.mark.parametrize(
    "spec, interval",
    [
        (P11, "half_open"),
        (P22, "half_open"),
        (P22, "open"),
        (G2, "half_open"),
        (PosetSpec((1, 1), (1, 1)), "half_open"),
        (PosetSpec((3,), (1,)), "open"),
    ],
    ids=str,
)
def test_chains_in_matches_brute_force(spec, interval):
    elements = interval_elements(spec, interval)
    chains = brute_force_chains(elements, len(elements))
    assert list(chains_in(elements)) == chains
    # chain_plan counts first: all of them at the count, and one below it the
    # call itself raises, before any chain is yielded.
    count = len(chains)
    assert list(chains_in(elements, count)) == chains
    with pytest.raises(CapExceededError, match=f"^chain enumeration exceeds cap {count - 1}$"):
        chains_in(elements, count - 1)


def _product_leq(a, b):
    return all(x <= y for x, y in zip(a[0], b[0]))


@pytest.mark.parametrize(
    "spec, interval, key, leq",
    [(spec, kind, order_key, leq_t) for spec in SMALL_SPECS for kind in ("half_open", "open")]
    # itemgetter(0) orders one component's vectors as weak_order_igusa's subsets.
    + [(spec, "half_open", itemgetter(0), _product_leq) for spec in SMALL_SPECS if spec.g == 1],
    ids=lambda value: getattr(value, "__name__", str(value)),
)
def test_chain_plan_matches_brute_force(spec, interval, key, leq):
    elements = interval_elements(spec, interval)
    m = len(elements)
    above, order, count = chain_plan(elements, key)
    strictly_above = [
        [j for j in range(m) if j != i and leq(elements[i], elements[j])] for i in range(m)
    ]
    assert [list(js) for js in above] == [*strictly_above, list(range(m))]
    # A linear extension, by the number of elements below, ties by index.
    below = [sum(j in js for js in strictly_above) for j in range(m)]
    assert order == sorted(range(m), key=lambda j: (below[j], j))
    rank = {j: k for k, j in enumerate(order)}
    assert all(rank[i] < rank[j] for i in range(m) for j in above[i])
    chains = brute_force_chains(elements, m, leq=leq)
    assert count == len(chains)
    with pytest.raises(CapExceededError, match=f"^chain enumeration exceeds cap {count - 1}$"):
        chain_plan(elements, key, count - 1)
    assert chain_plan(elements, key, count)[2] == count
    # With a degree D, a chain of l elements counts its C(D, l) multichains.
    for degree in (0, 1, 2, 4 * m):
        count = sum(math.comb(degree, len(chain)) for chain in chains)
        message = f"^multichain enumeration exceeds cap {count - 1} up to degree {degree}$"
        with pytest.raises(CapExceededError, match=message):
            chain_plan(elements, key, count - 1, degree)
        assert chain_plan(elements, key, count, degree) == (above, order, count)


@pytest.mark.parametrize(
    "spec, bound",
    [(P11, 4), (P22, 3), (G2, 4), (PosetSpec((1, 1), (1, 2)), 3), (PosetSpec((0,), (0,)), 2)],
    ids=str,
)
def test_multichains_match_brute_force(spec, bound):
    elements = interval_elements(spec, "half_open")
    expected = brute_force_chains(elements, bound, weak=True)
    assert list(enumerate_multichains(spec, max_total_length=bound)) == expected
    count = len(expected)
    assert list(enumerate_multichains(spec, "half_open", bound, count)) == expected
    message = f"^multichain enumeration exceeds cap {count - 1} up to degree {bound}$"
    with pytest.raises(CapExceededError, match=message):
        enumerate_multichains(spec, "half_open", bound, count - 1)


def test_multichain_cap_counts_the_empty_multichain():
    with pytest.raises(CapExceededError, match="multichain enumeration exceeds cap 0"):
        list(enumerate_multichains(P22, max_total_length=0, max_chains=0))


@pytest.mark.parametrize(
    "spec",
    [*SMALL_SPECS, *(PosetSpec(*parts) for parts in [
        ((0,), (0,)), ((0, 0), (0, 0)), ((0,), (1,)), ((1, 1), (0, 2)),
    ])],
    ids=str,
)
def test_intervals_are_slices_of_the_enumeration(spec):
    # The enumeration lists the bottom first and the top last, so the
    # intervals, defined by comparisons, are its slices.
    elements = enumerate_elements(spec)
    bottom, top = spec.bottom(), spec.top()
    assert (elements[0], elements[-1]) == (bottom, top)
    half_open = [e for e in elements if lt_t(bottom, e) and leq_t(e, top)]
    assert interval_elements(spec, "half_open") == half_open
    assert interval_elements(spec, "open") == [e for e in half_open if lt_t(e, top)]


def test_degenerate_interval_has_only_the_empty_chain():
    spec = PosetSpec((0,), (0,))
    assert interval_elements(spec, "half_open") == []
    assert list(enumerate_chains(spec, "half_open")) == [()]
    assert list(enumerate_chains(spec, "open")) == [()]


def test_open_interval_of_two_chain_is_empty():
    spec = PosetSpec((0,), (1,))
    assert list(enumerate_chains(spec, "open")) == [()]


def test_chain_enumeration_deterministic():
    a = list(enumerate_chains(P22))
    b = list(enumerate_chains(P22))
    assert a == b
    lengths = [len(c) for c in a]
    assert lengths == sorted(lengths)


def test_chain_cap():
    with pytest.raises(CapExceededError):
        list(enumerate_chains(P22, max_chains=10))


def test_multichains_bound_zero():
    assert list(enumerate_multichains(P22, max_total_length=0)) == [()]


def test_strict_chains_appear_among_multichains():
    strict = {c for c in enumerate_chains(P11) if len(c) <= 3}
    multi = set(enumerate_multichains(P11, max_total_length=3))
    assert strict <= multi


def test_single_support_multichain_is_unique_per_length():
    bound = 4
    for e in interval_elements(P11, "half_open"):
        for k in range(1, bound + 1):
            found = [
                c
                for c in enumerate_multichains(P11, max_total_length=bound)
                if len(c) == k and set(c) == {e}
            ]
            assert found == [(e,) * k]


def test_iso_is_order_isomorphism():
    # Prepending a 0 maps the components with r = 1 onto those of n + 1 with r = 0.
    for n in range(4):
        src = enumerate_component_elements(n, 1)
        images = [(0,) + a for a in src]
        assert sorted(images) == sorted(set(images))
        tgt = set(enumerate_component_elements(n + 1, 0))
        assert set(images) <= tgt and len(images) == len(tgt)
        for a in src:
            for b in src:
                assert leq_component(a, b) == leq_component((0,) + a, (0,) + b)


def test_render_parse_roundtrip():
    rng = random.Random(SEED)
    for spec in (P22, G2, PosetSpec((5,), (2,))):
        els = enumerate_elements(spec)
        for e in rng.sample(els, min(10, len(els))):
            assert parse_element(render_element(e), spec) == e


def test_parse_rejects_bad_literals():
    with pytest.raises(ValueError):
        parse_component("0^3", 2, 2)
    with pytest.raises(ValueError):
        parse_component("3", 2, 2)
    with pytest.raises(ValueError):
        parse_component("1 1", 2, 2)
    with pytest.raises(ValueError):
        parse_chain("0 1 < 1", P22)


def test_hasse_dot_stable_and_shaped():
    dot = hasse_dot(P22)
    assert dot == hasse_dot(P22)
    assert dot.count("->") == 13
    assert dot.count(";") == 12 + 13 + 1  # nodes + edges + rankdir
    assert '"0^2 1 2"' in dot


def test_elements_json():
    data = [[list(a) for a in e] for e in enumerate_elements(P11)]
    assert data == [[[0, 0]], [[1, 0]], [[0, 1]], [[1, 1]]]


def test_multichain_walk_on_an_empty_interval_ends():
    # No element to extend by: the walk must not idle through the bound.
    assert list(enumerate_multichains(PosetSpec((0,), (0,)), "half_open", 10**12)) == [()]

"""Acceptance gate: one test per criterion, each printing a verdict line.

Every check is exact; the elapsed-time assertions use the stated budgets.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import itertools
import random
import time
from pathlib import Path

import pytest

from hlskit.cli import main
from hlskit.exactalg import LaurentPoly, VarTable
from hlskit.poset import (
    DegenerateSpecError,
    PosetSpec,
    cover_relations,
    enumerate_elements,
    enumerate_multichains,
    hasse_dot,
    leq_t,
    parse_chain,
    parse_component,
)
from hlskit.series import (
    expand_multichain,
    expand_rational,
    generalized_igusa,
    hls,
    make_context,
    mv_hls,
    weak_order_igusa,
)
from hlskit.verify import (
    is_identity,
    kron,
    matmul,
    mobius_matrix,
    mobius_via_chains,
    verify_order_complex,
    verify_reciprocity,
    zeta_matrix,
)
from hlskit.weight import leg_plus_positions, phi_tableau, project, refined_leg_pair

from conftest import SEED, reference_numerator_1_2
from test_exactalg import (
    run_invert_cases,
    run_q_pascal_cases,
    run_ring_axiom_cases,
    run_specialization_cases,
    run_symmetry_cases,
)
from test_weight import run_chain_tableau_agreement

GOLDEN = Path(__file__).parent / "golden"


def report(number, label, started, budget):
    elapsed = time.perf_counter() - started
    print(f"criterion-{number} PASS {label} ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget


def test_criterion_1_reference_instance_regression(capsys):
    started = time.perf_counter()
    code = main(["compute", "--n", "1", "--r", "2", "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "compute_n1_r2.txt").read_text()
    value = hls(PosetSpec((1,), (2,)))
    assert value.term_count == 12
    assert len(value.denominator_vars) == 5
    assert value.numerator == reference_numerator_1_2(value.table)
    with capsys.disabled():
        report(1, "reference (1),(2) numerator and denominator", started, 1.0)


def test_criterion_2_term_count_regression(capsys):
    started = time.perf_counter()
    code = main(["compute", "--n", "2", "--r", "2", "--stats-only", "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    assert "terms = 1412" in out
    assert "denominator_factors = 11" in out
    with capsys.disabled():
        report(2, "1,412-term (2),(2) numerator, 11 factors", started, 120.0)


def test_criterion_3_reciprocity_grid(capsys):
    started = time.perf_counter()
    g1 = [(n, r) for n in range(4) for r in range(4) if n + r <= 3]
    g2 = [((1, 1), (1, 0)), ((1, 0), (0, 2)), ((0, 0), (2, 1))]
    checked = 0
    vacuous = 0
    for n, r in g1:
        spec = PosetSpec((n,), (r,))
        for kind in ("hls", "hls_modified"):
            try:
                cert = verify_reciprocity(spec, kind)
            except DegenerateSpecError:
                vacuous += 1
                continue
            assert cert.equal, f"reciprocity failed on {spec} {kind}"
            checked += 1
    for nv, rv in g2:
        spec = PosetSpec(nv, rv)
        for kind in ("hls", "hls_modified"):
            cert = verify_reciprocity(spec, kind)
            assert cert.equal, f"reciprocity failed on {spec} {kind}"
            checked += 1
    assert checked == 24 and vacuous == 2
    with capsys.disabled():
        report(3, f"{checked} exact identities (+{vacuous} vacuous)", started, 300.0)


def test_criterion_4_zeta_mobius_inversion(capsys):
    started = time.perf_counter()
    for n, r in [(0, 4), (1, 2), (2, 1), (2, 2)]:
        spec = PosetSpec((n,), (r,))
        assert is_identity(matmul(zeta_matrix(spec), mobius_matrix(spec)))
    spec2 = PosetSpec((1, 1), (1, 1))
    ctx = make_context(spec2)
    sub = PosetSpec((1,), (1,))
    zk = kron(
        zeta_matrix(sub, ctx.table, [ctx.yvars[0]]),
        zeta_matrix(sub, ctx.table, [ctx.yvars[1]]),
    )
    mk = kron(
        mobius_matrix(sub, ctx.table, [ctx.yvars[0]]),
        mobius_matrix(sub, ctx.table, [ctx.yvars[1]]),
    )
    assert zk.entries == zeta_matrix(spec2, ctx.table, ctx.yvars).entries
    assert is_identity(matmul(zk, mk))
    pairs = 0
    for n, r in [(2, 1), (1, 2)]:
        spec = PosetSpec((n,), (r,))
        m = mobius_matrix(spec)
        for i, a in enumerate(m.labels):
            for j, b in enumerate(m.labels):
                if leq_t(a, b):
                    assert mobius_via_chains(spec, a, b) == m.entries[i][j]
                    pairs += 1
    with capsys.disabled():
        report(4, f"Z*M = I on five posets; {pairs} chain-sum entries", started, 120.0)


def test_criterion_5_order_complex(capsys):
    started = time.perf_counter()
    counts = {}
    for nv, rv, expected in [
        ((1,), (1,), 4),
        ((0,), (3,), 4),
        ((2,), (1,), 64),
        ((2,), (2,), 1024),
    ]:
        report_ = verify_order_complex(PosetSpec(nv, rv))
        assert report_.subsets_checked == expected
        assert report_.passed, f"failing subsets: {report_.failures[:4]}"
        counts[(nv, rv)] = report_.subsets_checked
    total = sum(counts.values())
    with capsys.disabled():
        report(5, f"{total} subset identities", started, 600.0)


def test_criterion_6_dual_path_expansion(capsys):
    started = time.perf_counter()
    cases = [
        (PosetSpec((1,), (2,)), 4),
        (PosetSpec((2,), (1,)), 4),
        (PosetSpec((1, 1), (1, 0)), 3),
    ]
    for spec, bound in cases:
        assert expand_multichain(spec, bound) == expand_rational(hls(spec), bound)
    with capsys.disabled():
        report(6, "multichain and rational expansions agree", started, 60.0)


def test_criterion_7_specialization_cross_checks(capsys):
    started = time.perf_counter()
    for rv in ((2,), (1, 2), (2, 2)):
        gi = generalized_igusa(rv)
        h = hls(PosetSpec(tuple(0 for _ in rv), rv))
        assert gi.numerator == h.numerator
        assert gi.denominator_vars == h.denominator_vars
    for n in (1, 2, 3):
        spec = PosetSpec((n,), (0,))
        ctx = make_context(spec)
        mv = mv_hls(n)
        h = hls(spec)
        ys = ctx.yvars[0][1:]
        collapse = {v: LaurentPoly.variable(ctx.table, ys[0]) for v in ys[1:]}
        assert mv.numerator.subs(collapse) == h.numerator.subs(collapse)
    for g in (1, 2, 3):
        wo = weak_order_igusa(g)
        mv = mv_hls(g)
        assert wo.numerator == mv.numerator.eval_at_one(range(g + 1))
        assert wo.denominator_names == mv.denominator_names
    with capsys.disabled():
        report(7, "generalized/original/weak-order specializations", started, 60.0)


def test_criterion_8_worked_example_fidelity(capsys):
    started = time.perf_counter()
    table = VarTable([f"Y{i}" for i in range(8)])
    ys = list(range(1, 8))

    def y(k, e=1):
        return LaurentPoly.variable(table, k, e)

    a = parse_component("2 4 7", 7, 3)
    assert refined_leg_pair(a, parse_component("1 4 5 6", 7, 3), ys, table) == (
        (1 - y(2)) * (1 - y(7, 2))
    )
    assert refined_leg_pair(a, parse_component("0^3 1 4 5 6", 7, 3), ys, table) == (
        (1 - y(2, 4)) * (1 - y(7, 5))
    )
    assert refined_leg_pair(
        parse_component("1 4 6", 7, 3), parse_component("1 4 5 6", 7, 3), ys, table
    ).is_one()
    assert refined_leg_pair(
        parse_component("2 3 7", 7, 3), parse_component("0 4 5 6", 7, 3), ys, table
    ).is_zero()

    spec52 = PosetSpec((5,), (2,))
    chain = parse_chain("2 < 2 5 < 0 3 < 0 1 < 0^2 < 0^2 5 < 0^2 2 3", spec52)
    tab = project(chain, 0, spec52)
    assert set(leg_plus_positions(tab)) == {(3, 1), (2, 3), (2, 4), (1, 5), (2, 5)}
    t52 = VarTable([f"Y{i}" for i in range(6)])

    def z(k, e=1):
        return LaurentPoly.variable(t52, k, e)

    assert phi_tableau(tab, [1, 2, 3, 4, 5], t52) == (
        (1 - z(5, 2)) * (1 - z(1)) * (1 - z(3)) * (1 - z(2)) * (1 - z(5))
    )

    spec22 = PosetSpec((2,), (2,))
    dot = hasse_dot(spec22)
    assert dot.count("->") == 13
    assert len(cover_relations(enumerate_elements(spec22))) == 13
    nodes = [line for line in dot.splitlines() if line.endswith('";') and "->" not in line]
    assert len(nodes) == 12
    for x, yv_ in [(((1, 0, 0),), ((0, 1, 1),)), (((2, 0, 0),), ((1, 1, 1),))]:
        assert not leq_t(x, yv_) and not leq_t(yv_, x)
    with capsys.disabled():
        report(8, "phi values, leg set, Hasse diagram", started, 1.0)


def run_w_repetition_cases(count, seed=SEED + 2):
    rng = random.Random(seed)
    from hlskit.weight import chain_weight

    specs = [PosetSpec((2,), (2,)), PosetSpec((1, 1), (1, 0))]
    pools = []
    for spec in specs:
        ctx = make_context(spec)
        chains = [c for c in enumerate_multichains(spec, max_total_length=3) if c]
        pools.append((spec, ctx, chains))
    checked = 0
    for _ in range(count):
        spec, ctx, chains = pools[rng.randrange(len(pools))]
        chain = rng.choice(chains)
        repeated = []
        for e in chain:
            repeated.extend([e] * rng.randint(1, 3))
        lhs = chain_weight(chain, spec, ctx.yvars, ctx.table)
        rhs = chain_weight(tuple(repeated), spec, ctx.yvars, ctx.table)
        assert lhs == rhs
        checked += 1
    return checked


def test_criterion_9_property_suites(capsys):
    started = time.perf_counter()
    total = 0
    total += run_ring_axiom_cases(3500)
    total += run_invert_cases(3500)
    total += run_q_pascal_cases()
    total += run_symmetry_cases()
    total += run_specialization_cases()
    total += run_w_repetition_cases(3500)
    total += run_chain_tableau_agreement(
        [
            PosetSpec((2,), (2,)),
            PosetSpec((1, 1), (1, 0)),
            PosetSpec((1, 0), (0, 2)),
            PosetSpec((0, 0), (2, 1)),
        ]
    )
    assert total >= 10_000
    with capsys.disabled():
        report(9, f"{total} randomized/property cases, zero failures", started, 120.0)

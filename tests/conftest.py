import argparse
import itertools
import random
from typing import Callable, Iterable, Sequence

import pytest

from hlskit import verify
from hlskit._packed import Rows
from hlskit.cli import COMMANDS, UsageError
from hlskit.exactalg import LaurentPoly, Monomial, VarTable, _mono_mul
from hlskit.poset import (
    CapExceededError,
    DegenerateSpecError,
    Element,
    PosetSpec,
    delta,
    enumerate_elements,
    enumerate_multichains,
    leq_t,
    lt_t,
    render_element,
)
from hlskit.series import HlsRational, make_context
from hlskit.weight import chain_weight

SEED = 20260809


@pytest.fixture
def rng():
    return random.Random(SEED)


def random_poly(rng, table, nvars=4, max_terms=5):
    """Small random Laurent polynomial: exponents in [-3, 3], coeffs in [-9, 9]."""
    p = LaurentPoly.zero(table)
    for _ in range(rng.randint(0, max_terms)):
        exps = {v: rng.randint(-3, 3) for v in rng.sample(range(nvars), rng.randint(0, nvars))}
        coeff = rng.randint(-9, 9)
        p = p + LaurentPoly.monomial(table, exps, coeff)
    return p


def reference_numerator_1_2(table):
    """The twelve numerator terms of the (1),(2) series, tabulated by hand.

    Golden oracle: the implementation must reproduce this polynomial exactly.
    """
    y0 = table.id("Y[1,0]")
    y1 = table.id("Y[1,1]")
    x0 = table.id("X{0}")
    x00 = table.id("X{0^2}")
    x1 = table.id("X{1}")
    x01 = table.id("X{0 1}")
    terms = [
        (+1, {y0: 1, y1: 2, x00: 1, x01: 1, x0: 1, x1: 1}),
        (+1, {y1: 2, x00: 1, x01: 1, x1: 1}),
        (+1, {y1: 2, x00: 1, x0: 1, x1: 1}),
        (-1, {y0: 1, y1: 1, x00: 1, x01: 1}),
        (-1, {y0: 1, y1: 1, x0: 1, x1: 1}),
        (-1, {y1: 2, x00: 1, x1: 1}),
        (-1, {y0: 1, x01: 1, x0: 1}),
        (-1, {y1: 1, x00: 1, x01: 1}),
        (-1, {y1: 1, x0: 1, x1: 1}),
        (+1, {y0: 1, x01: 1}),
        (+1, {y0: 1, x0: 1}),
        (+1, {}),
    ]
    acc = LaurentPoly.zero(table)
    for coeff, exps in terms:
        acc = acc + LaurentPoly.monomial(table, exps, coeff)
    return acc


def reference_numerator_sum(
    table: VarTable,
    interval_vids: Sequence[int],
    contributions: Iterable[tuple[LaurentPoly, Sequence[int]]],
) -> tuple[LaurentPoly, int]:
    """Clear denominators for a chain sum.

    Each contribution is (weight, X variable ids of the chain); the term is
    weight * prod(chain X) * prod over the rest of the interval of (1 - X).
    """
    acc: dict[Monomial, int] = {}
    count = 0
    interval = list(interval_vids)
    for weight, chain_vids in contributions:
        count += 1
        if weight.is_zero():
            continue
        member = set(chain_vids)
        xmono: Monomial = tuple(sorted((v, 1) for v in member))
        # Expand prod (1 - X_v) over the complement of the chain.
        prod: dict[Monomial, int] = {(): 1}
        for v in interval:
            if v in member:
                continue
            update: dict[Monomial, int] = dict(prod)
            for m, c in prod.items():
                m2 = _mono_mul(m, ((v, 1),))
                c2 = update.get(m2, 0) - c
                if c2:
                    update[m2] = c2
                elif m2 in update:
                    del update[m2]
            prod = update
        for mw, cw in weight.terms.items():
            base = _mono_mul(mw, xmono)
            for mp, cp in prod.items():
                m = _mono_mul(base, mp)
                c = acc.get(m, 0) + cw * cp
                if c:
                    acc[m] = c
                elif m in acc:
                    del acc[m]
    return LaurentPoly(table, acc), count


def order_complex_routes(
    spec: PosetSpec, **caps
) -> tuple[verify.OrderComplexReport, tuple[int, int] | None, list[int]]:
    """``verify_order_complex``'s report, and both of its routes run apart on its rows.

    The rows are the ones the report was built from, caught on their way to
    the certificate; on them the certificate gives its witness pair (None
    when it holds) and the face walk its failing masks, each on its own.
    """
    certificate, seen = verify._pair_certificate, []

    def catch(*rows):
        seen.append(rows)
        return certificate(*rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_pair_certificate", catch)
        report = verify.verify_order_complex(spec, **caps)
    (rows,) = seen
    return report, certificate(*rows)[1], verify._failing_faces(*rows)


def reference_order_complex(
    spec: PosetSpec, max_subsets: int | None = None
) -> verify.OrderComplexReport:
    """The order-complex identity, checked one subset at a time, and its failing faces.

    For each subset S of the open interval, sums every chain weight whose
    mask lies inside S and every inverted, scaled one inside the
    complement: ``2^m x #chains`` mask tests.  The failures are the faces
    s at which the Moebius inversion of the per-subset differences,
    ``D[s] = sum over S within s of (-1)^|s - S| * (lhs(S) - rhs(S))``, is
    not zero, in ascending mask order.  ``K_and_N`` is looked up on the
    ``verify`` module, so a test that patches it there reaches both routes.
    """
    if spec.is_degenerate():
        raise DegenerateSpecError(
            "bottom equals top; the order-complex identity is vacuous here"
        )
    cap = verify.DEFAULT_MAX_SUBSETS if max_subsets is None else max_subsets
    ctx = make_context(spec)
    open_interval = ctx.x_elements[:-1]
    m = len(open_interval)
    if 1 << m > cap:
        raise CapExceededError(f"2^{m} subsets exceed the cap {cap}")
    k, n_value = verify.K_and_N(spec, ctx.table, ctx.yvars)
    all_y = [v for comp in ctx.yvars for v in comp]
    rhs_scale = k if (n_value - 1) % 2 == 0 else -k

    # Precompute every chain of the full open interval with its bitmask.
    index = {e: pos for pos, e in enumerate(open_interval)}
    prepared = []
    for chain in brute_force_chains(open_interval, m):
        mask = 0
        for e in chain:
            mask |= 1 << index[e]
        sign = -1 if len(chain) % 2 else 1
        w = chain_weight(chain, spec, ctx.yvars, ctx.table)
        lhs_term = w if sign == 1 else -w
        rhs_term = rhs_scale * w.invert_vars(all_y)
        if sign == -1:
            rhs_term = -rhs_term
        prepared.append((mask, lhs_term, rhs_term))

    differences = []
    full = (1 << m) - 1
    zero = LaurentPoly.zero(ctx.table)
    for s in range(1 << m):
        comp = full ^ s
        lhs = zero
        rhs = zero
        for mask, lhs_term, rhs_term in prepared:
            if mask & ~s == 0:
                lhs = lhs + lhs_term
            if mask & ~comp == 0:
                rhs = rhs + rhs_term
        differences.append(lhs - rhs)

    # Moebius inversion over the subset lattice, one element at a time.
    for i in range(m):
        for s in range(1 << m):
            if s >> i & 1 and differences[s ^ 1 << i]:
                differences[s] = differences[s] - differences[s ^ 1 << i]
    failures = []
    for s, d in enumerate(differences):
        if d:
            members = [render_element(open_interval[i]) for i in range(m) if s >> i & 1]
            failures.append("{" + ", ".join(members) + "}")
    return verify.OrderComplexReport(spec, 1 << m, tuple(failures))


def reference_reciprocity(
    value: HlsRational,
    kind: str,
    k: LaurentPoly | None = None,
    n_value: int | None = None,
    numerator: LaurentPoly | None = None,
) -> bool:
    """The functional equation of a series value, on ``LaurentPoly`` arithmetic.

    Checks ``(-1)^m * K * prod X_c * Num(inverted)`` against ``(-1)^N *
    X_top * Num`` for the half-open series (``kind`` ``"hls"``, whose last
    denominator factor is the top's) and against ``(-1)^(N-1) * Num`` for
    the open one, with ``m`` denominator factors.  K and N default to
    ``K_and_N`` of the value's spec, looked up on the ``verify`` module, so
    a test that patches it there reaches both routes.  ``numerator``, by
    default the value's own, is checked over the value's denominator.
    """
    if k is None:
        k, n_value = verify.K_and_N(value.spec, value.table, value.yvars)
    if numerator is None:
        numerator = value.numerator
    table = value.table
    m = len(value.denominator_vars)
    inverted = numerator.invert_vars(range(len(table)))
    x_product = LaurentPoly.monomial(table, {v: 1 for v in value.denominator_vars}, 1)
    lhs = k * x_product * inverted
    if m % 2:
        lhs = -lhs
    if kind == "hls":
        rhs = LaurentPoly.variable(table, value.denominator_vars[-1]) * numerator
        if n_value % 2:
            rhs = -rhs
    else:
        rhs = numerator
        if (n_value - 1) % 2:
            rhs = -rhs
    return lhs == rhs


def reference_relation(h: HlsRational, hm: HlsRational) -> bool:
    """The half-open series ``h`` is the open one ``hm`` over ``1 - X_top``, as polynomials."""
    return h.denominator_vars[:-1] == hm.denominator_vars and h.numerator == hm.numerator


def reference_mobius_matrix(
    spec: PosetSpec, zeta: verify.PolyMatrix, yvars=None
) -> verify.PolyMatrix:
    """The closed-form Möbius matrix on ``LaurentPoly`` arithmetic, read off ``zeta``.

    Entry (a, b) is the zeta entry at inverted Y variables times the sign
    (-1)^(cardinality difference) and the monomial of per-position deltas,
    which clears every negative exponent.  ``zeta`` must be a zeta matrix
    of ``spec`` whose pair weights read ``yvars``, by default those of
    ``make_context(spec)``.
    """
    if yvars is None:
        yvars = make_context(spec).yvars
    all_y = [v for comp in yvars for v in comp]
    zero = LaurentPoly.zero(zeta.table)
    entries = []
    for a, weights in zip(zeta.labels, zeta.entries):
        row = [zero] * len(weights)
        for j, w in enumerate(weights):
            if not w.terms:
                continue
            b = zeta.labels[j]
            sign = 1
            exps: dict[int, int] = {}
            for c in range(spec.g):
                nc = spec.n[c]
                if delta(a[c], b[c], nc + 1) % 2:
                    sign = -sign
                for p in range(nc + 1):
                    d = delta(a[c], b[c], p)
                    if d:
                        exps[yvars[c][p]] = d
            entry = LaurentPoly.monomial(zeta.table, exps, sign) * w.invert_vars(all_y)
            assert all(e >= 0 for mono in entry.terms for _, e in mono), "Moebius entry failed to clear"
            row[j] = entry
        entries.append(row)
    return verify.PolyMatrix(zeta.labels, entries, zeta.table)


def reference_expand_multichain(
    spec: PosetSpec,
    bound: int,
    max_chains: int | None = None,
    max_elements: int | None = None,
) -> dict[tuple[int, ...], LaurentPoly]:
    """The coefficients of the multichain expansion, each weight multiplied out by ``chain_weight``.

    They are keyed by X multidegree, over the X variables of
    ``make_context(spec)`` in order.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    ctx = make_context(spec, max_elements)
    index = {e: k for k, e in enumerate(ctx.x_elements)}
    m = len(ctx.x_elements)
    coeffs: dict[tuple[int, ...], LaurentPoly] = {}
    for mchain in enumerate_multichains(spec, "half_open", bound, max_chains, max_elements):
        key = [0] * m
        for e in mchain:
            key[index[e]] += 1
        weight = chain_weight(mchain, spec, ctx.yvars, ctx.table)
        k = tuple(key)
        prev = coeffs.get(k)
        coeffs[k] = weight if prev is None else prev + weight
    return {k: v for k, v in coeffs.items() if not v.is_zero()}


def reference_multiply_rows(a: Rows, b: Rows) -> Rows:
    """The product of two packed matrices by a plain triple loop over dicts.

    Entry ``(i, j)`` sums ``a[i][k][x] * b[k][j][y]`` at key ``x + y`` over
    every ``k`` and both keys; coefficients and entries that sum to zero are
    left out, and each row's columns ascend.
    """
    out = []
    for row_a in a:
        sums: dict[int, dict[int, int]] = {}
        for k, terms_a in row_a.items():
            for j, terms_b in b[k].items():
                entry = sums.setdefault(j, {})
                for x, c in terms_a.items():
                    for y, d in terms_b.items():
                        entry[x + y] = entry.get(x + y, 0) + c * d
        kept = {j: {key: c for key, c in entry.items() if c} for j, entry in sorted(sums.items())}
        out.append({j: entry for j, entry in kept.items() if entry})
    return out


def brute_force_covers(spec: PosetSpec) -> list[tuple[Element, Element]]:
    """Covering pairs by definition: a < b with no element strictly between.

    Tests every middle element of every pair, in enumeration order of (a, b).
    """
    elements = enumerate_elements(spec)
    lt = [[lt_t(a, b) for b in elements] for a in elements]
    m = len(elements)
    return [
        (elements[i], elements[j])
        for i in range(m)
        for j in range(m)
        if lt[i][j] and not any(lt[i][k] and lt[k][j] for k in range(m))
    ]


def brute_force_chains(
    elements: Sequence[Element],
    max_length: int,
    weak: bool = False,
    leq: Callable[[Element, Element], bool] = leq_t,
) -> list[tuple[Element, ...]]:
    """Strict chains, or multichains if ``weak``, of at most ``max_length`` elements.

    Every index combination (with repetition if ``weak``) is put in order of
    its members' total prefix sum, which strictly increases along the
    tableau order and along inclusion of subsets, and kept if each member
    lies below the next under ``leq``, by one pairwise test per step.  The
    result is sorted by length and then by index tuple.
    """
    pick = itertools.combinations_with_replacement if weak else itertools.combinations
    below = leq if weak else (lambda a, b: a != b and leq(a, b))

    def height(i: int) -> int:
        return sum(sum(itertools.accumulate(a)) for a in elements[i])

    found = []
    for size in range(max_length + 1):
        for combo in pick(range(len(elements)), size):
            chain = sorted(combo, key=height)
            if all(below(elements[x], elements[y]) for x, y in zip(chain, chain[1:])):
                found.append(tuple(chain))
    found.sort(key=lambda c: (len(c), c))
    return [tuple(elements[i] for i in c) for c in found]


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``cli.COMMANDS``: the route ``cli.parse_args`` replaced.

    Flags are not abbreviated, as ``parse_args`` does not abbreviate them;
    a usage error raises ``UsageError``, and ``--help`` exits.
    """
    parser = _ReferenceParser(prog="hlskit", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_line, required, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line, allow_abbrev=False)
        p.set_defaults(fn=fn)
        for arg, choices in required.items():
            p.add_argument(arg, choices=choices, **({"required": True} if arg.startswith("-") else {}))
        for flag, kind in flags.items():
            if kind is bool:
                p.add_argument(flag, action="store_true")
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind, default=kind[0])
            else:
                p.add_argument(flag, type=kind)
    return parser


@pytest.fixture
def ctx_1_2():
    return make_context(PosetSpec((1,), (2,)))

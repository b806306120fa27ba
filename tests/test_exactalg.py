import itertools
import math
import random

import pytest

from hlskit.exactalg import (
    LaurentPoly,
    VarTable,
    y_binomial,
    y_integer,
    y_multinomial,
)

from conftest import SEED, random_poly

T = VarTable(["a", "b", "c", "d"])
A = LaurentPoly.variable(T, 0)
B = LaurentPoly.variable(T, 1)

Q = VarTable(["Y"])
Y = LaurentPoly.variable(Q, 0)


def test_var_table_bijection():
    assert T.id("c") == 2
    assert T.name(2) == "c"
    assert len(T) == 4
    with pytest.raises(ValueError):
        VarTable(["a", "a"])


def test_add_cancellation():
    assert (1 + A) + (-1) == A


def test_add_identity():
    p = 3 * A**2 - B
    assert p + LaurentPoly.zero(T) == p


def test_add_expanded_by_hand():
    # (1 - Y^2) + (Y^2 - Y^4) = 1 - Y^4
    assert (1 - Y**2) + (Y**2 - Y**4) == 1 - Y**4


def test_mul_telescoping():
    assert (1 - Y) * (1 + Y + Y**2) == 1 - Y**3


def test_mul_identity():
    p = 2 * A * B - A
    assert p * LaurentPoly.const(T, 1) == p


def test_mul_square():
    assert (1 + Y) * (1 + Y) == 1 + 2 * Y + Y**2


def test_invert_vars_trivial():
    got = (1 + Y).invert_vars([0])
    assert got == 1 + LaurentPoly.variable(Q, 0, -1)


def test_invert_vars_selected_only():
    # invert a on (1 - a^2)(1 - b): expand by hand
    p = (1 - A**2) * (1 - B)
    got = p.invert_vars([0])
    ainv = LaurentPoly.variable(T, 0, -2)
    assert got == (1 - ainv) * (1 - B)


def test_mixed_table_operations_rejected():
    with pytest.raises(ValueError):
        A + Y


def test_y_integer():
    assert y_integer(Q, 3, 0) == 1 + Y + Y**2
    assert y_integer(Q, 0, 0).is_zero()
    assert y_integer(Q, 1, 0).is_one()


def test_y_binomial_hand_value():
    # (1 - Y^3)(1 - Y^4) / ((1 - Y)(1 - Y^2)) expanded by hand
    assert y_binomial(Q, 4, 2, 0) == 1 + Y + 2 * Y**2 + Y**3 + Y**4


def test_y_binomial_edge():
    for n in range(7):
        assert y_binomial(Q, n, 0, 0).is_one()
        assert y_binomial(Q, n, n, 0).is_one()


def test_y_binomial_counts_subset_sums():
    # The coefficient of Y^j counts the k-subsets of {0, ..., n-1} whose sum
    # exceeds the least possible sum k(k-1)/2 by j.
    table = VarTable(["a", "Y", "b"])
    for n in range(11):
        for k in range(n + 1):
            counts: dict[int, int] = {}
            for subset in itertools.combinations(range(n), k):
                j = sum(subset) - k * (k - 1) // 2
                counts[j] = counts.get(j, 0) + 1
            expected = sum(
                (c * LaurentPoly.variable(table, 1, j) for j, c in counts.items()),
                LaurentPoly.zero(table),
            )
            assert y_binomial(table, n, k, 1) == expected, (n, k)


def test_y_binomial_rejects_bad_parameters():
    with pytest.raises(ValueError):
        y_binomial(Q, 2, 3, 0)
    with pytest.raises(ValueError):
        y_binomial(Q, 2, -1, 0)


def test_y_multinomial_underlying_set():
    assert y_multinomial(Q, 5, [2, 2, 3, 3, 3], 0) == y_multinomial(Q, 5, [2, 3], 0)


def test_y_multinomial_rejects_out_of_range():
    with pytest.raises(ValueError):
        y_multinomial(Q, 3, [0], 0)
    with pytest.raises(ValueError):
        y_multinomial(Q, 3, [4], 0)


def test_eval_at_one():
    assert (1 - Y).eval_at_one([0]).is_zero()
    p = y_binomial(Q, 6, 3, 0)
    assert p.eval_at_one([0]) == math.comb(6, 3)


def test_canonical_text_format():
    table = VarTable(["Y[1,1]", "X{0^2}"])
    y = LaurentPoly.variable(table, 0)
    x = LaurentPoly.variable(table, 1)
    assert (1 - y**2 * x).text() == "1 - Y[1,1]^2*X{0^2}"
    assert LaurentPoly.zero(table).text() == "0"
    assert (y.invert_vars([0]) * 3).text() == "3*Y[1,1]^-1"


def test_pow():
    assert (1 + Y) ** 0 == 1
    assert (1 + Y) ** 3 == 1 + 3 * Y + 3 * Y**2 + Y**3


def test_subs_renaming_and_constants():
    p = A**2 * B - B
    assert p.subs({0: B}) == B**3 - B
    assert p.subs({1: 1}) == A**2 - 1
    ainv = A.invert_vars([0])
    assert ainv.subs({0: B}) == B.invert_vars([1])
    with pytest.raises(ValueError):
        ainv.subs({0: 1 + B})


# -- randomized property suites ------------------------------------------------


def run_ring_axiom_cases(count, seed=SEED):
    rng = random.Random(seed)
    checked = 0
    for _ in range(count):
        p = random_poly(rng, T)
        q = random_poly(rng, T)
        s = random_poly(rng, T)
        assert (p + q) + s == p + (q + s)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * s == p * (q * s)
        assert p * (q + s) == p * q + p * s
        checked += 1
    return checked


def run_invert_cases(count, seed=SEED + 1):
    rng = random.Random(seed)
    checked = 0
    for _ in range(count):
        p = random_poly(rng, T)
        q = random_poly(rng, T)
        vids = rng.sample(range(4), rng.randint(0, 4))
        assert p.invert_vars(vids).invert_vars(vids) == p
        assert (p + q).invert_vars(vids) == p.invert_vars(vids) + q.invert_vars(vids)
        assert (p * q).invert_vars(vids) == p.invert_vars(vids) * q.invert_vars(vids)
        checked += 1
    return checked


def run_q_pascal_cases(max_n=8):
    checked = 0
    for n in range(1, max_n + 1):
        for k in range(1, n):
            lhs = y_binomial(Q, n, k, 0)
            rhs = y_binomial(Q, n - 1, k - 1, 0) + Y**k * y_binomial(Q, n - 1, k, 0)
            assert lhs == rhs
            checked += 1
    return checked


def run_symmetry_cases(max_n=8):
    checked = 0
    for n in range(max_n + 1):
        for k in range(n + 1):
            assert y_binomial(Q, n, k, 0) == y_binomial(Q, n, n - k, 0)
            checked += 1
    return checked


def run_specialization_cases(max_n=10):
    checked = 0
    for n in range(max_n + 1):
        for k in range(n + 1):
            assert y_binomial(Q, n, k, 0).eval_at_one([0]) == math.comb(n, k)
            checked += 1
    return checked


def test_ring_axioms_randomized():
    assert run_ring_axiom_cases(300) == 300


def test_invert_homomorphism_randomized():
    assert run_invert_cases(300) == 300


def test_q_pascal_recurrence():
    assert run_q_pascal_cases() == 28


def test_binomial_symmetry():
    assert run_symmetry_cases() == 45


def test_binomial_specialization():
    assert run_specialization_cases() == 66


# -- the print order of terms --------------------------------------------------------


def _dense_key(m, nvars):
    """The print order as first stated: total degree, then the dense exponent row."""
    row = [0] * nvars
    for v, e in m:
        row[v] = e
    return sum(row), tuple(row)


def test_sorted_terms_sort_as_the_dense_key():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    nvars = 6
    table = VarTable([f"x{i}" for i in range(nvars)])
    exponents = st.integers(min_value=-3, max_value=3)
    monomials = st.dictionaries(st.integers(min_value=0, max_value=nvars - 1), exponents)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(monomials, max_size=12))
    def check(monos):
        p = LaurentPoly.zero(table)
        for exps in monos:
            p = p + LaurentPoly.monomial(table, exps, 1)
        got = [m for m, _ in p.sorted_terms()]
        assert got == sorted(p.terms, key=lambda m: _dense_key(m, nvars))

    check()

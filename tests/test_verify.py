import itertools

import pytest

from hlskit import poset, verify, weight
from hlskit._packed import Codec, PairWeights
from hlskit.exactalg import LaurentPoly, VarTable, y_binomial
from hlskit.poset import (
    CapExceededError,
    DegenerateSpecError,
    PosetSpec,
    delta,
    enumerate_elements,
    leq_t,
    lt_t,
    render_element,
    s_vector,
)
from hlskit.series import (
    classical_igusa,
    generalized_igusa,
    hls,
    hls_modified,
    make_context,
    mv_hls,
    relation_check,
    weak_order_igusa,
)
from hlskit.verify import (
    K_and_N,
    PolyMatrix,
    check_reciprocity,
    identity_mismatch,
    is_identity,
    kron,
    matmul,
    mobius_matrix,
    mobius_rows,
    mobius_via_chains,
    rows_mismatch,
    verify_order_complex,
    verify_reciprocity,
    zeta_matrix,
    zeta_rows,
)
from hlskit.weight import pair_weight

from conftest import (
    brute_force_chains,
    order_complex_routes,
    reference_mobius_matrix,
    reference_order_complex,
    reference_reciprocity,
    reference_relation,
)
from test_series import SMALL_SPECS, spec_id

Q_PASCAL_SPEC = PosetSpec((0,), (2,))


def test_zeta_q_pascal_base_case():
    z = zeta_matrix(Q_PASCAL_SPEC)
    q = z.table.id("Y[1,0]")
    for i in range(3):
        for j in range(3):
            expected = (
                y_binomial(z.table, j, i, q) if i <= j else LaurentPoly.zero(z.table)
            )
            assert z.entries[i][j] == expected


def test_zeta_diagonal_and_bottom_row():
    for spec in (PosetSpec((2,), (2,)), PosetSpec((1, 1), (1, 0))):
        z = zeta_matrix(spec)
        bottom = spec.bottom()
        bi = z.labels.index(bottom)
        for i in range(z.dim):
            assert z.entries[i][i].is_one()
            assert z.entries[bi][i].is_one()


def test_mobius_q_pascal_entries():
    m = mobius_matrix(Q_PASCAL_SPEC)
    q = LaurentPoly.variable(m.table, m.table.id("Y[1,0]"))
    assert m.entries[0][1] == -1
    assert m.entries[0][2] == q
    assert m.entries[1][2] == -(1 + q)
    for i in range(3):
        assert m.entries[i][i].is_one()


def test_q_pascal_closed_form_inverse():
    # Literal inverse formula: (-1)^(j-i) q^(C(j,2)-C(i,2)) binom(j,i) at 1/q.
    for r in range(1, 6):
        spec = PosetSpec((0,), (r,))
        z = zeta_matrix(spec)
        m = mobius_matrix(spec)
        q = z.table.id("Y[1,0]")
        for i in range(r + 1):
            for j in range(r + 1):
                if i > j:
                    assert m.entries[i][j].is_zero()
                    continue
                binv = y_binomial(z.table, j, i, q).invert_vars([q])
                sign = -1 if (j - i) % 2 else 1
                shift = j * (j - 1) // 2 - i * (i - 1) // 2
                expected = LaurentPoly.monomial(z.table, {q: shift}, sign) * binv
                assert m.entries[i][j] == expected
        assert is_identity(matmul(z, m))


@pytest.mark.parametrize("nr", [(0, 4), (1, 2), (2, 1), (2, 2)])
def test_zeta_mobius_inversion(nr):
    spec = PosetSpec((nr[0],), (nr[1],))
    assert is_identity(matmul(zeta_matrix(spec), mobius_matrix(spec)))


@pytest.mark.parametrize(
    "spec", [PosetSpec((0,), (3,)), PosetSpec((2,), (1,)), PosetSpec((1, 0), (1, 2))], ids=str
)
def test_mobius_over_a_wider_table_matches_the_reference(spec):
    ctx = make_context(PosetSpec((1,) + spec.n, (1,) + spec.r))
    wider = (ctx.table, ctx.yvars[1:])
    expected = reference_mobius_matrix(spec, zeta_matrix(spec, *wider), wider[1])
    assert mobius_matrix(spec, *wider).entries == expected.entries


def test_mobius_p11_by_direct_product():
    spec = PosetSpec((1,), (1,))
    z = zeta_matrix(spec)
    m = mobius_matrix(spec)
    assert z.dim == 4
    assert is_identity(matmul(z, m))
    assert is_identity(matmul(m, z))


def test_kron_structure_g2():
    spec = PosetSpec((1, 1), (1, 1))
    ctx = make_context(spec)
    z2 = zeta_matrix(spec, ctx.table, ctx.yvars)
    m2 = mobius_matrix(spec, ctx.table, ctx.yvars)
    za = zeta_matrix(PosetSpec((1,), (1,)), ctx.table, [ctx.yvars[0]])
    zb = zeta_matrix(PosetSpec((1,), (1,)), ctx.table, [ctx.yvars[1]])
    ma = mobius_matrix(PosetSpec((1,), (1,)), ctx.table, [ctx.yvars[0]])
    mb = mobius_matrix(PosetSpec((1,), (1,)), ctx.table, [ctx.yvars[1]])
    zk = kron(za, zb)
    mk = kron(ma, mb)
    assert zk.labels == z2.labels
    assert zk.entries == z2.entries
    assert mk.entries == m2.entries
    assert is_identity(matmul(zk, mk))


def test_kron_identity():
    table = VarTable(["q"])
    one = LaurentPoly.const(table, 1)
    zero = LaurentPoly.zero(table)
    eye = PolyMatrix(
        (((0,),), ((1,),)),
        [[one, zero], [zero, one]],
        table,
    )
    assert is_identity(kron(eye, eye))


def test_kron_inverse_of_product():
    # (A ox B)^-1 = A^-1 ox B^-1 on 2x2 polynomial matrices.
    table = VarTable(["q"])
    q = LaurentPoly.variable(table, 0)
    one = LaurentPoly.const(table, 1)
    zero = LaurentPoly.zero(table)
    labels = (((0,),), ((1,),))
    a = PolyMatrix(labels, [[one, q], [zero, one]], table)
    ainv = PolyMatrix(labels, [[one, -q], [zero, one]], table)
    b = PolyMatrix(labels, [[one, 1 + q], [zero, one]], table)
    binv = PolyMatrix(labels, [[one, -(1 + q)], [zero, one]], table)
    assert is_identity(matmul(kron(a, b), kron(ainv, binv)))


def test_matmul_index_mismatch():
    a = zeta_matrix(PosetSpec((1,), (0,)))
    b = zeta_matrix(PosetSpec((0,), (1,)))
    with pytest.raises(ValueError):
        matmul(a, b)


def test_matmul_identity_is_neutral():
    spec = PosetSpec((1,), (1,))
    z = zeta_matrix(spec)
    one = LaurentPoly.const(z.table, 1)
    zero = LaurentPoly.zero(z.table)
    eye = PolyMatrix(
        z.labels,
        [[one if i == j else zero for j in range(z.dim)] for i in range(z.dim)],
        z.table,
    )
    assert matmul(eye, z).entries == z.entries
    assert matmul(z, eye).entries == z.entries


def _perturbed(m, scale):
    """A copy of ``m`` with its longest off-diagonal entry times ``scale``."""
    i, j = max(
        ((i, j) for i in range(m.dim) for j in range(m.dim) if i != j),
        key=lambda ij: len(m.entries[ij[0]][ij[1]].terms),
    )
    entries = [list(row) for row in m.entries]
    entries[i][j] = entries[i][j] * scale
    return PolyMatrix(m.labels, entries, m.table)


@pytest.mark.parametrize(
    "spec, products",
    [
        (PosetSpec((2,), (2,)), ("zm", "mz", "zz", "z-m", "zym")),
        (PosetSpec((1, 1), (1, 2)), ("zm", "mz", "zz", "z-m", "zym")),
        (PosetSpec((4,), (3,)), ("zm", "zym")),
    ],
    ids=["n2-r2", "n1,1-r1,2", "n4-r3"],
)
def test_matmul_matches_triple_loop_oracle(spec, products):
    ctx = make_context(spec)
    zeta = zeta_rows(spec, ctx.table, ctx.yvars)
    mobius = mobius_rows(zeta)
    z, mu = zeta.view(), mobius.view()
    y = LaurentPoly.variable(ctx.table, ctx.yvars[0][-1])
    operands = {
        "zm": (z, mu),
        "mz": (mu, z),
        "zz": (z, z),
        "z-m": (z, _perturbed(mu, -1)),
        "zym": (z, _perturbed(mu, y)),
    }
    packed = {"zm": (zeta, mobius), "mz": (mobius, zeta), "zz": (zeta, zeta)}
    for name in products:
        a, b = operands[name]
        got = matmul(a, b)
        assert (got.labels, got.table) == (a.labels, a.table)
        if name in packed:
            left, right = packed[name]
            assert got.entries == left.times(right).view().entries, name
        if name in ("zm", "mz"):
            assert is_identity(got)
        else:
            assert identity_mismatch(got) is not None
        if name in ("z-m", "zym"):
            assert any(c < 0 for row in got.entries for e in row for c in e.terms.values())


def test_matmul_packing_fills_each_field():
    table = VarTable(["x", "y", "z", "w"])
    labels = (((0,),), ((1,),))

    def mono(coeff, *exps):
        return LaurentPoly.monomial(table, dict(enumerate(exps)), coeff)

    a = PolyMatrix(
        labels,
        [
            [mono(1, 1, 3, 8, 4) + mono(-2, 0, 1, 0, 0), mono(3, 1, 0, 5, 1)],
            [mono(1, 0, 0, 0, 0), mono(0, 0, 0, 0, 0)],
        ],
        table,
    )
    b = PolyMatrix(
        labels,
        [
            [mono(1, 2, 4, 7, 4), mono(-1, 0, 4, 0, 0)],
            [mono(5, 2, 0, 7, 0) + mono(1, 0, 0, 0, 0), mono(1, 1, 1, 1, 1)],
        ],
        table,
    )
    got = matmul(a, b)
    assert got.entries[0][0] == (
        mono(1, 3, 7, 15, 8) + mono(-2, 2, 5, 7, 4) + mono(15, 3, 0, 12, 1) + mono(3, 1, 0, 5, 1)
    )
    assert got.entries[1][1] == mono(-1, 0, 4, 0, 0)


@pytest.mark.parametrize("side", ["a", "b"])
def test_matmul_takes_laurent_entries(side):
    table = VarTable(["x"])
    labels = (((0,),),)
    x = PolyMatrix(labels, [[LaurentPoly.variable(table, 0)]], table)
    inverse = PolyMatrix(labels, [[LaurentPoly.variable(table, 0, -1)]], table)
    assert is_identity(matmul(inverse, x) if side == "a" else matmul(x, inverse))


@pytest.mark.parametrize(
    "mismatch, message",
    [("labels", "matrix index mismatch"), ("table", "different variable tables")],
)
def test_matmul_rejects_operands_that_do_not_match(mismatch, message):
    table = VarTable(["x"])
    one = PolyMatrix((((0,),),), [[LaurentPoly.const(table, 1)]], table)
    if mismatch == "labels":
        other = PolyMatrix((((1,),),), [[LaurentPoly.const(table, 1)]], table)
    else:
        other_table = VarTable(["y"])
        other = PolyMatrix(one.labels, [[LaurentPoly.const(other_table, 1)]], other_table)
    for a, b in ((one, other), (other, one)):
        with pytest.raises(ValueError, match=message):
            matmul(a, b)


# -- packed zeta and Möbius rows against the LaurentPoly routes ----------------------


@pytest.mark.parametrize(
    "spec", SMALL_SPECS + [PosetSpec((1, 1), (1, 2)), PosetSpec((4,), (3,))], ids=spec_id
)
def test_packed_rows_match_the_laurent_routes(spec):
    ctx = make_context(spec)
    zeta = zeta_rows(spec)
    mobius = mobius_rows(zeta)
    z = zeta.view()
    zero = LaurentPoly.zero(ctx.table)
    for i, a in enumerate(z.labels):
        for j, b in enumerate(z.labels):
            expected = pair_weight(a, b, ctx.yvars, ctx.table) if leq_t(a, b) else zero
            assert z.entries[i][j] == expected
    assert mobius.view().entries == reference_mobius_matrix(spec, z).entries
    assert mobius_matrix(spec).entries == mobius.view().entries
    # Every product of two of them, as the run and as matmul compute it.
    for left, right in ((zeta, mobius), (mobius, zeta), (zeta, zeta), (mobius, mobius)):
        product = left.times(right)
        want = matmul(left.view(), right.view())
        assert product.view().entries == want.entries
        assert rows_mismatch(product.rows) == identity_mismatch(want)
        assert (rows_mismatch(product.rows) is None) == (right is not left)


def test_packed_rows_multiply_only_over_the_same_elements_and_codec():
    spec = PosetSpec((1,), (2,))
    zeta = zeta_rows(spec)
    identity = [{i: {0: 1}} for i in range(len(zeta.labels))]
    assert zeta.times(mobius_rows(zeta)).rows == identity
    ctx = make_context(PosetSpec((1, 1), (1, 2)))
    # Other elements; then the same elements, with the Y variables of a wider table.
    for other in (zeta_rows(PosetSpec((1,), (3,))), zeta_rows(spec, ctx.table, ctx.yvars[1:])):
        with pytest.raises(ValueError, match="same elements and codec"):
            zeta.times(other)


def test_rows_mismatch_finds_the_first_entry_out_of_place():
    one = {0: 1}
    assert rows_mismatch([{0: one}, {1: one}]) is None
    assert rows_mismatch([{0: one}, {}]) == (1, 1)
    assert rows_mismatch([{0: one}, {0: {3: 2}, 1: one}]) == (1, 0)
    assert rows_mismatch([{0: one, 1: {1: -1}}, {1: one}]) == (0, 1)
    assert rows_mismatch([{1: one}, {1: one}]) == (0, 0)
    assert rows_mismatch([{0: {1: 1}}]) == (0, 0)


@pytest.mark.parametrize("spec", [PosetSpec((2,), (2,)), PosetSpec((1, 1), (1, 2))], ids=str)
def test_packing_a_weight_past_delta_raises(spec):
    ctx = make_context(spec)

    def pack(a, b, w):
        return PairWeights(spec, ctx.table, ctx.yvars, lambda *_: w)(a, b)

    elements = enumerate_elements(spec)
    for a, b in itertools.product(elements, repeat=2):
        if not leq_t(a, b):
            continue
        w = pair_weight(a, b, ctx.yvars, ctx.table)
        for c in range(spec.g):
            for p in range(spec.n[c] + 1):
                v, d = ctx.yvars[c][p], delta(a[c], b[c], p)
                at_delta = w + LaurentPoly.variable(ctx.table, v, d)
                if a == b:  # d = 0, and w(a, a) = 1 becomes 2
                    with pytest.raises(ValueError, match="is not 1$"):
                        pack(a, b, at_delta)
                else:
                    assert len(pack(a, b, at_delta)) == len(at_delta.terms)
                with pytest.raises(ValueError, match="past δ"):
                    pack(a, b, w + LaurentPoly.variable(ctx.table, v, d + 1))
                with pytest.raises(ValueError, match="past δ"):
                    pack(a, b, w + LaurentPoly.variable(ctx.table, v, -1))
        x = LaurentPoly.variable(ctx.table, ctx.x_ids[ctx.x_elements[0]])
        with pytest.raises(ValueError, match="past δ = 0"):
            pack(a, b, w * x)


def test_zeta_rows_raise_on_a_pair_weight_past_delta(monkeypatch):
    spec = PosetSpec((1,), (2,))
    bottom, top = spec.bottom(), spec.top()

    def wrong(a, b, yvars, table):
        w = pair_weight(a, b, yvars, table)
        if (a, b) == (bottom, top):
            w = w + LaurentPoly.variable(table, yvars[0][1], delta(a[0], b[0], 1) + 1)
        return w

    monkeypatch.setattr(verify, "pair_weight", wrong)
    with pytest.raises(ValueError, match=r"\(-, 0\^2 1\) has Y\[1,1\]\^3, past δ = 2"):
        zeta_rows(spec)
    with pytest.raises(ValueError, match="past δ"):
        mobius_via_chains(spec, bottom, top)


def test_mobius_via_chains_at_equal_arguments():
    spec = PosetSpec((1,), (2,))
    for e in enumerate_elements(spec):
        assert mobius_via_chains(spec, e, e).is_one()


def test_block_recursion_structure():
    # In reverse-lex order, the zeta matrix of the (n+1, r) poset consists
    # of copies of the n-level matrix, with the lower-left block conjugated
    # by the diagonal of cardinality monomials.
    for n in range(0, 3):
        for r in range(0, 3):
            big_spec = PosetSpec((n + 1,), (r,))
            small_spec = PosetSpec((n,), (r,))
            ctx = make_context(big_spec)
            zb = zeta_matrix(big_spec, ctx.table, ctx.yvars)
            zs = zeta_matrix(small_spec, ctx.table, [ctx.yvars[0][: n + 1]])
            h = zs.dim
            assert zb.dim == 2 * h
            y_top = ctx.yvars[0][n + 1]
            small = [e[0] for e in zs.labels]
            for i in range(h):
                for j in range(h):
                    card = s_vector(small[j])[-1] - s_vector(small[i])[-1]
                    assert zb.entries[i][j] == zs.entries[i][j]
                    assert zb.entries[i][h + j] == zs.entries[i][j]
                    assert zb.entries[h + i][h + j] == zs.entries[i][j]
                    conj = LaurentPoly.monomial(ctx.table, {y_top: card}, 1) * zs.entries[i][j]
                    assert zb.entries[h + i][j] == zs.entries[i][j] - conj


def test_mobius_via_chains_matches_matrix():
    for nr in [(2, 1), (1, 2)]:
        spec = PosetSpec((nr[0],), (nr[1],))
        m = mobius_matrix(spec)
        for i, a in enumerate(m.labels):
            for j, b in enumerate(m.labels):
                if leq_t(a, b):
                    assert mobius_via_chains(spec, a, b) == m.entries[i][j]


def test_mobius_via_chains_rejects_unordered():
    spec = PosetSpec((2,), (2,))
    a = ((1, 0, 0),)
    b = ((0, 1, 1),)
    with pytest.raises(ValueError):
        mobius_via_chains(spec, a, b)


def test_mobius_at_one_matches_textbook_recursion():
    # With r = 0 and every variable at 1, the pair weights become multiset
    # containment indicators, so the chain sums specialize to the Moebius
    # function of the boolean lattice; compare against its textbook
    # recursion mu(a, b) = -sum over a <= c < b of mu(a, c).
    for n in (2, 3):
        spec = PosetSpec((n,), (0,))
        els = enumerate_elements(spec)
        ctx = make_context(spec)
        all_y = [v for comp in ctx.yvars for v in comp]

        def contained(a, b):
            return all(x <= y for x, y in zip(a[0], b[0]))

        def mu(a, b, cache={}):
            key = (a, b)
            if key in cache:
                return cache[key]
            if a == b:
                value = 1
            else:
                value = -sum(
                    mu(a, c) for c in els if contained(a, c) and c != b and contained(c, b)
                )
            cache[key] = value
            return value

        for a in els:
            for b in els:
                if leq_t(a, b):
                    got = mobius_via_chains(spec, a, b, ctx.table, ctx.yvars)
                    expected = mu(a, b) if contained(a, b) else 0
                    assert got.eval_at_one(all_y) == expected


def test_k_and_n_values():
    spec = PosetSpec((1,), (2,))
    k, n = K_and_N(spec)
    ctx = make_context(spec)
    expected = LaurentPoly.monomial(
        ctx.table, {ctx.yvars[0][0]: 1, ctx.yvars[0][1]: 2}, 1
    )
    assert n == 3
    assert k == expected


def test_k_for_chain_products_uses_binomials_only():
    spec = PosetSpec((0, 0), (2, 3))
    k, n = K_and_N(spec)
    ctx = make_context(spec)
    assert n == 5
    assert k == LaurentPoly.monomial(
        ctx.table, {ctx.yvars[0][0]: 1, ctx.yvars[1][0]: 3}, 1
    )


def test_k_exponents_are_bottom_top_deltas():
    from hlskit.poset import delta

    for spec in (PosetSpec((2,), (2,)), PosetSpec((1, 1), (1, 0))):
        k, _ = K_and_N(spec)
        ctx = make_context(spec)
        ((mono, coeff),) = k.terms.items()
        assert coeff == 1
        exps = dict(mono)
        bottom = spec.bottom()
        top = spec.top()
        for i in range(spec.g):
            for j in range(spec.n[i] + 2):
                d = delta(bottom[i], top[i], j)
                if j <= spec.n[i]:
                    assert exps.get(ctx.yvars[i][j], 0) == d
                if 1 <= j:
                    assert d == spec.r[i] + j - 1


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=spec_id)
def test_k_is_y_to_the_delta_of_bottom_and_top(spec):
    # verify_order_complex compares packed keys alone when K * Y^-δ(bottom, top) is 1.
    ctx = make_context(spec)
    k, _ = K_and_N(spec, ctx.table, ctx.yvars)
    exps = {}
    for ys, low, high in zip(ctx.yvars, spec.bottom(), spec.top()):
        exps.update(zip(ys, map(int.__sub__, s_vector(high), s_vector(low))))
    assert k == LaurentPoly.monomial(ctx.table, exps, 1)


GRID_G1 = [(n, r) for n in range(4) for r in range(4) if 0 < n + r <= 3]
GRID_G2 = [((1, 1), (1, 0)), ((1, 0), (0, 2)), ((0, 0), (2, 1))]
GRID = [((n,), (r,)) for n, r in GRID_G1] + GRID_G2
BUILDERS = {"hls": hls, "hls_modified": hls_modified}


@pytest.mark.parametrize("nr", GRID_G1)
@pytest.mark.parametrize("kind", ["hls", "hls_modified"])
def test_reciprocity_grid_g1(nr, kind):
    cert = verify_reciprocity(PosetSpec((nr[0],), (nr[1],)), kind)
    assert cert.equal
    assert (cert.term, cert.expected) == (None, None)


@pytest.mark.parametrize("spec_parts", GRID_G2)
@pytest.mark.parametrize("kind", ["hls", "hls_modified"])
def test_reciprocity_grid_g2(spec_parts, kind):
    cert = verify_reciprocity(PosetSpec(*spec_parts), kind)
    assert cert.equal


def test_reciprocity_degenerate_is_vacuous():
    with pytest.raises(DegenerateSpecError):
        verify_reciprocity(PosetSpec((0,), (0,)))


def with_terms(value, terms):
    """A copy of ``value`` whose packed numerator has ``terms``."""
    return value._replace(terms=terms)


def reciprocity_mutants(value):
    """Copies of ``(value, K, N)``, by name, each breaking the functional equation."""
    k, n = K_and_N(value.spec, value.table, value.yvars)
    ys = value.yvars[0]
    y = LaurentPoly.variable(value.table, ys[1] if len(ys) > 1 else ys[0])
    terms = value.terms
    first, c = next(iter(terms.items()))
    flipped = {**terms, first: -c}
    dropped = {key: c for key, c in terms.items() if key != first}
    return {
        "K times Y[1,1]": (value, k * y, n),
        "N + 1": (value, k, n + 1),
        "K + 1": (value, k + 1, n),
        "a flipped sign": (with_terms(value, flipped), k, n),
        "a dropped term": (with_terms(value, dropped), k, n),
    }


@pytest.mark.parametrize("spec_parts", GRID, ids=str)
@pytest.mark.parametrize("kind", ["hls", "hls_modified"])
def test_packed_reciprocity_matches_the_oracle_and_fails_every_mutant(spec_parts, kind):
    value = BUILDERS[kind](PosetSpec(*spec_parts))
    k, n = K_and_N(value.spec, value.table, value.yvars)
    assert check_reciprocity(value, k, n).equal
    assert reference_reciprocity(value, kind)
    # With no element strictly between bottom and top, a numerator term can
    # be its own partner: changing it alone keeps the equation.
    between = len(make_context(value.spec).x_elements) > 1
    for name, (mutant, k2, n2) in reciprocity_mutants(value).items():
        cert = check_reciprocity(mutant, k2, n2)
        assert cert.equal == reference_reciprocity(mutant, kind, k2, n2), name
        if between or name in ("K times Y[1,1]", "N + 1", "K + 1"):
            assert not cert.equal and cert.term and cert.expected, name


@pytest.mark.parametrize("spec_parts", GRID, ids=str)
def test_packed_relation_matches_the_oracle_and_fails_every_mutant(spec_parts):
    spec = PosetSpec(*spec_parts)
    h, hm = hls(spec), hls_modified(spec)
    assert relation_check(spec) and reference_relation(h, hm)
    top = 1 << len(h.denominator_vars) - 1
    first, c = next((key, c) for key, c in h.terms.items() if not key & top)
    dropped = {key: c for key, c in h.terms.items() if key != first}
    moved = {**dropped, first | top: c}
    for terms in (dropped, moved):
        mutant = with_terms(h, terms)
        assert not mutant.equals_open(hm)
        assert not reference_relation(mutant, hm)
    # The same keys under other fields, here one per variable, are another numerator.
    assert not h.equals_open(hm._replace(codec=Codec([1] * len(hm.table))))


def test_certificate_names_a_term_and_its_expected_partner():
    value = hls(PosetSpec((1,), (2,)))
    k, n = K_and_N(value.spec, value.table, value.yvars)
    assert n == 3
    y = LaurentPoly.variable(value.table, value.table.id("Y[1,1]"))
    cert = check_reciprocity(value, k * y, n)
    # The term 1 is first in print order; its partner carries K's extra Y[1,1].
    partner = "Y[1,0]*Y[1,1]^3*X{0}*X{0^2}*X{1}*X{0 1}"
    assert cert == (value.spec, "hls", 3, False, "1", partner)
    assert check_reciprocity(value, k, n + 1).expected == "-" + partner.replace("^3", "^2")
    reason = "none: K = 1 + Y[1,0]*Y[1,1]^2 is not a monomial of coefficient 1"
    assert check_reciprocity(value, k + 1, n).expected == reason
    y0 = LaurentPoly.variable(value.table, value.table.id("Y[1,0]"))
    assert check_reciprocity(value, k * y0**2, n)[4:] == ("1", "none: no term can carry Y[1,0]^3")
    # Past K: a term of Y[1,0] has no partner once K lacks Y[1,0].
    y1_squared = LaurentPoly.monomial(value.table, {value.table.id("Y[1,1]"): 2}, 1)
    terms = value.terms
    with_y0 = with_terms(value, {key: c for key, c in terms.items() if "Y[1,0]" in text_of(value, key)})
    cert = check_reciprocity(with_y0, y1_squared, n)
    assert cert.expected == "none: no term can carry Y[1,0]^-1"
    # A term with the top bit has no partner in X_top times the numerator.
    top = 1 << len(value.denominator_vars) - 1
    moved = with_terms(value, {key | top: c for key, c in terms.items()})
    assert check_reciprocity(moved, k, n).expected == "none: the term has X{0^2 1}"
    assert not reference_reciprocity(moved, "hls")


def test_check_reciprocity_of_a_degenerate_value_is_vacuous():
    # A value of bottom = top is vacuous of either kind; the open one of a
    # spec with nothing strictly between bottom and top has no denominator
    # factor either, and is checked.
    spec = PosetSpec((0,), (0,))
    for build in (hls, hls_modified):
        with pytest.raises(DegenerateSpecError, match="reciprocity statement is vacuous"):
            check_reciprocity(build(spec), *K_and_N(spec))
    spec = PosetSpec((0,), (1,))
    assert hls_modified(spec).denominator_vars == ()
    cert = check_reciprocity(hls_modified(spec), *K_and_N(spec))
    assert (cert.kind, cert.equal) == ("hls_modified", True)
    assert verify_reciprocity(spec, "hls_modified") == cert


@pytest.mark.parametrize("kind", ["hls", "hls_modified"])
@pytest.mark.parametrize("cap", ["max_elements", "max_chains", "max_terms"])
def test_verify_reciprocity_of_a_degenerate_spec_is_vacuous_before_any_cap(kind, cap):
    # Built, the one element and the one chain would pass a cap of 0 first.
    with pytest.raises(DegenerateSpecError, match="reciprocity statement is vacuous"):
        verify_reciprocity(PosetSpec((0,), (0,)), kind, **{cap: 0})


def kinded_values():
    """``(kind, value, K, N)`` for series values of a known kind, ``"hls"`` if half-open."""
    for parts in GRID:
        spec = PosetSpec(*parts)
        for kind, build in BUILDERS.items():
            value = build(spec)
            yield kind, value, *K_and_N(spec, value.table, value.yvars)
    for r in (1, 3):
        value = classical_igusa(r)
        k = LaurentPoly.monomial(value.table, {value.yvars[0][0]: r * (r - 1) // 2}, 1)
        yield "hls", value, k, r
    for rv in ((2,), (2, 1)):
        value = generalized_igusa(rv)
        yield "hls", value, *K_and_N(value.spec, value.table, value.yvars)
    for n in (2, 3):
        value = mv_hls(n)
        yield "hls", value, *K_and_N(value.spec, value.table, value.yvars)
    for g in (1, 3):
        value = weak_order_igusa(g)
        yield "hls", value, LaurentPoly.const(value.table, 1), g


def test_check_reciprocity_reads_the_kind_off_the_value():
    # The certificate is the one of the packed check at the value's own kind,
    # passing or not: on each value, at N + 1 and with a term's sign flipped.
    for kind, value, k, n in kinded_values():
        first, c = next(iter(value.terms.items()))
        flipped = with_terms(value, {**value.terms, first: -c})
        for v, n2 in ((value, n), (value, n + 1), (flipped, n)):
            failure = v.reciprocity_failure(k, n2, kind == "hls")
            want = (v.spec, kind, n2, failure is None, *(failure or (None, None)))
            assert check_reciprocity(v, k, n2) == want, (kind, v.spec, n2)


@pytest.mark.parametrize("spec_parts", [((1,), (2,)), ((2,), (1,)), ((1, 1), (1, 0))], ids=str)
def test_the_other_kind_fails_where_the_value_s_own_passes(spec_parts):
    # Why the kind is read off the value: a caller naming the wrong one got
    # a false failure.
    spec = PosetSpec(*spec_parts)
    for kind, build in BUILDERS.items():
        value = build(spec)
        k, n = K_and_N(spec, value.table, value.yvars)
        assert check_reciprocity(value, k, n)[1:4] == (kind, n, True)
        assert value.reciprocity_failure(k, n, kind != "hls") is not None


def text_of(value, key):
    """The text of the one term of ``value``'s packed numerator at ``key``."""
    return with_terms(value, {key: value.terms[key]}).numerator_text()


def test_classical_igusa_reciprocity_corollary():
    # I_r at inverted variables equals (-1)^r X_r Y^(-C(r,2)) I_r, checked in
    # cleared form on the subset-sum construction itself, on keys and by the
    # oracle.
    for r in range(1, 7):
        value = classical_igusa(r)
        k = LaurentPoly.monomial(value.table, {value.yvars[0][0]: r * (r - 1) // 2}, 1)
        assert check_reciprocity(value, k, r).equal
        assert reference_reciprocity(value, "hls", k, r)


def test_mv_hls_reciprocity_corollary():
    # The univariate specialization satisfies the original functional
    # equation with K = Y^C(n,2) and sign (-1)^n.  Collapsing Y[1,j] to
    # Y[1,1] leaves the packed keys, so only the oracle checks it.
    for n in (2, 3):
        spec = PosetSpec((n,), (0,))
        ctx = make_context(spec)
        value = mv_hls(n)
        ys = ctx.yvars[0][1:]
        collapse = {v: LaurentPoly.variable(ctx.table, ys[0]) for v in ys[1:]}
        collapsed = value.numerator.subs(collapse)
        k = LaurentPoly.monomial(ctx.table, {ys[0]: n * (n - 1) // 2}, 1)
        assert reference_reciprocity(value, "hls", k, n, collapsed)


def test_generalized_igusa_reciprocity_corollary():
    for rv in ((2,), (2, 1), (3, 2)):
        spec = PosetSpec(tuple(0 for _ in rv), rv)
        value = generalized_igusa(rv)
        k, n = K_and_N(spec, value.table, value.yvars)
        assert check_reciprocity(value, k, n).equal
        assert reference_reciprocity(value, "hls", k, n)


def test_weak_order_igusa_reciprocity_corollary():
    # K = 1 and N = g; N = g - 1 and N = g + 1 break it on both routes.
    for g in range(1, 5):
        value = weak_order_igusa(g)
        one = LaurentPoly.const(value.table, 1)
        for n in (g - 1, g, g + 1):
            assert check_reciprocity(value, one, n).equal == (n == g)
            assert reference_reciprocity(value, "hls", one, n) == (n == g)


@pytest.mark.parametrize(
    "spec_parts, subsets",
    [(((1,), (1,)), 4), (((0,), (3,)), 4), (((2,), (1,)), 64)],
)
def test_order_complex_small(spec_parts, subsets):
    report = verify_order_complex(PosetSpec(*spec_parts))
    assert report.subsets_checked == subsets
    assert report.passed


def test_order_complex_respects_cap():
    with pytest.raises(CapExceededError):
        verify_order_complex(PosetSpec((2,), (2,)), max_subsets=16)


@pytest.mark.parametrize("spec_parts", [((2,), (1,)), ((1, 1), (1, 1))], ids=str)
def test_order_complex_counts_chains_before_any_weight(monkeypatch, spec_parts):
    spec = PosetSpec(*spec_parts)
    open_interval = make_context(spec).x_elements[:-1]
    count = len(brute_force_chains(open_interval, len(open_interval)))

    def no_weight(*args):
        raise AssertionError("a pair weight was computed")

    monkeypatch.setattr(verify, "pair_weight", no_weight)
    with pytest.raises(CapExceededError, match=f"^chain enumeration exceeds cap {count - 1}$"):
        verify_order_complex(spec, max_subsets=1 << 14, max_chains=count - 1)
    with pytest.raises(AssertionError, match="a pair weight was computed"):
        verify_order_complex(spec, max_subsets=1 << 14, max_chains=count)
    monkeypatch.undo()
    assert verify_order_complex(spec, max_subsets=1 << 14, max_chains=count).passed


@pytest.mark.parametrize("spec_parts", [((2,), (1,)), ((1, 1), (1, 1))], ids=str)
def test_zeta_rows_count_products_before_any_weight(monkeypatch, spec_parts):
    spec = PosetSpec(*spec_parts)
    elements = enumerate_elements(spec)
    count = sum(leq_t(a, c) and leq_t(c, b) for a in elements for c in elements for b in elements)

    def no_weight(*args):
        raise AssertionError("a pair weight was computed")

    monkeypatch.setattr(verify, "pair_weight", no_weight)
    with pytest.raises(CapExceededError, match=f"^{count} triples .* the cap {count - 1} "):
        zeta_rows(spec, max_products=count - 1)
    with pytest.raises(AssertionError, match="a pair weight was computed"):
        zeta_rows(spec, max_products=count)


@pytest.mark.parametrize("spec_parts", [((2,), (1,)), ((1, 1), (1, 1))], ids=str)
def test_mobius_via_chains_counts_chains_before_any_weight(monkeypatch, spec_parts):
    spec = PosetSpec(*spec_parts)
    a, b = spec.bottom(), spec.top()
    between = [c for c in enumerate_elements(spec) if lt_t(a, c) and lt_t(c, b)]
    count = len(brute_force_chains(between, len(between)))
    want = mobius_via_chains(spec, a, b)

    def no_weight(*args):
        raise AssertionError("a pair weight was computed")

    monkeypatch.setattr(verify, "pair_weight", no_weight)
    monkeypatch.setattr(poset, "DEFAULT_MAX_CHAINS", count - 1)
    with pytest.raises(CapExceededError, match=f"^chain enumeration exceeds cap {count - 1}$"):
        mobius_via_chains(spec, a, b)
    monkeypatch.setattr(poset, "DEFAULT_MAX_CHAINS", count)
    with pytest.raises(AssertionError, match="a pair weight was computed"):
        mobius_via_chains(spec, a, b)
    monkeypatch.setattr(verify, "pair_weight", pair_weight)
    assert mobius_via_chains(spec, a, b) == want


def test_order_complex_degenerate_is_vacuous():
    with pytest.raises(DegenerateSpecError):
        verify_order_complex(PosetSpec((0, 0), (0, 0)))


ORACLE_SPECS = [
    ((1,), (1,)),
    ((0,), (3,)),
    ((2,), (1,)),
    ((2,), (2,)),
    ((0, 1), (2, 1)),
    ((1, 1), (1, 1)),
]


# The SMALL_SPECS whose open interval, all elements but bottom and top,
# has at most 12 elements, unless ORACLE_SPECS has them.
SMALL_ORACLE_SPECS = [
    (spec.n, spec.r)
    for spec in SMALL_SPECS
    if (spec.n, spec.r) not in ORACLE_SPECS and len(enumerate_elements(spec)) - 2 <= 12
]


@pytest.mark.parametrize("spec_parts", ORACLE_SPECS + SMALL_ORACLE_SPECS, ids=str)
def test_order_complex_matches_per_subset_oracle(spec_parts):
    spec = PosetSpec(*spec_parts)
    got = verify_order_complex(spec, max_subsets=1 << 14)
    want = reference_order_complex(spec, max_subsets=1 << 14)
    assert got.passed and want.passed
    assert (got.subsets_checked, got.failures) == (want.subsets_checked, want.failures)


@pytest.mark.parametrize("spec_parts", ORACLE_SPECS + SMALL_ORACLE_SPECS + [((3,), (2,))], ids=str)
def test_certificate_holds_exactly_when_no_face_fails(spec_parts):
    # Every identity here is true; the pair-weight mutants below make both routes fail.
    spec = PosetSpec(*spec_parts)
    report, witness, failing = order_complex_routes(spec, max_subsets=1 << 22)
    elements = enumerate_elements(spec)
    pairs = sum(lt_t(a, b) for a in elements for b in elements)
    assert (witness, failing) == (None, [])
    assert report == (spec, 1 << len(elements) - 2, (), "pairs", pairs, None)


@pytest.mark.parametrize("spec_parts", [((6,), (1,)), ((5,), (2,)), ((2, 2), (2, 2))], ids=str)
def test_a_passing_certificate_walks_no_face(monkeypatch, spec_parts):
    # 2.8 x 10^13, 3.0 x 10^12 and 3.2 x 10^9 chains: no face walk would finish.
    def no_walk(*args):
        raise AssertionError("a face was walked")

    monkeypatch.setattr(verify, "chain_weights", no_walk)
    report = verify_order_complex(PosetSpec(*spec_parts), max_subsets=1 << 150, max_chains=10**20)
    assert (report.passed, report.method, report.witness) == (True, "pairs", None)


def _drop_last_term(w):
    return LaurentPoly(w.table, dict(sorted(w.terms.items())[:-1]))


PAIR_WEIGHT_CHANGES = (lambda w: -w, lambda w: 2 * w, _drop_last_term)


@pytest.mark.parametrize(
    "spec_parts", [((1,), (2,)), ((2,), (2,)), ((3,), (1,)), ((2, 1), (1, 0))], ids=str
)
def test_certificate_and_walk_agree_on_pair_weight_mutants(spec_parts):
    # Each mutant negates one strict pair's weight, doubles it or drops its
    # last term, its largest monomial.  The per-subset oracle takes 0.2 s on (2),(2) and 10 s on
    # (3),(1), so past (1),(2) each pair takes one change, in turn, and the
    # failing faces are the walk's alone.
    spec = PosetSpec(*spec_parts)
    elements = enumerate_elements(spec)
    small = len(elements) <= 6
    pairs = [(a, b) for a in elements for b in elements if lt_t(a, b)]
    for i, pair in enumerate(pairs):
        for change in PAIR_WEIGHT_CHANGES if small else PAIR_WEIGHT_CHANGES[i % 3 : i % 3 + 1]:

            def changed(a, b, yvars, table):
                w = pair_weight(a, b, yvars, table)
                return change(w) if (a, b) == pair else w

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(weight, "pair_weight", changed)
                mp.setattr(verify, "pair_weight", changed)
                report, witness, failing = order_complex_routes(spec, max_subsets=1 << 14)
                if small:
                    assert report.failures == reference_order_complex(spec).failures
            assert (witness is None) == (not failing) == report.passed
            assert (report.method, report.witness is None) == (
                ("pairs", True) if witness is None else ("faces", False)
            )


# The pair whose weight changes: the bottom and top, whose weight is the
# empty chain's alone; the bottom and the first element of the open
# interval; and that element and the next one above it.
@pytest.mark.parametrize("victim", ["bottom-top", "bottom-first", "first-next"])
@pytest.mark.parametrize("change", [lambda w: 0 * w, lambda w: -w], ids=["zeroed", "negated"])
@pytest.mark.parametrize("spec_parts", [((2,), (1,)), ((0, 1), (2, 1))], ids=str)
def test_order_complex_fails_with_one_pair_weight_changed(monkeypatch, spec_parts, change, victim):
    spec = PosetSpec(*spec_parts)
    first, *rest = make_context(spec).x_elements[:-1]
    pair = {
        "bottom-top": (spec.bottom(), spec.top()),
        "bottom-first": (spec.bottom(), first),
        "first-next": (first, next(e for e in rest if lt_t(first, e))),
    }[victim]

    def changed(a, b, yvars, table):
        w = pair_weight(a, b, yvars, table)
        return change(w) if (a, b) == pair else w

    # The chain weights of the oracle and the pair weights of the walk.
    monkeypatch.setattr(weight, "pair_weight", changed)
    monkeypatch.setattr(verify, "pair_weight", changed)
    got = verify_order_complex(spec)
    want = reference_order_complex(spec)
    assert want.failures
    assert (got.subsets_checked, got.failures) == (want.subsets_checked, want.failures)


def _negated_k(spec, table=None, yvars=None):
    k, n_value = K_and_N(spec, table, yvars)
    return -k, n_value


def _k_times_y(spec, table=None, yvars=None):
    k, n_value = K_and_N(spec, table, yvars)
    return k * LaurentPoly.variable(k.table, yvars[0][0]), n_value


def _k_plus_one(spec, table=None, yvars=None):
    # Not a monomial: the packing bound must not assume one.
    k, n_value = K_and_N(spec, table, yvars)
    return k + 1, n_value


@pytest.mark.parametrize("wrong_k", [_negated_k, _k_times_y, _k_plus_one])
@pytest.mark.parametrize("spec_parts", [((1,), (1,)), ((2,), (1,)), ((0, 1), (2, 1))], ids=str)
def test_order_complex_failures_match_oracle(monkeypatch, spec_parts, wrong_k):
    # No true instance fails, so both routes are fed the same wrong K.
    monkeypatch.setattr(verify, "K_and_N", wrong_k)
    spec = PosetSpec(*spec_parts)
    got = verify_order_complex(spec)
    want = reference_order_complex(spec)
    assert want.failures
    assert not got.passed
    assert (got.subsets_checked, got.failures) == (want.subsets_checked, want.failures)
    # K enters only the pairs at the top, and the bottom's is the first of them.
    bottom_top = (render_element(spec.bottom()), render_element(spec.top()))
    assert (got.method, got.witness) == ("faces", bottom_top)


def test_zeta_rows_count_matches_matmul_operands():
    # One triple per pair of nonzero factors that matmul multiplies.
    for spec in (PosetSpec((2,), (2,)), PosetSpec((1, 1), (1, 0))):
        z, mu = zeta_matrix(spec), mobius_matrix(spec)
        m = z.dim
        nonzero = sum(
            1
            for i in range(m)
            for k in range(m)
            for j in range(m)
            if not z.entries[i][k].is_zero() and not mu.entries[k][j].is_zero()
        )
        assert zeta_rows(spec, max_products=nonzero).view().entries == z.entries
        with pytest.raises(CapExceededError, match=f"^{nonzero} triples "):
            zeta_rows(spec, max_products=nonzero - 1)


@pytest.mark.parametrize("n, triples", [(4, 34_496), (5, 237_952), (6, 1_664_000)])
def test_zeta_rows_count_reference_values(n, triples):
    spec = PosetSpec((n,), (3,))
    assert len(zeta_rows(spec, max_products=triples).rows) == len(enumerate_elements(spec))
    with pytest.raises(CapExceededError, match=f"exceed the cap {triples - 1} "):
        zeta_rows(spec, max_products=triples - 1)


@pytest.mark.parametrize("build", [zeta_matrix, mobius_matrix], ids=lambda f: f.__name__)
def test_zeta_and_mobius_matrices_stop_at_the_default_product_cap(build):
    # (6),(3) has 1,664,000 triples; a lifted cap is zeta_rows(..., max_products=N).view().
    with pytest.raises(
        CapExceededError,
        match=r"^1004886 triples i <= k <= j exceed the cap 1000000 \(counted 185 of 256 rows\)$",
    ):
        build(PosetSpec((6,), (3,)))

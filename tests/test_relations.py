"""Pair sets, congruence axioms, DSC decisions and witnesses."""

import pytest

from sgdsc import finite, relations

import constructions


def test_axiom_report_names_the_first_product_outside_a_preorder():
    # rho is a preorder, and (0,2)·(1,1) = (0,1) leaves it: row 0 = {0, 2}
    # times the generator 1 is {0, 1}, outside row 0·1 = row 0, so
    # _preorder_closed fails and the double loop names the product
    s = finite.validate_cayley(3, [[0, 0, 0], [0, 0, 0], [0, 1, 2]])
    rho = relations.PairSet.from_pairs(s, [(0, 0), (0, 2), (1, 1), (2, 2)])
    rep = relations.axiom_report(s, rho)
    assert not rep.is_subsemigroup and rep.violations["is_subsemigroup"] == (0, 2, 1, 1)


@pytest.mark.parametrize("side", ["right", "left"])
def test_axiom_report_tests_a_preorder_on_both_sides(side):
    # the cosets of a subgroup H of order 2 in S3, which is not normal: x ~ y
    # when Hx = Hy is closed under right multiplication only, xH = yH under
    # left multiplication only
    s = constructions.symmetric_group_3()
    t, n = s.table, s.order
    h = [0, next(x for x in range(1, n) if t[x][x] == 0)]  # element 0 is the identity
    coset = [frozenset(t[k][x] if side == "right" else t[x][k] for k in h) for x in range(n)]
    rho = relations.PairSet.from_pairs(
        s, [(x, y) for x in range(n) for y in range(n) if coset[x] == coset[y]])
    closed_on_the_right = all((t[x][g], t[y][g]) in rho for (x, y) in rho for g in range(n))
    assert closed_on_the_right == (side == "right")
    rep = relations.axiom_report(s, rho)
    assert rep.is_symmetric and rep.is_transitive and not rep.is_subsemigroup


def test_axiom_report_diagonal_and_full():
    s = finite.cyclic_group(3)
    assert relations.axiom_report(
        s, relations.PairSet.from_pairs(s, [(x, x) for x in range(3)])).is_congruence
    full = [(x, y) for x in range(3) for y in range(3)]
    assert relations.axiom_report(
        s, relations.PairSet.from_pairs(s, full)).is_congruence


@pytest.mark.parametrize("built_on, checked_on", [(4, 2), (2, 4)])
def test_axiom_report_rejects_a_relation_on_another_order(built_on, checked_on):
    rho = relations.PairSet.from_pairs(finite.cyclic_group(built_on),
                                       [(x, (x + 1) % built_on) for x in range(built_on)])
    with pytest.raises(finite.SemigroupError,
                       match=f"order {built_on} checked on order {checked_on}"):
        relations.axiom_report(finite.cyclic_group(checked_on), rho)


def test_axiom_report_left_zero_example():
    lz = constructions.left_zero(2)
    ps = relations.PairSet.from_pairs(lz, {(0, 0), (0, 1), (1, 1)})
    rep = relations.axiom_report(lz, ps)
    assert rep.is_subsemigroup and not rep.is_symmetric
    assert rep.violations["is_symmetric"] == (0, 1)
    assert not rep.is_congruence


def test_brute_force_left_zero():
    ok, witness = relations.brute_force_is_dsc(constructions.left_zero(2))
    assert not ok
    assert frozenset(witness) == frozenset({(0, 0), (0, 1), (1, 1)})


def test_brute_force_c2():
    assert relations.brute_force_is_dsc(finite.cyclic_group(2)) == (True, None)


def test_brute_force_semilattice():
    ok, witness = relations.brute_force_is_dsc(constructions.min_semilattice())
    assert not ok
    assert (0, 1) in frozenset(witness) and (1, 0) not in frozenset(witness)


def test_brute_force_too_large():
    with pytest.raises(finite.TooLarge):
        relations.brute_force_is_dsc(finite.cyclic_group(5))


def test_brute_force_agrees_with_is_dsc_fast_on_order_4():
    # the theorem on every labeled table of order 4; a witness is checked
    # by plain loops: it contains the diagonal, is closed and is not a congruence
    for s in finite.enumerate_semigroups(4):
        ok, witness = relations.brute_force_is_dsc(s)
        assert ok == relations.is_dsc_fast(s)
        if ok:
            assert witness is None
            continue
        t, rho = s.table, frozenset(witness)
        assert all((x, x) in rho for x in range(4))
        assert all((t[x][z], t[y][w]) in rho for (x, y) in rho for (z, w) in rho)
        assert any((y, x) not in rho for (x, y) in rho) or \
            any((x, w) not in rho for (x, y) in rho for (z, w) in rho if y == z)


def test_is_dsc_fast():
    assert relations.is_dsc_fast(finite.cyclic_group(6))
    assert not relations.is_dsc_fast(constructions.left_zero(2))
    assert not relations.is_dsc_fast(constructions.generate_symmetric_inverse(2))


def test_witness_ideal_strategy():
    ps, failing, strategy = relations.witness_non_dsc(constructions.min_semilattice())
    assert strategy == "ideal"
    assert failing == (0, 1)
    assert frozenset(ps) == frozenset({(0, 0), (0, 1), (1, 1)})


def test_witness_rees_r_strategy():
    ps, failing, strategy = relations.witness_non_dsc(constructions.left_zero(2))
    assert strategy == "rees-R"
    assert failing == (0, 1)
    assert frozenset(ps) == frozenset({(0, 0), (0, 1), (1, 1)})


def test_witness_rees_l_strategy():
    spec = constructions.ReesSpec(finite.cyclic_group(2), 1, 2, ((0,), (0,)))
    ps, failing, strategy = relations.witness_non_dsc(constructions.rees_matrix(spec))
    assert strategy == "rees-L"
    assert (failing[1], failing[0]) not in frozenset(ps)


# the chain, the null semigroup and C2 with a zero adjoined each have a proper
# ideal, which decides both the group test and the witness
_NON_SIMPLE = {
    "chain8": [[min(i, j) for j in range(8)] for i in range(8)],
    "null8": [[0] * 8 for _ in range(8)],
    "C2^0": [[0, 1, 2], [1, 0, 2], [2, 2, 2]],
}


@pytest.mark.parametrize("rows", _NON_SIMPLE.values(), ids=list(_NON_SIMPLE))
def test_non_simple_tables_never_compute_greens_classes(rows):
    s = finite.validate_cayley(len(rows), rows)
    assert not finite.is_group(s)
    assert "_greens" not in vars(s)
    _, _, strategy = relations.witness_non_dsc(s)
    assert strategy == "ideal"
    assert "_greens" not in vars(s)


def test_witness_rejects_groups():
    with pytest.raises(relations.IsGroup):
        relations.witness_non_dsc(constructions.klein_four())


def test_witness_json_shape():
    ps, failing, strategy = relations.witness_non_dsc(constructions.left_zero(2))
    doc = relations.witness_json(ps, failing, strategy)
    assert set(doc) == {"strategy", "pairs", "failing_pair", "axioms"}
    assert doc["failing_pair"] == [0, 1]
    assert doc["axioms"]["is_symmetric"] is False


def test_natural_order_inversion_and_multiplication_closure():
    # on finite inverse semigroups the natural order is a diagonal
    # subsemigroup closed under inversion, and symmetric only for groups
    subjects = [constructions.min_semilattice(), constructions.generate_symmetric_inverse(1),
                constructions.generate_symmetric_inverse(2), finite.cyclic_group(2),
                finite.cyclic_group(4)]
    for s in subjects:
        ps = constructions.natural_partial_order(s)
        rep = relations.axiom_report(s, ps)
        assert rep.contains_diagonal and rep.is_subsemigroup
        inv = {x: finite.inverses_of(s, x)[0] for x in range(s.order)}
        rho = frozenset(ps)
        assert all((inv[x], inv[y]) in rho for (x, y) in rho)
        assert rep.is_symmetric == finite.is_group(s)


def test_count_diagonal_subsemigroups_goldens():
    assert constructions.count_diagonal_subsemigroups(finite.cyclic_group(2)) == 2
    assert constructions.count_diagonal_subsemigroups(finite.cyclic_group(3)) == 2
    assert constructions.count_diagonal_subsemigroups(finite.cyclic_group(4)) == 3
    assert constructions.count_diagonal_subsemigroups(constructions.klein_four()) == 5


def test_pair_set_range_check():
    with pytest.raises(finite.OutOfRange):
        relations.PairSet.from_pairs(finite.cyclic_group(2), {(0, 2)})


@pytest.mark.parametrize("entry", ["from_pairs", "quotient"])
@pytest.mark.parametrize("pair, error", [
    ((0.7, 1), finite.SemigroupError),
    ((0.5, 0.5), finite.SemigroupError),
    ((True, 1), finite.SemigroupError),
    (("1", 2), finite.SemigroupError),
    ((0, 1, 2), finite.SemigroupError),
    (0, finite.SemigroupError),
    ((3, 0), finite.OutOfRange),
    ((0, -1), finite.OutOfRange),
], ids=["float", "floats", "bool", "str", "triple", "not-a-pair", "high", "negative"])
def test_pairs_must_be_two_ints_in_range(entry, pair, error):
    s = finite.cyclic_group(3)
    with pytest.raises(finite.SemigroupError) as exc:
        if entry == "from_pairs":
            relations.PairSet.from_pairs(s, [pair])
        else:
            constructions.quotient(s, [pair])
    assert exc.type is error

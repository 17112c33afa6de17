"""Cayley-table validation, structure predicates, constructions, enumeration."""

import itertools
import json

import pytest

from sgdsc import finite

import constructions


def canonical_form(s):
    """Least table over all relabelings: equal exactly on isomorphic tables."""
    return min(constructions.relabel(s, perm).table
               for perm in itertools.permutations(range(s.order)))


def rescan_semigroups(n):
    """Tables of order n in row-major lexicographic order, by a backtracker that
    re-checks every triple of known cells after each assignment."""
    table = [[-1] * n for _ in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n)]

    def consistent():
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                for c in range(n):
                    bc = table[b][c]
                    if ab < 0 or bc < 0:
                        continue
                    x, y = table[ab][c], table[a][bc]
                    if x >= 0 and y >= 0 and x != y:
                        return False
        return True

    def fill(k):
        if k == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        i, j = cells[k]
        for v in range(n):
            table[i][j] = v
            if consistent():
                yield from fill(k + 1)
        table[i][j] = -1

    return list(fill(0))


def test_validate_left_zero():
    s = finite.validate_cayley(2, [[0, 0], [1, 1]])
    assert s.order == 2 and s.table == ((0, 0), (1, 1))
    assert repr(s) == "FiniteSemigroup(order=2)"  # never the table, at any order


def test_validate_c2():
    s = finite.validate_cayley(2, [[0, 1], [1, 0]])
    assert finite.is_group(s)


def test_validate_rejects_non_associative():
    with pytest.raises(finite.NonAssociative) as exc:
        finite.validate_cayley(2, [[0, 1], [0, 0]])
    assert "(1,0,1)" in str(exc.value)


def test_validate_rejects_out_of_range():
    with pytest.raises(finite.OutOfRange):
        finite.validate_cayley(2, [[0, 2], [1, 0]])


# the first bad entry in row-major order names the error, in one row or across rows
@pytest.mark.parametrize("table, error, message", [
    ([[0, 3, True], [0, 1, 2], [0, 1, 2]], finite.OutOfRange, "table entry 3 out of range"),
    ([[0, True, 3], [0, 1, 2], [0, 1, 2]], finite.SemigroupError,
     "table entry True is not an integer"),
    ([[0, 1, 2], [0, -1, 2], [0, 1, True]], finite.OutOfRange, "table entry -1 out of range"),
    ([[0, 1, 2], [False, 1, 2], [0, 1, 5]], finite.SemigroupError,
     "table entry False is not an integer"),
], ids=["range-then-bool", "bool-then-range", "range-row-before-bool-row",
        "bool-row-before-range-row"])
def test_validate_names_first_bad_entry(table, error, message):
    with pytest.raises(finite.SemigroupError) as exc:
        finite.validate_cayley(3, table)
    assert type(exc.value) is error and str(exc.value) == message


def test_json_roundtrip_and_strict_keys():
    s = constructions.left_zero(2)
    again = finite.from_json(constructions.to_json(s))
    assert again.table == s.table
    named = {"order": 2, "table": [list(r) for r in s.table], "names": ["x", "y"]}
    assert finite.from_json(json.dumps(named)) == again  # names are validated, not kept
    with pytest.raises(finite.SemigroupError):
        finite.from_json(json.dumps(
            {"order": 1, "table": [[0]], "names": ["x"], "extra": 1}))


def test_from_json_caps_order_before_reading_the_table():
    with pytest.raises(finite.TooLarge):
        finite.from_json(json.dumps({"order": finite.MAX_ORDER + 1, "table": []}))
    # at the cap the table itself is checked
    with pytest.raises(finite.SemigroupError, match="dimensions"):
        finite.from_json(json.dumps({"order": finite.MAX_ORDER, "table": []}))


def test_greens_left_zero():
    gd = finite.greens(constructions.left_zero(2))
    # xS1 = {x} so R-classes are singletons; S1x = {x,y} so L is full
    assert gd.r_class[0] != gd.r_class[1]
    assert gd.l_class[0] == gd.l_class[1]


def test_greens_group_single_class():
    gd = finite.greens(finite.cyclic_group(3))
    for cls in (gd.r_class, gd.l_class, gd.j_class, gd.h_class,
                constructions.greens_d(gd)):
        assert len(set(cls)) == 1


def test_greens_semilattice_singletons():
    gd = finite.greens(constructions.min_semilattice())
    for cls in (gd.r_class, gd.l_class, gd.j_class, gd.h_class,
                constructions.greens_d(gd)):
        assert len(set(cls)) == 2


def test_simple_and_proper_ideal():
    assert finite.is_simple(constructions.left_zero(2))
    assert finite.is_simple(finite.cyclic_group(3))
    ms = constructions.min_semilattice()
    assert not finite.is_simple(ms)
    assert finite.proper_ideal(ms) == frozenset({0})


def test_predicates_c2():
    s = finite.cyclic_group(2)
    assert finite.is_group(s)
    assert finite.is_simple(s)
    assert finite.is_inverse(s)


def test_predicates_left_zero():
    s = constructions.left_zero(2)
    assert not finite.is_group(s)
    assert finite.is_simple(s)
    assert not finite.is_inverse(s)
    assert finite.inverses_of(s, 0) == [0, 1]


def test_predicates_semilattice():
    s = constructions.min_semilattice()
    assert not finite.is_group(s)
    assert not finite.is_simple(s)
    assert finite.is_inverse(s)


def test_natural_partial_order_semilattice():
    ps = constructions.natural_partial_order(constructions.min_semilattice())
    assert frozenset(ps) == frozenset({(0, 0), (0, 1), (1, 1)})


def test_natural_partial_order_group_is_diagonal():
    s = finite.cyclic_group(4)
    ps = constructions.natural_partial_order(s)
    assert frozenset(ps) == {(x, x) for x in range(4)}


def test_natural_partial_order_i2():
    i2 = constructions.generate_symmetric_inverse(2)
    ps = constructions.natural_partial_order(i2)
    assert i2.order == 7
    assert len(ps) == 17  # 7 diagonal + 10 strict restrictions
    rho = frozenset(ps)
    assert any((y, x) not in rho for (x, y) in rho)


def test_natural_partial_order_requires_inverse():
    with pytest.raises(constructions.NotInverse):
        constructions.natural_partial_order(constructions.left_zero(2))


def test_rees_matrix_left_zero():
    spec = constructions.ReesSpec(finite.trivial_monoid(), 2, 1, ((0, 0),))
    rm = constructions.rees_matrix(spec)
    assert canonical_form(rm) == canonical_form(constructions.left_zero(2))


def test_rees_matrix_c2():
    spec = constructions.ReesSpec(finite.cyclic_group(2), 1, 1, ((0,),))
    rm = constructions.rees_matrix(spec)
    assert canonical_form(rm) == canonical_form(finite.cyclic_group(2))


def test_rees_matrix_simple_exhaustive_small():
    # every Rees matrix semigroup with |G| <= 2 and I,J <= 2 is simple
    for g in (finite.trivial_monoid(), finite.cyclic_group(2)):
        for i_size in (1, 2):
            for j_size in (1, 2):
                cells = i_size * j_size
                for flat in itertools.product(range(g.order), repeat=cells):
                    p = tuple(tuple(flat[j * i_size + i] for i in range(i_size))
                              for j in range(j_size))
                    rm = constructions.rees_matrix(constructions.ReesSpec(g, i_size, j_size, p))
                    assert finite.is_simple(rm)


def test_sandwich_at_identity_is_same():
    s = finite.cyclic_group(2)
    assert constructions.sandwich(s, finite.identity_index(s)).table == s.table


def test_quotient_c4_by_02():
    c4 = finite.cyclic_group(4)
    sigma = [(x, y) for x in range(4) for y in range(4) if (x - y) % 2 == 0]
    q, class_of = constructions.quotient(c4, sigma)
    assert canonical_form(q) == canonical_form(finite.cyclic_group(2))
    assert class_of == [0, 1, 0, 1]


def test_quotient_by_diagonal_and_full():
    s = finite.cyclic_group(3)
    q, _ = constructions.quotient(s, [(x, x) for x in range(3)])
    assert q.table == s.table
    q, _ = constructions.quotient(s, [(x, y) for x in range(3) for y in range(3)])
    assert q.order == 1


def test_quotient_rejects_non_congruence():
    with pytest.raises(constructions.NotACongruence):
        constructions.quotient(finite.cyclic_group(4), [(0, 2)])  # not symmetric


def test_quotient_class_map_is_homomorphism():
    s = finite.cyclic_group(4)
    sigma = [(x, y) for x in range(4) for y in range(4) if (x - y) % 2 == 0]
    q, phi = constructions.quotient(s, sigma)
    for x in range(s.order):
        for y in range(s.order):
            assert phi[s.table[x][y]] == q.table[phi[x]][phi[y]]


def test_enumerate_counts_small():
    assert sum(1 for _ in finite.enumerate_semigroups(1)) == 1
    assert sum(1 for _ in finite.enumerate_semigroups(2)) == 8


def test_enumerate_too_large():
    with pytest.raises(finite.TooLarge):
        list(finite.enumerate_semigroups(6))
    with pytest.raises(finite.TooLarge):
        finite.count_semigroups(6)


@pytest.mark.parametrize("n", [0, -1])
def test_enumerate_rejects_order_below_one(n):
    with pytest.raises(finite.SemigroupError, match="positive"):
        list(finite.enumerate_semigroups(n))
    with pytest.raises(finite.SemigroupError, match="positive"):
        finite.count_semigroups(n)


def test_enumerate_no_duplicates_order_3():
    tables = [s.table for s in finite.enumerate_semigroups(3)]
    assert len(tables) == len(set(tables)) == 113


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_matches_rescan_backtracker(n):
    # same tables in the same order as the search without propagation
    assert [s.table for s in finite.enumerate_semigroups(n)] == rescan_semigroups(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_count_semigroups_matches_canonical_forms(n):
    tables = list(finite.enumerate_semigroups(n))
    assert finite.count_semigroups(n) == (len(tables), len(set(map(canonical_form, tables))))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_representatives_match_canonical_forms(n):
    classes = list(finite.semigroup_classes(n))
    perms = list(itertools.permutations(range(n)))
    # one representative per class of the labeled tables
    assert sorted(canonical_form(s) for s, _ in classes) == \
        sorted(set(map(canonical_form, finite.enumerate_semigroups(n))))
    for s, automorphisms in classes:
        images = [constructions.relabel(s, p).table for p in perms]
        assert s.table == min(images)
        assert automorphisms == images.count(s.table)


def test_structural_implications_order_3():
    for s in finite.enumerate_semigroups(3):
        if finite.is_group(s):
            assert finite.is_simple(s)


def test_greens_refinement_order_3():
    for s in finite.enumerate_semigroups(3):
        gd = finite.greens(s)
        for x in range(s.order):
            for y in range(s.order):
                if gd.h_class[x] == gd.h_class[y]:
                    assert gd.r_class[x] == gd.r_class[y]
                    assert gd.l_class[x] == gd.l_class[y]
        assert constructions.greens_d(gd) == gd.j_class


def test_symmetric_inverse_monoids():
    i1 = constructions.generate_symmetric_inverse(1)
    assert i1.order == 2
    i2 = constructions.generate_symmetric_inverse(2)
    assert i2.order == 7
    for s in (i1, i2):
        assert finite.is_inverse(s)
        assert not finite.is_group(s)
    with pytest.raises(finite.TooLarge):
        constructions.generate_symmetric_inverse(4)


def test_direct_product_klein():
    c2 = finite.cyclic_group(2)
    prod = constructions.direct_product(c2, c2)
    assert canonical_form(prod) == canonical_form(constructions.klein_four())

"""Property tests: the generator-based finite engine against plain-loop oracles.

Each oracle below is the direct definition, written out here with no library
calls: the n^3 associativity scan, principal ideals {x} ∪ xS ∪ Sx ∪ SxS, the
four congruence axioms as double loops over the sorted pairs, closures as
fixpoints of those loops, diagonal subsemigroups by scanning every subset
of off-diagonal pairs, groups and inverse semigroups by their defining
identities and inverses, and greedy generating sets by growing each
subsemigroup to a fixpoint.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from sgdsc import finite, relations

# ---------------------------------------------------------------------------
# Oracles


def first_non_associative(table):
    n = len(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return (i, j, k)
    return None


def numbered(keys):
    ids = {}
    return tuple(ids.setdefault(k, len(ids)) for k in keys)


def principal_ideals(s):
    """(xS^1, S^1x, S^1xS^1) for every x, by definition."""
    t, n = s.table, s.order
    right = [frozenset({x} | {t[x][a] for a in range(n)}) for x in range(n)]
    left = [frozenset({x} | {t[a][x] for a in range(n)}) for x in range(n)]
    both = [right[x] | left[x] | {t[t[a][x]][b] for a in range(n) for b in range(n)}
            for x in range(n)]
    return right, left, both


def smallest_proper_ideal(s):
    ideals = [i for i in principal_ideals(s)[2] if len(i) < s.order]
    return min(ideals, key=len) if ideals else None


def axiom_oracle(s, pairs):
    t = s.table
    srt = sorted(pairs)
    flags, violations = {}, {}
    miss = [(x, x) for x in range(s.order) if (x, x) not in pairs]
    flags["contains_diagonal"] = not miss
    if miss:
        violations["contains_diagonal"] = miss[0]
    bad = [(x, y, z, w) for (x, y) in srt for (z, w) in srt
           if (t[x][z], t[y][w]) not in pairs]
    flags["is_subsemigroup"] = not bad
    if bad:
        violations["is_subsemigroup"] = bad[0]
    asym = [(x, y) for (x, y) in srt if (y, x) not in pairs]
    flags["is_symmetric"] = not asym
    if asym:
        violations["is_symmetric"] = asym[0]
    intrans = [(x, y, z) for (x, y) in srt for (y2, z) in srt
               if y2 == y and (x, z) not in pairs]
    flags["is_transitive"] = not intrans
    if intrans:
        violations["is_transitive"] = intrans[0]
    return flags, violations


def closure_oracle(s, pairs):
    """Least subsemigroup of S x S containing the diagonal and the pairs:
    each round multiplies the newest pairs by every pair on both sides."""
    t = s.table
    cur = {(x, x) for x in range(s.order)} | set(pairs)
    frontier = list(cur)
    while frontier:
        nxt = []
        for (x, y) in frontier:
            for (z, w) in list(cur):
                for p in ((t[x][z], t[y][w]), (t[z][x], t[w][y])):
                    if p not in cur:
                        cur.add(p)
                        nxt.append(p)
        frontier = nxt
    return cur


def congruence_oracle(s, pairs):
    """Least congruence containing the pairs: symmetric, transitive and
    compatible steps repeated until none adds a pair."""
    t = s.table
    cur = {(x, x) for x in range(s.order)} | set(pairs)
    while True:
        new = {(y, x) for (x, y) in cur}
        new |= {(x, z) for (x, y) in cur for (y2, z) in cur if y2 == y}
        new |= {(t[x][z], t[y][w]) for (x, y) in cur for (z, w) in cur}
        if new <= cur:
            return cur
        cur |= new


def diagonal_subsemigroups(s):
    """Every closed superset of the diagonal, in the order of a counter over
    the off-diagonal pairs in lexicographic order, the first the lowest bit."""
    n, t = s.order, s.table
    off = [(x, y) for x in range(n) for y in range(n) if x != y]
    for m in range(1 << len(off)):
        rho = {(x, x) for x in range(n)} | {p for i, p in enumerate(off) if m >> i & 1}
        if all((t[x][z], t[y][w]) in rho for (x, y) in rho for (z, w) in rho):
            yield rho


def group_oracle(s):
    """A two-sided identity e, and for every x a y with xy = yx = e."""
    t, n = s.table, s.order
    ids = [e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))]
    return bool(ids) and all(any(t[x][y] == ids[0] == t[y][x] for y in range(n))
                             for x in range(n))


def inverse_oracle(s):
    """Every x has exactly one y with xyx = x and yxy = y."""
    t, n = s.table, s.order
    return all(sum(1 for y in range(n) if t[t[x][y]][x] == x and t[t[y][x]][y] == y) == 1
               for x in range(n))


def generators_oracle(s):
    """x is a generator when it is not in the subsemigroup generated by the
    generators before it, that subsemigroup grown as a fixpoint of products."""
    t = s.table
    gens, sub = [], set()
    for x in range(s.order):
        if x in sub:
            continue
        gens.append(x)
        sub.add(x)
        while True:
            new = {t[a][b] for a in sub for b in sub} - sub
            if not new:
                break
            sub |= new
    return gens


def is_equivalence(rho):
    return all((y, x) in rho for (x, y) in rho) and \
        all((x, w) in rho for (x, y) in rho for (z, w) in rho if y == z)


# ---------------------------------------------------------------------------
# Strategies


@st.composite
def raw_tables(draw):
    """Any n x n table over 0..n-1 (mostly non-associative), n = 1..6."""
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


def table_semigroup(rows):
    return finite.validate_cayley(len(rows), rows)


def adjoin(s, zero):
    """S with a new zero (zero=True) or a new identity appended as element n."""
    n = s.order
    rows = [list(r) + [n if zero else i] for i, r in enumerate(s.table)]
    rows.append([n] * (n + 1) if zero else list(range(n + 1)))
    return table_semigroup(rows)


BASES = [finite.cyclic_group(k) for k in (1, 2, 3, 4)] + \
    [finite.left_zero(k) for k in (1, 2, 3)] + \
    [table_semigroup([list(range(k))] * k) for k in (2, 3)] + \
    [table_semigroup([[min(i, j) for j in range(k)] for i in range(k)]) for k in (2, 3)] + \
    [table_semigroup([[0] * k for _ in range(k)]) for k in (2, 3)] + \
    [finite.symmetric_group_3(), finite.generate_symmetric_inverse(2)]


@st.composite
def rees_matrices(draw):
    k, i_size, j_size = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = st.lists(st.integers(0, k - 1), min_size=i_size, max_size=i_size).map(tuple)
    sandwich = tuple(draw(st.lists(cells, min_size=j_size, max_size=j_size)))
    return finite.rees_matrix(finite.ReesSpec(finite.cyclic_group(k), i_size, j_size, sandwich))


@st.composite
def semigroups(draw, max_order=24):
    """Products, Rees matrices and adjoined zeros/identities, randomly relabeled."""
    s = draw(st.one_of(st.sampled_from(BASES), rees_matrices()))
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(("product", "zero", "identity")))
        if op == "product":
            other = draw(st.sampled_from(BASES))
            if s.order * other.order <= max_order:
                s = finite.direct_product(s, other)
        elif s.order < max_order:
            s = adjoin(s, zero=op == "zero")
    return finite.relabel(s, draw(st.permutations(range(s.order))))


@functools.cache
def order_4_tables():
    return list(finite.enumerate_semigroups(4))


order_4 = st.integers(0, 3491).map(lambda i: order_4_tables()[i])


@functools.cache
def tables_up_to_4():
    return [s for n in (1, 2, 3) for s in finite.enumerate_semigroups(n)] + order_4_tables()


@st.composite
def constructed(draw):
    """Sandwiches S^a and quotients S/theta of tables of order <= 4, theta the
    congruence generated by up to three random pairs; one or two steps."""
    s = draw(st.sampled_from(tables_up_to_4()))
    for _ in range(draw(st.integers(1, 2))):
        element = st.integers(0, s.order - 1)
        if draw(st.booleans()):
            s = finite.sandwich(s, draw(element))
        else:
            pairs = draw(st.sets(st.tuples(element, element), max_size=3))
            s, _ = finite.quotient(s, relations.congruence_generated(s, pairs).pairs)
    return s


@st.composite
def with_pairs(draw):
    """A semigroup of order <= 8 and up to four pairs on it."""
    s = draw(semigroups(max_order=8))
    pair = st.tuples(st.integers(0, s.order - 1), st.integers(0, s.order - 1))
    return s, draw(st.sets(pair, max_size=4))


@st.composite
def corrupted(draw):
    """A constructed semigroup with one cell changed: often barely non-associative."""
    s = draw(semigroups(max_order=12))
    rows = [list(r) for r in s.table]
    i, j = draw(st.integers(0, s.order - 1)), draw(st.integers(0, s.order - 1))
    rows[i][j] = draw(st.integers(0, s.order - 1))
    return rows


@st.composite
def relations_on(draw):
    """A semigroup of order <= 8 and a relation on it: random pair sets (with or
    without the diagonal), diagonal closures and generated congruences."""
    s = draw(semigroups(max_order=8))
    n = s.order
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    some = draw(st.sets(pair, max_size=2 * n))
    kind = draw(st.sampled_from(("raw", "with-diagonal", "closure", "congruence")))
    if kind == "raw":
        pairs = some
    elif kind == "with-diagonal":
        pairs = some | {(x, x) for x in range(n)}
    elif kind == "closure":
        pairs = relations.diagonal_closure(s, some).pairs
    else:
        pairs = relations.congruence_generated(s, set(list(some)[:2])).pairs
    return s, relations.PairSet.from_pairs(s, pairs)


# ---------------------------------------------------------------------------
# Properties


def check_validation(rows):
    expected = first_non_associative(rows)
    try:
        finite.validate_cayley(len(rows), rows)
    except finite.NonAssociative as exc:
        assert exc.triple == expected
        assert str(exc) == "associativity fails at triple ({},{},{})".format(*expected)
    else:
        assert expected is None


@settings(max_examples=200, deadline=None)
@given(raw_tables())
def test_light_test_matches_triple_scan_on_random_tables(rows):
    check_validation(rows)


@settings(max_examples=100, deadline=None)
@given(corrupted())
def test_light_test_matches_triple_scan_on_corrupted_semigroups(rows):
    check_validation(rows)


# the edge order of the Cayley graphs, and through it the Green's class ids,
# follows this exact list
@settings(max_examples=100, deadline=None)
@given(semigroups(max_order=8))
def test_greedy_generators_match_oracle(s):
    assert finite.greedy_generators(s.table) == generators_oracle(s)


def test_greedy_generators_match_oracle_orders_1_to_3():
    for n in (1, 2, 3):
        for s in finite.enumerate_semigroups(n):
            assert finite.greedy_generators(s.table) == generators_oracle(s)


@settings(max_examples=100, deadline=None)
@given(semigroups())
def test_greens_classes_are_principal_ideal_classes(s):
    right, left, both = principal_ideals(s)
    gd = finite.greens(s)
    assert gd.r_class == numbered(right)
    assert gd.l_class == numbered(left)
    assert gd.j_class == numbered(both)
    assert gd.h_class == numbered(zip(right, left))
    assert gd.d_class == gd.j_class


@settings(max_examples=100, deadline=None)
@given(semigroups())
def test_proper_ideal_is_brute_force_minimum(s):
    assert finite.proper_ideal(s) == smallest_proper_ideal(s)


@settings(max_examples=150, deadline=None)
@given(relations_on())
def test_axiom_report_matches_double_loops(subject_rho):
    s, rho = subject_rho
    flags, violations = axiom_oracle(s, rho.pairs)
    rep = relations.axiom_report(s, rho)
    assert {k: getattr(rep, k) for k in flags} == flags
    assert rep.violations == violations


@settings(max_examples=100, deadline=None)
@given(semigroups(max_order=16))
def test_witnesses_verify_against_oracle(s):
    if finite.is_group(s):
        return
    ps, failing, _ = relations.witness_non_dsc(s)
    flags, _ = axiom_oracle(s, ps.pairs)
    assert flags["contains_diagonal"] and flags["is_subsemigroup"]
    assert (failing[1], failing[0]) not in ps.pairs


@settings(max_examples=200, deadline=None)
@given(constructed())
def test_constructed_semigroups_match_oracles(s):
    right, left, both = principal_ideals(s)
    gd = finite.greens(s)
    assert (gd.r_class, gd.l_class, gd.j_class) == (numbered(right), numbered(left),
                                                    numbered(both))
    assert gd.h_class == numbered(zip(right, left))
    assert finite.proper_ideal(s) == smallest_proper_ideal(s)
    assert finite.is_group(s) == group_oracle(s)
    assert finite.is_inverse(s) == inverse_oracle(s)
    if not group_oracle(s):
        ps, failing, _ = relations.witness_non_dsc(s)
        flags, _ = axiom_oracle(s, ps.pairs)
        assert flags["contains_diagonal"] and flags["is_subsemigroup"]
        assert not flags["is_symmetric"] and (failing[1], failing[0]) not in ps.pairs


@settings(max_examples=100, deadline=None)
@given(semigroups(max_order=12))
def test_is_inverse_matches_definition(s):
    assert finite.is_inverse(s) == inverse_oracle(s)


def test_is_inverse_and_is_group_match_definitions_orders_1_to_4():
    for s in tables_up_to_4():
        assert finite.is_inverse(s) == inverse_oracle(s)
        assert finite.is_group(s) == group_oracle(s)


def check_subset_scan(s):
    closed = list(diagonal_subsemigroups(s))
    assert relations.count_diagonal_subsemigroups(s) == len(closed)
    first = next((rho for rho in closed if not is_equivalence(rho)), None)
    ok, witness = relations.brute_force_is_dsc(s)
    assert ok == (first is None)
    assert witness is None if ok else witness.pairs == first


def test_closed_set_enumerator_matches_subset_scan():
    tables = [s for n in (1, 2, 3) for s in finite.enumerate_semigroups(n)]
    tables += [s for s in order_4_tables() if finite.is_group(s)]
    for s in tables:
        check_subset_scan(s)


@settings(max_examples=30, deadline=None)
@given(order_4)
def test_closed_set_enumerator_matches_subset_scan_order_4(s):
    check_subset_scan(s)


@settings(max_examples=100, deadline=None)
@given(with_pairs())
def test_diagonal_closure_matches_frontier_loop(subject_pairs):
    s, pairs = subject_pairs
    assert relations.diagonal_closure(s, pairs).pairs == closure_oracle(s, pairs)


@settings(max_examples=100, deadline=None)
@given(with_pairs())
def test_congruence_generated_matches_fixpoint(subject_pairs):
    s, pairs = subject_pairs
    assert relations.congruence_generated(s, pairs).pairs == congruence_oracle(s, pairs)


# each relation also fails every axiom checked after the one named
@pytest.mark.parametrize("pairs, message", [
    ([(0, 1), (1, 2)], "relation is not symmetric"),
    ([(0, 1), (1, 0), (1, 2), (2, 1)], "relation is not transitive"),
    ([(0, 1), (1, 0)], "relation is not compatible"),
], ids=["symmetric", "transitive", "compatible"])
def test_quotient_names_the_failing_axiom(pairs, message):
    with pytest.raises(finite.NotACongruence, match=message):
        finite.quotient(finite.cyclic_group(3), pairs)

"""Property tests: the generator-based finite engine against plain-loop oracles.

Each oracle below is the direct definition, written out here with no library
calls: the n^3 associativity scan, principal ideals {x} ∪ xS ∪ Sx ∪ SxS, the
four congruence axioms as double loops over the sorted pairs, closures as
fixpoints of those loops (the strategies build relations with them),
diagonal subsemigroups by scanning every subset of off-diagonal pairs,
groups and inverse semigroups by their defining identities and inverses,
complete simplicity by a minimal idempotent, and greedy generating sets by
growing each subsemigroup to a fixpoint.
"""

import functools
import operator
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from sgdsc import finite, relations

import constructions

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


def identity_oracle(s):
    """The e with ex = xe = x for every x, or None."""
    t, n = s.table, s.order
    return next((e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))),
                None)


def group_oracle(s):
    """A two-sided identity e, and for every x a y with xy = yx = e."""
    t, n, e = s.table, s.order, identity_oracle(s)
    return e is not None and all(any(t[x][y] == e == t[y][x] for y in range(n))
                                 for x in range(n))


def inverse_oracle(s):
    """Every x has exactly one y with xyx = x and yxy = y."""
    t, n = s.table, s.order
    return all(sum(1 for y in range(n) if t[t[x][y]][x] == x and t[t[y][x]][y] == y) == 1
               for x in range(n))


def completely_simple_oracle(s):
    """Simple, with an idempotent e that no other idempotent f lies under
    (ef = fe = f)."""
    t = s.table
    es = [e for e in range(s.order) if t[e][e] == e]
    simple = all(len(ideal) == s.order for ideal in principal_ideals(s)[2])
    return simple and any(all(not (t[e][f] == f == t[f][e]) for f in es if f != e)
                          for e in es)


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


def preorder_closure(n, pairs):
    """Least reflexive, transitive relation holding the pairs, by Warshall's
    algorithm on row sets."""
    rows = [{x} for x in range(n)]
    for (x, y) in pairs:
        rows[x].add(y)
    for k in range(n):
        for row in rows:
            if k in row:
                row |= rows[k]
    return frozenset((x, y) for x in range(n) for y in rows[x])


def mask_pairs(n, mask):
    return {(p // n, p % n) for p in range(n * n) if mask >> p & 1}


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


BASES = [finite.cyclic_group(k) for k in (1, 2, 3, 4)] + \
    [constructions.left_zero(k) for k in (1, 2, 3)] + \
    [constructions.right_zero(k) for k in (2, 3)] + \
    [finite.validate_cayley(k, [[min(i, j) for j in range(k)] for i in range(k)])
     for k in (2, 3)] + \
    [constructions.null_semigroup(k) for k in (2, 3)] + \
    [constructions.symmetric_group_3(), constructions.generate_symmetric_inverse(2)]


@st.composite
def rees_matrices(draw):
    k, i_size, j_size = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = st.lists(st.integers(0, k - 1), min_size=i_size, max_size=i_size).map(tuple)
    sandwich = tuple(draw(st.lists(cells, min_size=j_size, max_size=j_size)))
    spec = constructions.ReesSpec(finite.cyclic_group(k), i_size, j_size, sandwich)
    return constructions.rees_matrix(spec)


@st.composite
def semigroups(draw, max_order=24):
    """Products, Rees matrices and adjoined zeros/identities, randomly relabeled."""
    s = draw(st.one_of(st.sampled_from(BASES), rees_matrices()))
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(("product", "zero", "identity")))
        if op == "product":
            other = draw(st.sampled_from(BASES))
            if s.order * other.order <= max_order:
                s = constructions.direct_product(s, other)
        elif s.order < max_order:
            s = (constructions.adjoin_zero if op == "zero" else constructions.adjoin_identity)(s)
    return constructions.relabel(s, draw(st.permutations(range(s.order))))


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
            s = constructions.sandwich(s, draw(element))
        else:
            pairs = draw(st.sets(st.tuples(element, element), max_size=3))
            s, _ = constructions.quotient(s, congruence_oracle(s, pairs))
    return s


@st.composite
def corrupted(draw):
    """A constructed semigroup with one cell changed: often barely non-associative."""
    s = draw(semigroups(max_order=12))
    rows = [list(r) for r in s.table]
    i, j = draw(st.integers(0, s.order - 1)), draw(st.integers(0, s.order - 1))
    rows[i][j] = draw(st.integers(0, s.order - 1))
    return rows


@st.composite
def pairs_on(draw):
    """A semigroup of order <= 8 and the pairs of a relation on it: random pair
    sets (with or without the diagonal), diagonal closures, preorders
    (reflexive-transitive closures), generated congruences, and the witness
    of a non-group with one pair added or removed."""
    s = draw(semigroups(max_order=8))
    n = s.order
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    some = draw(st.sets(pair, max_size=2 * n))
    kind = draw(st.sampled_from(
        ("raw", "with-diagonal", "closure", "preorder", "congruence", "witness")))
    if kind == "raw":
        pairs = some
    elif kind == "with-diagonal":
        pairs = some | {(x, x) for x in range(n)}
    elif kind == "closure":
        pairs = frozenset(closure_oracle(s, some))
    elif kind == "preorder":
        pairs = preorder_closure(n, some)
    elif kind == "congruence" or finite.is_group(s):
        pairs = frozenset(congruence_oracle(s, set(list(some)[:2])))
    else:
        pairs = frozenset(relations.witness_non_dsc(s)[0]) ^ {draw(pair)}
    return s, pairs


def relations_on():
    """pairs_on's relation as a PairSet."""
    return pairs_on().map(lambda drawn: (drawn[0], relations.PairSet.from_pairs(*drawn)))


# ---------------------------------------------------------------------------
# Properties


def check_validation(rows):
    expected = first_non_associative(rows)
    n = len(rows)
    table = tuple(map(tuple, rows))
    gens = finite.greedy_generators(table)
    # the row scan on bytes and, with the bound at 0, on gathers, whatever the
    # order; at order 1 an itemgetter of one index returns no tuple, and the
    # library gathers only above order 256
    for bound in (finite._BYTES_MAX_ORDER, 0) if n > 1 else (finite._BYTES_MAX_ORDER,):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(finite, "_BYTES_MAX_ORDER", bound)
            # Light's test over the generators decides; the scan over every
            # element names the first failing (x, g)
            assert (finite._first_non_associative(table, gens) is None) == (expected is None)
            assert finite._first_non_associative(table, range(n)) == (expected and expected[:2])
            try:
                finite.validate_cayley(n, rows)
            except finite.NonAssociative as exc:
                assert exc.triple == expected
                assert str(exc) == "associativity fails at triple ({},{},{})".format(*expected)
            else:
                assert expected is None


@settings(max_examples=200, deadline=None)
@given(raw_tables())
# the only greedy generator is 0, but the first failing triple is (0, 1, 1)
@example([[1, 2, 0], [2, 0, 1], [0, 0, 0]])
def test_light_test_matches_triple_scan_on_random_tables(rows):
    check_validation(rows)


@settings(max_examples=100, deadline=None)
@given(corrupted())
def test_light_test_matches_triple_scan_on_corrupted_semigroups(rows):
    check_validation(rows)


def counted_gathers(monkeypatch):
    """Make each itemgetter that finite builds count its calls; returns the
    list of counts, one entry per getter built."""
    calls = []
    make = operator.itemgetter

    def itemgetter(*items):
        get, i = make(*items), len(calls)
        calls.append(0)

        def counted(obj):
            calls[i] += 1
            return get(obj)
        return counted
    monkeypatch.setattr(finite.operator, "itemgetter", itemgetter)
    return calls


# bytes hold the entries of a table up to order 256; above, rows are gathered
@pytest.mark.parametrize("n, scan", [(256, "bytes"), (257, "gathers")])
def test_light_test_either_side_of_the_bytes_bound(monkeypatch, n, scan):
    gathers = counted_gathers(monkeypatch)
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    assert finite.validate_cayley(n, rows).order == n
    rows[0][1] = 2  # (0·1)·1 = 3 but 0·(1·1) = 2
    with pytest.raises(finite.NonAssociative) as exc:
        finite.validate_cayley(n, rows)
    assert exc.value.triple == first_non_associative(rows) == (0, 1, 1)
    # LZ_n with its last row corrupted: (n-1·1)·0 = 0 but (n-1)·(1·0) = n-1
    rows = [[i] * n for i in range(n)]
    rows[n - 1][0] = 0
    with pytest.raises(finite.NonAssociative) as exc:
        finite.validate_cayley(n, rows)
    assert exc.value.triple == (n - 1, 1, 0)
    assert bool(gathers) == (scan == "gathers")


def test_light_test_gathers_each_distinct_row_once(monkeypatch):
    # RZ_257: x·y = y, so every element is a generator and every row is the
    # same; one distinct row takes one gather per generator, not one per row
    gathers = counted_gathers(monkeypatch)
    n = 257
    assert finite.validate_cayley(n, [list(range(n))] * n).order == n
    assert len(gathers) == n
    assert sum(gathers) == n


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


def test_greedy_generators_memory_follows_the_orbit():
    # RZ_1024: the diagonal orbit reaches 1024 pairs of the 2^20 in S x S, so
    # flags for every pair (1 MiB as bytes) would dominate the peak
    n = 1024
    rows = [tuple(range(n))] * n
    tracemalloc.start()
    try:
        assert finite.greedy_generators(rows) == list(range(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


@settings(max_examples=100, deadline=None)
@given(semigroups())
def test_greens_classes_are_principal_ideal_classes(s):
    right, left, both = principal_ideals(s)
    gd = finite.greens(s)
    assert gd.r_class == numbered(right)
    assert gd.l_class == numbered(left)
    assert gd.j_class == numbered(both)
    assert gd.h_class == numbered(zip(right, left))
    # D = J in a finite semigroup, D the join of R and L built here
    assert constructions.greens_d(gd) == gd.j_class


@settings(max_examples=100, deadline=None)
@given(semigroups())
def test_proper_ideal_is_brute_force_minimum(s):
    assert finite.proper_ideal(s) == smallest_proper_ideal(s)


# 1 and 2 share the row {1, 2, 3}, which is not transitive: (3, 0) is in rho
_SHARED_INTRANSITIVE_ROW = relations.PairSet.from_pairs(
    finite.cyclic_group(4), [(0, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3),
                             (3, 0), (3, 3)])


@settings(max_examples=150, deadline=None)
@given(relations_on())
@example((_SHARED_INTRANSITIVE_ROW.subject, _SHARED_INTRANSITIVE_ROW))
def test_axiom_report_matches_double_loops(subject_rho):
    s, rho = subject_rho
    flags, violations = axiom_oracle(s, frozenset(rho))
    rep = relations.axiom_report(s, rho)
    assert {k: getattr(rep, k) for k in flags} == flags
    assert rep.violations == violations
    # axiom_report tests a preorder's closure per generator, any other's by
    # the double loop that names its first failing product
    if flags["contains_diagonal"] and flags["is_transitive"]:
        assert relations._preorder_closed(s, rho.rows) == flags["is_subsemigroup"]


@settings(max_examples=150, deadline=None)
@given(pairs_on(), st.randoms(use_true_random=False))
def test_pair_set_rows_list_the_pairs_sorted(subject_pairs, rng):
    s, pairs = subject_pairs
    listed = [*pairs, *pairs][:len(pairs) + 3]  # up to three pairs twice
    rng.shuffle(listed)
    ps = relations.PairSet.from_pairs(s, listed)
    distinct = sorted(set(listed))
    assert list(ps) == distinct
    assert ps.sorted_pairs() == [list(p) for p in distinct]
    assert len(ps) == len(distinct)
    # out of range and negative pairs too: rows[-1] would read the last row
    for x in range(-1, s.order + 1):
        for y in range(-1, s.order + 1):
            assert ((x, y) in ps) == ((x, y) in distinct)


@settings(max_examples=100, deadline=None)
@given(semigroups(max_order=16))
def test_witnesses_verify_against_oracle(s):
    if finite.is_group(s):
        return
    ps, failing, _ = relations.witness_non_dsc(s)
    flags, _ = axiom_oracle(s, frozenset(ps))
    assert flags["contains_diagonal"] and flags["is_subsemigroup"]
    assert (failing[1], failing[0]) not in frozenset(ps)


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
    assert finite.is_simple(s) == completely_simple_oracle(s)
    if not group_oracle(s):
        ps, failing, _ = relations.witness_non_dsc(s)
        flags, _ = axiom_oracle(s, frozenset(ps))
        assert flags["contains_diagonal"] and flags["is_subsemigroup"]
        assert not flags["is_symmetric"] and (failing[1], failing[0]) not in frozenset(ps)


@settings(max_examples=100, deadline=None)
@given(semigroups(max_order=12))
def test_is_inverse_matches_definition(s):
    assert finite.is_inverse(s) == inverse_oracle(s)


def test_identity_index_matches_definition_orders_1_to_4():
    for s in tables_up_to_4():
        assert finite.identity_index(s) == identity_oracle(s)


def test_is_inverse_and_is_group_match_definitions_orders_1_to_4():
    for s in tables_up_to_4():
        assert finite.is_inverse(s) == inverse_oracle(s)
        assert finite.is_group(s) == group_oracle(s)


# a finite simple semigroup is completely simple: some power of each element
# is idempotent, and finitely many idempotents have a minimal one (Howie,
# Fundamentals of Semigroup Theory, ch. 3)
def test_is_simple_matches_completely_simple_definition_orders_1_to_4():
    for s in tables_up_to_4():
        assert finite.is_simple(s) == completely_simple_oracle(s)


def check_subset_scan(s):
    closed = list(diagonal_subsemigroups(s))
    # NextClosure lists exactly these, in order, so brute_force_is_dsc tests
    # only symmetry and transitivity on its masks
    assert [mask_pairs(s.order, mask) for mask in relations._closed_masks(s)] == closed
    first = next((rho for rho in closed if not is_equivalence(rho)), None)
    ok, witness = relations.brute_force_is_dsc(s)
    assert ok == (first is None)
    assert witness is None if ok else frozenset(witness) == first


def test_closed_set_enumerator_matches_subset_scan():
    tables = [s for n in (1, 2, 3) for s in finite.enumerate_semigroups(n)]
    tables += [s for s in order_4_tables() if finite.is_group(s)]
    for s in tables:
        check_subset_scan(s)


@settings(max_examples=30, deadline=None)
@given(order_4)
def test_closed_set_enumerator_matches_subset_scan_order_4(s):
    check_subset_scan(s)


def check_one_step_filter(s):
    # the filter skips only candidates NextClosure's closure would reject, so
    # the masks and their order are those of the loop closing every candidate
    assert list(relations._closed_masks(s)) == list(constructions.closed_masks_unfiltered(s))


def test_one_step_filter_keeps_every_closed_mask_on_order_4_classes():
    for s, _ in finite.semigroup_classes(4):
        check_one_step_filter(s)


# orders 8 and 9, above the subset scan's cap
ABOVE_CAP = {
    "C2^3": constructions.xor_group(3),
    "C4xC2": constructions.direct_product(finite.cyclic_group(4), finite.cyclic_group(2)),
    "LZ2xC4": constructions.direct_product(constructions.left_zero(2), finite.cyclic_group(4)),
    "RZ2xC4": constructions.direct_product(constructions.right_zero(2), finite.cyclic_group(4)),
    "chain2xC4": constructions.direct_product(constructions.min_semilattice(),
                                              finite.cyclic_group(4)),
    "C8^0": constructions.adjoin_zero(finite.cyclic_group(8)),
}


@pytest.mark.parametrize("name", ABOVE_CAP)
def test_one_step_filter_keeps_every_closed_mask_above_the_cap(name, monkeypatch):
    monkeypatch.setattr(relations, "SUBSET_SCAN_MAX_ORDER", 9)
    check_one_step_filter(ABOVE_CAP[name])


def relabelings(s):
    return st.permutations(range(s.order)).map(lambda perm: constructions.relabel(s, perm))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(ABOVE_CAP.values())).flatmap(relabelings))
def test_one_step_filter_keeps_every_closed_mask_above_the_cap_relabeled(s):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relations, "SUBSET_SCAN_MAX_ORDER", 9)
        check_one_step_filter(s)


def test_elementary_abelian_groups_list_their_subgroup_counts(monkeypatch):
    # in a finite group G the diagonal subsemigroups are the subgroups of
    # G x G over the diagonal, one for each normal subgroup of G: for C2^3
    # and C2^4 their 16 and 67 subgroups (OEIS A006116), an oracle
    # independent of both loops
    monkeypatch.setattr(relations, "SUBSET_SCAN_MAX_ORDER", 16)
    assert constructions.count_diagonal_subsemigroups(constructions.xor_group(3)) == 16
    assert constructions.count_diagonal_subsemigroups(constructions.xor_group(4)) == 67


def test_one_step_filter_bounds_the_closures_on_c2_4(monkeypatch):
    # closing every candidate takes 11 827 closures to list C2^4's 67 masks;
    # the filter leaves 352
    s = constructions.xor_group(4)
    monkeypatch.setattr(relations, "SUBSET_SCAN_MAX_ORDER", 16)
    calls = []
    pair_orbit = finite._pair_orbit

    def counted(rows, codes):
        calls.append(None)
        return pair_orbit(rows, codes)

    monkeypatch.setattr(finite, "_pair_orbit", counted)
    assert constructions.count_diagonal_subsemigroups(s) == 67
    assert len(calls) <= 400


def test_axiom_report_finds_every_closed_mask_closed_orders_1_to_3():
    # many of these relations are not preorders, so axiom_report's double
    # loop decides their closure against the pair orbit that closed them
    for s in (s for n in (1, 2, 3) for s in finite.enumerate_semigroups(n)):
        for mask in relations._closed_masks(s):
            rep = relations.axiom_report(s, relations._pair_set(s, mask))
            assert rep.contains_diagonal and rep.is_subsemigroup


# each relation also fails every axiom checked after the one named
@pytest.mark.parametrize("pairs, message", [
    ([(0, 1), (1, 2)], "relation is not symmetric"),
    ([(0, 1), (1, 0), (1, 2), (2, 1)], "relation is not transitive"),
    ([(0, 1), (1, 0)], "relation is not compatible"),
], ids=["symmetric", "transitive", "compatible"])
def test_quotient_names_the_failing_axiom(pairs, message):
    with pytest.raises(constructions.NotACongruence, match=message):
        constructions.quotient(finite.cyclic_group(3), pairs)

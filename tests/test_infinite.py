"""Bicyclic monoid, Bruck-Reilly extensions, integer order, Baer-Levi model."""

import functools
import gc
import itertools
import math
import operator
import random
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sgdsc import finite, infinite
from sgdsc.infinite import APSet, BicyclicElement, BRElement, CoInjection

import constructions


def test_bicyclic_mul_examples():
    assert infinite.bicyclic_mul(BicyclicElement(2, 3), BicyclicElement(1, 4)) \
        == BicyclicElement(2, 6)
    assert infinite.bicyclic_mul(BicyclicElement(0, 0), BicyclicElement(5, 2)) \
        == BicyclicElement(5, 2)
    assert infinite.bicyclic_mul(BicyclicElement(0, 1), BicyclicElement(1, 0)) \
        == BicyclicElement(0, 0)


def test_bicyclic_rejects_negative():
    with pytest.raises(finite.SemigroupError):
        BicyclicElement(-1, 0)


def test_bicyclic_leq_examples():
    assert infinite.bicyclic_leq(BicyclicElement(1, 1), BicyclicElement(0, 0))
    assert not infinite.bicyclic_leq(BicyclicElement(0, 0), BicyclicElement(1, 1))
    assert infinite.bicyclic_leq(BicyclicElement(3, 5), BicyclicElement(3, 5))


def bicyclic_leq_search(x, y, bound=None):
    """The defining search: x = (k,k)·y for some k <= bound (test oracle)."""
    if bound is None:
        bound = max(x.m, x.n, y.m, y.n) + 1
    return any(infinite.bicyclic_mul(BicyclicElement(k, k), y) == x
               for k in range(bound + 1))


def test_bicyclic_leq_matches_search():
    for m in range(5):
        for n in range(5):
            for p in range(5):
                for q in range(5):
                    x, y = BicyclicElement(m, n), BicyclicElement(p, q)
                    assert infinite.bicyclic_leq(x, y) == \
                        bicyclic_leq_search(x, y, 12)


# A random statement is (hypotheses, goal): atoms ("leq" | "eq", s, t) over
# terms that are element indices or (s, t) products; it reads
# "all hypotheses imply the goal".
_TERMS = st.recursive(st.integers(0, 3), lambda t: st.tuples(t, t), max_leaves=3)
_ATOMS = st.tuples(st.sampled_from(["leq", "eq"]), _TERMS, _TERMS)


def _indices(term):
    return {term} if isinstance(term, int) else _indices(term[0]) | _indices(term[1])


def _value(term, xs):
    if isinstance(term, int):
        return xs[term]
    return infinite.bicyclic_mul(_value(term[0], xs), _value(term[1], xs))


def _atom(rel, s, t, xs):
    s, t = _value(s, xs), _value(t, xs)
    return infinite.bicyclic_leq(s, t) if rel == "leq" else s == t


def _holds(statement, xs):
    hypotheses, goal = statement
    return not all(_atom(*a, xs) for a in hypotheses) or _atom(*goal, xs)


def _box_counterexample(statement):
    """Elements with coordinates in 0..4 refuting the statement, or None.

    Backtracking: each atom is evaluated once its last element is chosen, and
    a branch ends when a hypothesis fails or the goal holds.
    """
    hypotheses, goal = statement
    box = [BicyclicElement(m, n) for m in range(5) for n in range(5)]
    wanted = [(a, True) for a in hypotheses] + [(goal, False)]
    used = sorted(set().union(*(_indices(s) | _indices(t) for (_, s, t), _ in wanted)))
    due = [[(a, want) for (a, want) in wanted if max(_indices(a[1]) | _indices(a[2])) == v]
           for v in used]
    xs = {}

    def search(depth):
        if depth == len(used):
            return dict(xs)
        for x in box:
            xs[used[depth]] = x
            if all(_atom(*a, xs) == want for (a, want) in due[depth]):
                found = search(depth + 1)
                if found:
                    return found
        return None
    return search(0)


@settings(max_examples=40, deadline=None)
@given(st.lists(_ATOMS, max_size=2), _ATOMS)
def test_prover_agrees_with_box(hypotheses, goal):
    statement = (hypotheses, goal)
    arity = 1 + max(i for (_, s, t) in hypotheses + [goal] for i in _indices(s) | _indices(t))
    proved = infinite._bicyclic_law(lambda *xs: _holds(statement, xs), arity)
    counterexample = _box_counterexample(statement)
    # a box counterexample means not proved; proved means no box counterexample
    assert not (proved and counterexample), counterexample


def _proved_over_integers(statement, nvars):
    """Prove statement for all integers, each written as a - b with a, b natural."""
    return infinite._proved(lambda *v: statement(*map(operator.sub, v[::2], v[1::2])), 2 * nvars)


def test_prover_domains_and_integer_tightening():
    assert infinite._proved(lambda a: a >= 0, 1)
    assert not _proved_over_integers(lambda a: a >= 0, 1)
    # 2a = 2b + 1 has rational solutions only; dividing 2a - 2b - 1 >= 0 by
    # the gcd rounds it to a - b - 1 >= 0
    assert _proved_over_integers(lambda a, b: not a + a == b + b + 1, 2)
    assert not _proved_over_integers(lambda a, b: not a + a == b + 1, 2)


def test_prover_sign_shortcut_over_naturals():
    # c0 >= 0 and every coefficient >= 0: True without a branch
    assert infinite._proved(lambda a, b: a + b >= 0, 2)
    # mixed signs still branch: a = b = 0 refutes a + b >= 1
    assert not infinite._proved(lambda a, b: a + b >= 1, 2)
    # c0 < 0 and every coefficient <= 0: False without a branch
    assert infinite._proved(lambda a: not (-a - 1 >= 0), 1)


def test_prover_caps_branches_per_path():
    def countdown(a):
        while a > 0:
            a = a - 1
        return True
    with pytest.raises(RuntimeError):
        infinite._proved(countdown, 1)


@pytest.mark.parametrize("suite, shape", [
    ("bicyclic", (68, 31, 13)), ("bruck-reilly", (36, 18, 3)), ("z", (1, 0, 0))])
def test_suite_search_shape_pinned(monkeypatch, suite, shape):
    """Paths run, Fourier-Motzkin refutations and the deepest path of each suite.

    These fix the prover's search, so a change to its arithmetic alone
    leaves them as they are.
    """
    paths, verdicts = [], []
    real_path, real_feasible = infinite._Path, infinite._feasible

    class Path(real_path):
        def __init__(self, *args):
            super().__init__(*args)
            paths.append(self)

    def feasible(rows):
        verdicts.append(real_feasible(rows))
        return verdicts[-1]
    monkeypatch.setattr(infinite, "_Path", Path)
    monkeypatch.setattr(infinite, "_feasible", feasible)
    assert all(c["pass"] for c in infinite.MODELS[suite]())
    assert (len(paths), verdicts.count(False), max(p.depth for p in paths)) == shape


# A linear expression: an int constant, ("v", i) for variable i, or an
# operator ("+" | "-", e, e) or ("neg", e).
_EXPRS = st.recursive(
    st.integers(-5, 5) | st.tuples(st.just("v"), st.integers(0, 3)),
    lambda e: st.tuples(st.sampled_from("+-"), e, e) | st.tuples(st.just("neg"), e),
    max_leaves=8)


def _symbols(nvars, choices=()):
    """A path over nvars variables that replays choices, and its variables."""
    units = [tuple(int(i == j) for j in range(nvars + 1)) for i in range(1, nvars + 1)]
    path = infinite._Path(list(choices), units)
    return path, [infinite._Linear(u, path) for u in units]


def _evaluate(expr, xs):
    if isinstance(expr, int):
        return expr
    op, *args = expr
    if op == "v":
        return xs[args[0] % len(xs)]
    vals = [_evaluate(a, xs) for a in args]
    return -vals[0] if op == "neg" else vals[0] + vals[1] if op == "+" else vals[0] - vals[1]


@settings(max_examples=200, deadline=None)
@given(_EXPRS, st.lists(st.integers(0, 50), min_size=1, max_size=4))
def test_linear_terms_match_int_arithmetic(expr, xs):
    path, variables = _symbols(len(xs))
    bounds = dict(path.bounds)
    form = _evaluate(expr, variables)
    terms = form.terms if isinstance(form, infinite._Linear) else (form,) + (0,) * len(xs)
    assert terms[0] + sum(c * x for c, x in zip(terms[1:], xs)) == _evaluate(expr, xs)
    assert (path.bounds, path.depth) == (bounds, 0)  # arithmetic records nothing


# (comparison of naturals a and b, [(choices, result, bounds recorded)]); a
# bound {(ca, cb): c0} is the row c0 + ca·a + cb·b >= 0, and every path
# starts from a >= 0 and b >= 0
_NATURAL = {(1, 0): 0, (0, 1): 0}
_COMPARISONS = {
    "<": (lambda a, b: a < b + 1,
          [([True], True, {(-1, 1): 0}), ([False], False, {(1, -1): -1})]),
    "<=": (lambda a, b: a <= b + 1,
           [([True], True, {(-1, 1): 1}), ([False], False, {(1, -1): -2})]),
    ">": (lambda a, b: a > b + 1,
          [([True], True, {(1, -1): -2}), ([False], False, {(-1, 1): 1})]),
    ">=": (lambda a, b: a >= b + 1,
           [([True], True, {(1, -1): -1}), ([False], False, {(-1, 1): 0})]),
    "==": (lambda a, b: a == b + 1,
           [([True, True], True, {(1, -1): -1, (-1, 1): 1}),
            ([False], False, {(-1, 1): 0}),
            ([True, False], False, {(1, -1): -2})]),
    "int<": (lambda a, b: 1 < a, [([True], True, {(1, 0): -2}), ([False], False, {(-1, 0): 1})]),
    "int<=": (lambda a, b: 1 <= a,
              [([True], True, {(1, 0): -1}), ([False], False, {(-1, 0): 0})]),
    "int>": (lambda a, b: 1 > a, [([True], True, {(-1, 0): 0}), ([False], False, {(1, 0): -1})]),
    "int>=": (lambda a, b: 1 >= a,
              [([True], True, {(-1, 0): 1}), ([False], False, {(1, 0): -2})]),
    "int==": (lambda a, b: 1 == a,
              [([True, True], True, {(1, 0): -1, (-1, 0): 1}),
               ([False], False, {(-1, 0): 0}),
               ([True, False], False, {(1, 0): -2})]),
}


@pytest.mark.parametrize("compare, sides", _COMPARISONS.values(), ids=_COMPARISONS.keys())
def test_comparison_records_rows(compare, sides):
    for choices, result, bounds in sides:
        path, variables = _symbols(2, choices)
        assert compare(*variables) is result
        assert (path.bounds, path.depth) == ({**_NATURAL, **bounds}, len(choices))


def test_recorded_bound_decides_implied_comparisons():
    path, (a, b) = _symbols(2)
    assert a - b >= 2
    assert a - b >= 1  # implied by the recorded row
    assert not b - a >= -1  # contradicts it
    assert (path.bounds, path.depth) == ({**_NATURAL, (1, -1): -2}, 1)


def test_weaker_recorded_bound_still_branches():
    path, (a, b) = _symbols(2)
    assert a - b >= 1
    assert a - b >= 2  # a new branch, which tightens the recorded bound
    assert (path.bounds, path.depth) == ({**_NATURAL, (1, -1): -2}, 2)


@pytest.mark.parametrize("use", [
    lambda a: a < 1.5, lambda a: 1.5 <= a, lambda a: a > 0.5, lambda a: a >= 0.5,
    lambda a: a == 1.0, lambda a: 1.0 == a, lambda a: a + 1.5, lambda a: 1.5 - a])
def test_linear_rejects_floats(use):
    with pytest.raises(TypeError):
        use(_symbols(1)[1][0])


# systems of up to five rows over one to three variables, coefficients in -3..3
_SYSTEMS = st.integers(1, 3).flatmap(
    lambda k: st.lists(st.tuples(*[st.integers(-3, 3)] * (k + 1)), max_size=5))


@settings(max_examples=300, deadline=None)
@given(_SYSTEMS)
def test_feasible_whenever_a_box_point_satisfies(rows):
    k = len(rows[0]) - 1 if rows else 0
    box = itertools.product(range(-3, 4), repeat=k)
    if any(all(r[0] + sum(map(math.prod, zip(r[1:], x))) >= 0 for r in rows) for x in box):
        assert infinite._feasible(rows)


@pytest.mark.parametrize("rows", [
    [(-1, 1), (0, -1)],  # x >= 1 and x <= 0
    [(-1, 2, -2), (1, -2, 2)],  # 2a - 2b - 1 = 0: only rational solutions, so tightening
    [(-1, 0, 1), (0, 0, -1)],  # y >= 1 and y <= 0, x free
    [(-1, -1, 1, 0), (-1, 0, -1, 1), (-1, 1, 0, -1)],  # x < y < z < x: two eliminations
    [(-1, 1, -1), (0, -1, 1)],  # x > y and y >= x: an opposite pair
    # x - y >= 0, >= 3, >= 1 and x - y <= 2: only the strongest of the first three refutes
    [(0, 1, -1), (-3, 1, -1), (-1, 1, -1), (2, -1, 1)],
], ids=["bounds", "tightening", "free-variable", "cycle", "opposite-pair", "same-coefficients"])
def test_feasible_refutes(rows):
    assert not infinite._feasible(rows)


@st.composite
def _repeating_systems(draw):
    """Up to six rows over one to three variables drawn from at most three
    coefficient vectors, so that rows often share a vector."""
    k = draw(st.integers(1, 3))
    vectors = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * k), min_size=1, max_size=3))
    return [(c0,) + c for c0, c in draw(st.lists(
        st.tuples(st.integers(-3, 3), st.sampled_from(vectors)), max_size=6))]


@settings(max_examples=300, deadline=None)
@given(_repeating_systems())
def test_feasible_needs_only_the_least_constant_per_vector(rows):
    """A path keeps one bound per coefficient vector; refuting those bounds
    is refuting every row it recorded."""
    least = {}
    for c0, *c in rows:
        least[tuple(c)] = min(c0, least.get(tuple(c), c0))
    assert infinite._feasible(rows) == infinite._feasible([(c0,) + c for c, c0 in least.items()])


def test_prover_paths_need_no_cycle_collection():
    """A finished path is freed by reference counting alone."""
    leq = infinite.bicyclic_leq
    gc.collect()
    gc.disable()
    try:
        assert infinite._bicyclic_law(lambda x, y: not (leq(x, y) and leq(y, x)) or x == y, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _suite(monkeypatch, name, fn):
    monkeypatch.setattr(infinite, name, fn)
    return {c["name"]: c["pass"] for c in infinite.bicyclic_checks()}


def test_mutated_leq_breaks_antisymmetry(monkeypatch):
    assert _suite(monkeypatch, "bicyclic_leq", lambda x, y: x.m >= y.m)["antisymmetric"] is False


def test_off_by_one_mul_breaks_closed_form(monkeypatch):
    def mul(x, y):
        k = max(x.n, y.m)
        return BicyclicElement(x.m - x.n + k, y.n - y.m + k + 1)
    assert _suite(monkeypatch, "bicyclic_mul", mul)["closed_form_matches_search"] is False


def test_nonlinear_use_raises_instead_of_proving(monkeypatch):
    def mul(x, y):
        k = max(x.n, y.m)
        return BicyclicElement(x.m - x.n + k if bool(x.m) else k, y.n - y.m + k)
    with pytest.raises(TypeError):
        _suite(monkeypatch, "bicyclic_mul", mul)


def _theta(mapping):
    return infinite.EndomorphismTable(finite.cyclic_group(2), mapping)


def test_endomorphism_table_validation():
    c2 = finite.cyclic_group(2)
    infinite.EndomorphismTable(c2, (0, 1))
    infinite.EndomorphismTable(c2, (0, 0))
    with pytest.raises(finite.SemigroupError):
        infinite.EndomorphismTable(c2, (1, 0))  # does not fix the identity
    with pytest.raises(finite.SemigroupError):
        infinite.EndomorphismTable(constructions.left_zero(2), (0, 1))  # not a monoid


def _endomorphisms(base):
    out = []
    for mapping in itertools.product(range(base.order), repeat=base.order):
        try:
            out.append(infinite.EndomorphismTable(base, mapping))
        except finite.SemigroupError:
            pass
    return out


_SMALL_BASES = {"C2": finite.cyclic_group(2), "C3": finite.cyclic_group(3),
                "C2xC2": constructions.klein_four()}


def _naive_theta_power(theta, x, k):
    for _ in range(k):
        x = theta.map[x]
    return x


@pytest.mark.parametrize("base", _SMALL_BASES.values(), ids=_SMALL_BASES.keys())
def test_theta_power_matches_naive_loop(base):
    for theta in _endomorphisms(base):
        for x in range(base.order):
            for k in range(3 * base.order + 1):
                assert infinite.theta_power(theta, x, k) == _naive_theta_power(theta, x, k)


@pytest.mark.parametrize("base", _SMALL_BASES.values(), ids=_SMALL_BASES.keys())
def test_theta_power_huge_exponent(base):
    n = base.order
    for theta in _endomorphisms(base):
        for x in range(n):
            start = time.perf_counter()
            got = infinite.theta_power(theta, x, 10 ** 18)
            assert time.perf_counter() - start < 0.1
            # cycles have length <= 4, so every period divides 12
            assert got == _naive_theta_power(theta, x, n + (10 ** 18 - n) % 12)


def test_theta_power_rejects_negative_exponent():
    # θ need not be invertible: the constant map has no θ^-1
    with pytest.raises(finite.SemigroupError):
        infinite.theta_power(_theta((0, 0)), 1, -1)


def _projection_hom(x, y):
    return infinite.br_project(infinite.br_mul(x, y)) == \
        infinite.bicyclic_mul(infinite.br_project(x), infinite.br_project(y))


@pytest.mark.parametrize("base", _SMALL_BASES.values(), ids=_SMALL_BASES.keys())
def test_br_projection_homomorphism_on_box(base):
    """Independent oracle for the suite's proof: concrete products on a 0..3 box."""
    for theta in _endomorphisms(base):
        box = [BRElement(m, s, n, theta)
               for m in range(4) for s in range(base.order) for n in range(4)]
        for x in box:
            for y in box:
                assert _projection_hom(x, y)


def test_br_suite_refutes_mutated_mul(monkeypatch):
    real = infinite.br_mul

    def mul(x, y):  # br_mul with "- y.m" dropped from the n coordinate
        p = real(x, y)
        return BRElement(p.m, p.s, p.n + y.m, p.theta)
    monkeypatch.setattr(infinite, "br_mul", mul)
    suite = {c["name"]: c["pass"] for c in infinite.bruck_reilly_checks()}
    assert suite["projection_homomorphism_theta_identity"] is False
    assert suite["projection_homomorphism_theta_constant"] is False


def test_br_proof_refuses_period_two_orbit():
    # on C3's automorphism swapping 1 and 2, θ^k(1) depends on k mod 2
    theta = infinite.EndomorphismTable(finite.cyclic_group(3), (0, 2, 1))
    assert [infinite.theta_power(theta, 1, k) for k in range(4)] == [1, 2, 1, 2]

    with pytest.raises(TypeError):
        infinite._proved(lambda m1, n1, m2, n2: _projection_hom(
            BRElement(m1, 1, n1, theta), BRElement(m2, 1, n2, theta)), 4)


def test_br_mul_constant_theta_example():
    theta = _theta((0, 0))  # everything maps to the identity
    x = BRElement(1, 1, 2, theta)
    y = BRElement(1, 0, 3, theta)
    assert infinite.br_mul(x, y) == BRElement(1, 1, 4, theta)


def test_br_identity():
    theta = _theta((0, 1))
    e = BRElement(0, 0, 0, theta)
    x = BRElement(3, 1, 2, theta)
    assert infinite.br_mul(e, x) == x
    assert infinite.br_mul(x, e) == x


def test_br_project_homomorphism_example():
    theta = _theta((0, 1))
    x = BRElement(1, 1, 2, theta)
    y = BRElement(0, 1, 5, theta)
    lhs = infinite.br_project(infinite.br_mul(x, y))
    assert lhs == BicyclicElement(1, 7)
    assert lhs == infinite.bicyclic_mul(infinite.br_project(x), infinite.br_project(y))


def test_br_theta_mismatch():
    x = BRElement(0, 0, 0, _theta((0, 1)))
    y = BRElement(0, 0, 0, _theta((0, 0)))
    with pytest.raises(infinite.ThetaMismatch):
        infinite.br_mul(x, y)


def test_br_order_pullback():
    theta = _theta((0, 1))
    hi = BRElement(1, 1, 1, theta)
    lo = BRElement(0, 0, 0, theta)
    assert infinite.br_order_member(hi, lo)
    assert not infinite.br_order_member(lo, hi)
    assert infinite.br_order_member(hi, hi)


def _associative(mul):
    return lambda x, y, z: mul(mul(x, y), z) == mul(x, mul(y, z))


def test_bicyclic_mul_associative():
    assert infinite._bicyclic_law(_associative(infinite.bicyclic_mul), 3)


def _br_law(law, arity, theta):
    """Prove law(x1, ..., x_arity) for all elements of the Bruck-Reilly
    extension over theta: one proof per tuple of base elements."""
    return all(infinite._proved(
        lambda *v: law(*(BRElement(m, s, n, theta) for m, s, n in zip(v[::2], bases, v[1::2]))),
        2 * arity) for bases in itertools.product(range(theta.base.order), repeat=arity))


_C2_THETAS = {"theta_identity": (0, 1), "theta_constant": (0, 0)}


@pytest.mark.parametrize("mapping", _C2_THETAS.values(), ids=_C2_THETAS.keys())
def test_br_mul_associative(mapping):
    assert _br_law(_associative(infinite.br_mul), 3, _theta(mapping))


@pytest.mark.parametrize("mapping", _C2_THETAS.values(), ids=_C2_THETAS.keys())
def test_br_pulled_back_order_closed_under_mul(mapping):
    leq, mul = infinite.br_order_member, infinite.br_mul
    assert _br_law(lambda x, y, xp, yp: not (leq(x, y) and leq(xp, yp))
                   or leq(mul(x, xp), mul(y, yp)), 4, _theta(mapping))


def test_br_associativity_refutes_swapped_exponents():
    def mul(x, y):  # br_mul with its two θ exponents swapped
        k = max(x.n, y.m)
        power = functools.partial(infinite.theta_power, x.theta)
        mid = x.theta.base.table[power(x.s, k - y.m)][power(y.s, k - x.n)]
        return BRElement(x.m - x.n + k, mid, y.n - y.m + k, x.theta)
    assert not _br_law(_associative(mul), 3, _theta((0, 0)))


def test_zdiag():
    assert infinite.zdiag_member(2, 5)
    assert not infinite.zdiag_member(5, 2)
    assert all(infinite.zdiag_member(k, k) for k in range(-3, 4))


def test_zdiag_closed_under_addition():
    member = infinite.zdiag_member
    assert _proved_over_integers(lambda x, y, a, b: not (member(x, y) and member(a, b))
                                 or member(x + a, y + b), 4)


def test_z_diagonal_fails_for_a_strict_order(monkeypatch):
    """The a - b split of the z suite proves something: x < x fails."""
    monkeypatch.setattr(infinite, "zdiag_member", lambda x, y: x < y)
    assert {c["name"]: c["pass"] for c in infinite.z_checks()}["diagonal"] is False


def test_apset_intersect_disjoint_residues():
    a = APSet(((4, 0),))
    b = APSet(((4, 1),))
    both = infinite.apset_intersect(a, b)
    # a set meets itself exactly when it is nonempty
    assert not infinite.apset_meets(both, both)


def test_apset_intersect_patch_survives():
    a = APSet(((4, 0),))
    b = APSet(((4, 1),), {4})
    got = infinite.apset_intersect(a, b)
    assert got.sample(100) == [4]


def test_apset_intersect_lcm_modulus():
    got = infinite.apset_intersect(APSet(((2, 0),)), APSet(((3, 0),)))
    assert got.sample(30) == [0, 6, 12, 18, 24, 30]


def test_apset_union_and_membership():
    # the constructor forms the union of its progressions and its plus points
    u = APSet(((4, 0),), frozenset({3}))
    assert u.member(0) and u.member(3) and u.member(8) and not u.member(5)
    assert u.mask != 0


def test_apset_normal_form():
    assert APSet(((8, 0), (8, 4))) == APSet(((4, 0),))
    assert APSet(((2, 0), (2, 1))).progressions == ((1, 0),)
    s = APSet(((4, 1),), {1, 3, 4, -2}, {4, 5, 9})
    assert (s.modulus, s.plus, s.minus) == (4, frozenset({3}), frozenset({5, 9}))
    assert s.sample(13) == [1, 3, 13]


def _divisor_scan(modulus, residues):
    """Least divisor d of modulus with residues + d = residues (test oracle)."""
    return next(d for d in range(1, modulus + 1) if modulus % d == 0
                and all((r + d) % modulus in residues for r in residues))


def _oracle_apset(progressions, plus, minus):
    """The normal form (modulus, residues, plus, minus) by expanding every
    progression to the lcm and scanning its divisors (test oracle)."""
    big = math.lcm(*(m for (m, _) in progressions))
    classes = {x for (m, r) in progressions for x in range(r % m, big, m)}
    modulus = _divisor_scan(big, classes)
    residues = frozenset(r % modulus for r in classes)
    return (modulus, residues,
            frozenset(n for n in plus if n >= 0 and n % modulus not in residues
                      and n not in minus),
            frozenset(n for n in minus if n >= 0 and n % modulus in residues))


def _oracle_member(nf, n):
    modulus, residues, plus, minus = nf
    if n % modulus in residues:
        return n >= 0 and n not in minus
    return n in plus


def _oracle_intersect(a, b):
    big = math.lcm(a[0], b[0])
    a_classes, b_classes = ({r + k for r in s[1] for k in range(0, big, s[0])} for s in (a, b))
    points = a[2] | a[3] | b[2] | b[3]
    plus = {n for n in points if _oracle_member(a, n) and _oracle_member(b, n)}
    return _oracle_apset([(big, r) for r in a_classes & b_classes], plus, points - plus)


def _agrees(s, nf):
    modulus, residues, plus, minus = nf
    return (s.modulus, s.progressions, s.plus, s.minus) == \
        (modulus, tuple((modulus, r) for r in sorted(residues)), plus, minus)


_APSETS = st.tuples(st.lists(st.tuples(st.integers(1, 48), st.integers(-100, 100)), max_size=3),
                    st.frozensets(st.integers(-20, 200), max_size=6),
                    st.frozensets(st.integers(-20, 200), max_size=6))


@settings(max_examples=150, deadline=None)
@given(_APSETS, _APSETS)
# disjoint classes that meet only in a plus point: the complements of the
# Baer-Levi f and g
@example(([(4, 0)], frozenset(), frozenset()), ([(4, 1)], frozenset({4}), frozenset()))
@example(([(4, 1)], frozenset({4}), frozenset()), ([(4, 0)], frozenset(), frozenset()))
# a plus point of one set that the other removes
@example(([(4, 0)], frozenset(), frozenset({8})), ([], frozenset({8}), frozenset()))
def test_apset_matches_frozenset_oracle(a_args, b_args):
    assume(math.lcm(*(m for (m, _) in a_args[0] + b_args[0])) <= 5040)
    sets = []
    for args in (a_args, b_args):
        s, nf = APSet(*args), _oracle_apset(*args)
        assert _agrees(s, nf)
        big = math.lcm(*(m for (m, _) in args[0]))
        assert all(s.member(n) == _oracle_member(nf, n) for n in range(-2, 3 * big + 1))
        # a set meets itself exactly when it is nonempty
        assert infinite.apset_meets(s, s) == bool(nf[1] or nf[2])
        assert (s.mask != 0) == bool(nf[1])
        sets.append((s, nf))
    (a, a_nf), (b, b_nf) = sets
    both, both_nf = infinite.apset_intersect(a, b), _oracle_intersect(a_nf, b_nf)
    assert _agrees(both, both_nf)
    assert infinite.apset_meets(both, both) == bool(both_nf[1] or both_nf[2])
    assert infinite.apset_meets(a, b) == infinite.apset_meets(b, a) == \
        bool(both_nf[1] or both_nf[2])


# moduli up to 12, so every upto up to 3·lcm is sampled in a few milliseconds
_SMALL_APSETS = st.tuples(
    st.lists(st.tuples(st.integers(1, 12), st.integers(-30, 30)), max_size=2),
    st.frozensets(st.integers(-5, 60), max_size=6),
    st.frozensets(st.integers(-5, 60), max_size=6))


@settings(max_examples=100, deadline=None)
@given(_SMALL_APSETS)
def test_apset_sample_matches_oracle_membership(args):
    s, nf = APSet(*args), _oracle_apset(*args)
    big = math.lcm(*(m for (m, _) in args[0]))
    members = [n for n in range(3 * big + 1) if _oracle_member(nf, n)]
    # upto < modulus - 1 reads fewer bits than the mask has
    for upto in range(-1, 3 * big + 1):
        assert s.sample(upto) == [n for n in members if n <= upto]


def test_apset_sample_reads_a_wide_mask_only_up_to_upto():
    s = APSet(((1 << 20, 1), (1 << 20, 70), (1 << 20, (1 << 20) - 1)), {3}, {1})
    assert s.modulus == 1 << 20
    assert (s.sample(-5), s.sample(0), s.sample(64), s.sample(70)) == ([], [], [3], [3, 70])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 48), st.integers(1, 24), st.data())
def test_least_period_matches_divisor_scan(width, copies, data):
    pattern = data.draw(st.integers(0, (1 << width) - 1))
    modulus = width * copies
    mask = sum(pattern << (width * i) for i in range(copies))
    residues = {r for r in range(modulus) if mask >> r & 1}
    assert infinite._least_period(modulus, mask) == _divisor_scan(modulus, residues)


def test_coinjection_identity():
    ident = CoInjection(1, 1, (0,), ())
    assert [ident.apply(k) for k in range(5)] == [0, 1, 2, 3, 4]
    assert not infinite.apset_meets(ident.complement, ident.complement)


def test_coinjection_rejects_non_injective():
    with pytest.raises(finite.SemigroupError):
        CoInjection(2, 1, (0, 0), ())


@pytest.mark.parametrize("args", [
    (2, 4, (0, 4), ()),                   # offsets congruent mod stride
    (1, 1, (-1,), ()),                    # negative offset
    (1, 2, (0,), ((0, 5), (0, 7))),       # duplicate patch sources
    (1, 2, (0,), ((0, 5), (1, 5))),       # duplicate patch targets
    (1, 2, (0,), ((-1, 5),)),             # negative patch source
    (1, 1, (0,), ((0, 1),)),              # target is the unpatched value of 1
], ids=["offsets-congruent", "negative-offset", "duplicate-sources",
        "duplicate-targets", "negative-source", "target-hits-unpatched"])
def test_coinjection_rejects_non_injective_data(args):
    with pytest.raises(finite.SemigroupError):
        CoInjection(*args)


def test_coinjection_patch_target_in_an_unhit_class():
    # k -> 2k with 0 -> 1: no piece hits the odd class, so 1 is free
    f = CoInjection(1, 2, (0,), ((0, 1),))
    assert [f.apply(k) for k in range(4)] == [1, 2, 4, 6]
    assert f.complement.sample(9) == [0, 3, 5, 7, 9]
    # 4 is the unpatched value of 2, in the class the piece hits
    with pytest.raises(finite.SemigroupError, match="unpatched 2 also maps to 4"):
        CoInjection(1, 2, (0,), ((0, 4),))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.data())
def test_coinjection_accepts_exactly_the_injective_patches(stride, data):
    residues = data.draw(st.lists(st.integers(0, stride - 1), min_size=1, unique=True))
    offsets = tuple(r + stride * data.draw(st.integers(0, 3)) for r in residues)
    patches = tuple(data.draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 40)),
                                       max_size=3, unique_by=(lambda p: p[0], lambda p: p[1]))))
    modulus, sources = len(offsets), {src for (src, _) in patches}
    # an unpatched k >= modulus * 41 maps past every target
    unpatched = {stride * (k // modulus) + offsets[k % modulus]
                 for k in range(modulus * 41) if k not in sources}
    if any(dst in unpatched for (_, dst) in patches):
        with pytest.raises(finite.SemigroupError, match="not injective"):
            CoInjection(modulus, stride, offsets, patches)
    else:
        f = CoInjection(modulus, stride, offsets, patches)
        image = {f.apply(k) for k in range(modulus * 41)}
        assert all(f.complement.member(v) == (v not in image) for v in range(41))


def test_coinjection_doubling_complement_is_odd():
    doubling = CoInjection(1, 2, (0,), ())
    assert doubling.complement == APSet(((2, 1),))


def test_coinjection_preimage():
    f = CoInjection(3, 4, (1, 2, 3), ())
    for k in range(100):
        assert f.preimage(f.apply(k)) == k
    assert f.preimage(0) is None  # 0 is in the complement


def test_co_compose_identity_law():
    w = infinite.baer_levi_witness()
    f, ident = w["f"], CoInjection(1, 1, (0,), ())
    both = infinite.co_compose(ident, f), infinite.co_compose(f, ident)
    for comp in both:
        for k in range(200):
            assert comp.apply(k) == f.apply(k)
        for v in range(200):
            assert comp.complement.member(v) == f.complement.member(v)


def test_co_compose_complement_matches_brute_force():
    w = infinite.baer_levi_witness()
    f, h = w["f"], w["h"]
    comp = infinite.co_compose(f, h)
    image = {comp.apply(k) for k in range(500)}
    # inputs beyond 500 land above 4*(500//3), so [0,100] is fully decided
    for v in range(101):
        assert comp.complement.member(v) == (v not in image)


def test_co_compose_associative_behaviour():
    w = infinite.baer_levi_witness()
    f, g, h = w["f"], w["g"], w["h"]
    lhs = infinite.co_compose(infinite.co_compose(f, g), h)
    rhs = infinite.co_compose(f, infinite.co_compose(g, h))
    for k in range(300):
        assert lhs.apply(k) == rhs.apply(k) == h.apply(g.apply(f.apply(k)))
    for v in range(300):
        assert lhs.complement.member(v) == rhs.complement.member(v)


def test_baer_levi_membership_pattern():
    w = infinite.baer_levi_witness()
    assert (w["fg"], w["gh"], w["fh"]) == (True, True, False)
    assert w["fg_intersection"] == [4]
    b_prime = [n for n in range(41) if n % 4 == 1]
    assert set(w["gh_intersection"]) >= set(b_prime)
    assert w["fh_intersection"] == []


def test_baer_levi_rho_closed_under_products():
    w = infinite.baer_levi_witness()
    gens = [w["f"], w["g"], w["h"]]
    rho = w["rho_member"]
    rng = random.Random(9)

    def random_composite():
        cur = rng.choice(gens)
        for _ in range(rng.randint(0, 2)):
            cur = infinite.co_compose(cur, rng.choice(gens))
        return cur

    checked = 0
    while checked < 100:
        f1, g1 = random_composite(), random_composite()
        f2, g2 = random_composite(), random_composite()
        if rho(f1, g1) and rho(f2, g2):
            assert rho(infinite.co_compose(f1, f2), infinite.co_compose(g1, g2))
            checked += 1


def test_deep_products_rho_membership():
    # 10-map products of 5-map composites.  A composite's image complement
    # contains that of its last map, and only f and h have disjoint
    # complements, so with these last maps every pair lies in rho.
    w = infinite.baer_levi_witness()
    rho = w["rho_member"]
    for specs in (("fghgh", "hgfgg", "ghfhf", "hhgfg"), ("hhfgf", "ggfhg", "fhggh", "gffhh")):
        f1, g1, f2, g2 = (functools.reduce(infinite.co_compose, (w[n] for n in spec))
                          for spec in specs)
        f12, g12 = infinite.co_compose(f1, f2), infinite.co_compose(g1, g2)
        assert (f12.modulus, f12.stride) == (3 ** 10, 4 ** 10)
        assert (rho(f1, g1), rho(f2, g2), rho(f12, g12)) == (True, True, True)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from("fgh"), min_size=1, max_size=6))
def test_derived_complement_matches_image_scan(names):
    w = infinite.baer_levi_witness()
    comp = w[names[0]]
    for name in names[1:]:
        comp = infinite.co_compose(comp, w[name])
    scanned = comp.modulus * 8 + max((src for (src, _) in comp.patches), default=0)
    image = [comp.apply(k) for k in range(scanned + 1)]
    assert len(set(image)) == len(image)
    image = set(image)
    # unscanned inputs are unpatched, so they map to stride*q + offset >= horizon
    horizon = comp.stride * ((scanned + 1) // comp.modulus)
    for v in range(horizon):
        assert comp.complement.member(v) == (v not in image)

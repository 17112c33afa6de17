"""Bicyclic monoid, Bruck-Reilly extensions, integer order, Baer-Levi model."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from sgdsc import finite, infinite
from sgdsc.infinite import APSet, BicyclicElement, BRElement, CoInjection


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


def test_bicyclic_leq_matches_search():
    for m in range(5):
        for n in range(5):
            for p in range(5):
                for q in range(5):
                    x, y = BicyclicElement(m, n), BicyclicElement(p, q)
                    assert infinite.bicyclic_leq(x, y) == \
                        infinite.bicyclic_leq_search(x, y, 12)


def _theta(mapping):
    return finite.EndomorphismTable(finite.cyclic_group(2), mapping)


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


def test_zdiag():
    assert infinite.zdiag_member(2, 5)
    assert not infinite.zdiag_member(5, 2)
    assert all(infinite.zdiag_member(k, k) for k in range(-3, 4))


def test_apset_intersect_disjoint_residues():
    a = APSet(((4, 0),))
    b = APSet(((4, 1),))
    assert infinite.apset_is_empty(infinite.apset_intersect(a, b))


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
    assert u.is_infinite()


def test_apset_normal_form():
    assert APSet(((8, 0), (8, 4))) == APSet(((4, 0),))
    assert APSet(((2, 0), (2, 1))).progressions == ((1, 0),)
    s = APSet(((4, 1),), {1, 3, 4, -2}, {4, 5, 9})
    assert (s.modulus, s.plus, s.minus) == (4, frozenset({3}), frozenset({5, 9}))
    assert s.sample(13) == [1, 3, 13]


def test_coinjection_identity():
    ident = infinite.co_identity()
    assert [ident.apply(k) for k in range(5)] == [0, 1, 2, 3, 4]
    assert infinite.apset_is_empty(ident.complement)


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
    f = w["f"]
    both = (infinite.co_compose(infinite.co_identity(), f),
            infinite.co_compose(f, infinite.co_identity()))
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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from("fgh"), min_size=1, max_size=4))
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

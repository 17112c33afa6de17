"""Acceptance gate: one test (and one printed pass/fail line) per criterion."""

import itertools
import random
import time

import pytest

from sgdsc import byleen, finite, infinite, relations
from sgdsc.byleen import ALetter, BLetter, NormalForm

import constructions


def _line(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok


def _all_tables_brute(n):
    """Every associative labeled table of order n by raw iteration."""
    out = []
    for flat in itertools.product(range(n), repeat=n * n):
        table = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
        if all(table[table[i][j]][k] == table[i][table[j][k]]
               for i in range(n) for j in range(n) for k in range(n)):
            out.append(tuple(tuple(r) for r in table))
    return out


def test_criterion_1_finite_oracle_order_3():
    start = time.perf_counter()
    golden = {1: 1, 2: 8, 3: 113}
    for n in (1, 2, 3):
        enumerated = [s for s in finite.enumerate_semigroups(n)]
        assert len(enumerated) == golden[n]
        assert {s.table for s in enumerated} == set(_all_tables_brute(n))
        for s in enumerated:
            ok, _ = relations.brute_force_is_dsc(s)
            assert ok == finite.is_group(s)
    elapsed = time.perf_counter() - start
    _line(1, elapsed < 10,
          f"orders 1-3, counts {golden}, brute DSC == group, {elapsed:.1f}s")


def test_criterion_2_order_4_sweep():
    start = time.perf_counter()
    total = groups = 0
    for s in finite.enumerate_semigroups(4):
        total += 1
        if finite.is_group(s):
            groups += 1
            ok, witness = relations.brute_force_is_dsc(s)
            assert ok and witness is None
        else:
            ps, failing, _ = relations.witness_non_dsc(s)
            rep = relations.axiom_report(s, ps)
            assert rep.contains_diagonal and rep.is_subsemigroup
            assert not rep.is_symmetric
            assert (failing[1], failing[0]) not in frozenset(ps)
    elapsed = time.perf_counter() - start
    _line(2, total == 3492 and groups == 16 and elapsed < 300,
          f"{total} tables, {groups} group tables fully scanned, {elapsed:.1f}s")


def _all_congruences(s):
    """Congruences found independently: all set partitions, axiom-filtered."""
    n = s.order
    found = []

    def grow(rgs, mx):
        if len(rgs) == n:
            pairs = frozenset((i, j) for i in range(n) for j in range(n)
                              if rgs[i] == rgs[j])
            if relations.axiom_report(s, relations.PairSet.from_pairs(s, pairs)).is_congruence:
                found.append(pairs)
            return
        for v in range(mx + 2):
            grow(rgs + [v], max(mx, v))

    grow([0], 0)
    return found


def test_criterion_3_group_diagonal_subsemigroups_are_congruences():
    golden = {"C2": 2, "C3": 2, "C4": 3, "V4": 5}
    subjects = {"C2": finite.cyclic_group(2), "C3": finite.cyclic_group(3),
                "C4": finite.cyclic_group(4), "V4": constructions.klein_four()}
    counts = {}
    for name, s in subjects.items():
        ok, _ = relations.brute_force_is_dsc(s)  # every closed superset passes
        assert ok
        diag_count = constructions.count_diagonal_subsemigroups(s)
        assert diag_count == len(_all_congruences(s)) == golden[name]
        counts[name] = diag_count
    _line(3, counts == golden, f"diagonal subsemigroups == congruences: {counts}")


def test_criterion_4_symmetric_inverse_order():
    i2 = constructions.generate_symmetric_inverse(2)
    assert i2.order == 7
    ps = constructions.natural_partial_order(i2)
    rep = relations.axiom_report(i2, ps)
    inv = {x: finite.inverses_of(i2, x)[0] for x in range(7)}
    rho = frozenset(ps)
    inversion_closed = all((inv[x], inv[y]) in rho for (x, y) in rho)
    with pytest.raises(finite.TooLarge):
        relations.brute_force_is_dsc(i2)
    _, _, strategy = relations.witness_non_dsc(i2)
    ok = (rep.contains_diagonal and rep.is_subsemigroup and inversion_closed
          and not rep.is_symmetric and strategy == "ideal")
    _line(4, ok, "I2 order: diagonal subsemigroup, inversion-closed, "
                 f"non-symmetric; witness strategy {strategy}")


def test_criterion_5_rewriting():
    m = byleen.TwoTransitiveMatrix(finite.cyclic_group(2))
    rng = random.Random(42)
    pool = constructions.letter_pool()
    for _ in range(1000):
        word = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
        nf = byleen.reduce(m, word)
        assert nf == byleen.reduce_rightmost(m, word)
        assert byleen.reduce(m, nf.letters()) == nf
    for _ in range(1000):
        x, y, z = (byleen.reduce(m, [rng.choice(pool)
                                     for _ in range(rng.randint(0, 4))])
                   for _ in range(3))
        assert byleen.nf_mul(byleen.nf_mul(x, y), z) == \
            byleen.nf_mul(x, byleen.nf_mul(y, z))
    _line(5, True, "1000 words: stack == rightmost, reduce idempotent; "
                   "1000 triples associative")


def _random_nf(m, rng, v_len, u_len, s=None):
    v = tuple(BLetter(rng.randint(0, 2), rng.randint(0, 1)) for _ in range(v_len))
    u = tuple(ALetter(rng.randint(0, 2), rng.randint(0, 1)) for _ in range(u_len))
    return NormalForm(v, rng.randint(0, 1) if s is None else s, u, m)


def test_criterion_6_span_certificates():
    start = time.perf_counter()
    m = byleen.TwoTransitiveMatrix(finite.cyclic_group(2))
    rng = random.Random(7)
    pool = constructions.letter_pool()
    tags = {"equal-words": 0, "a-words-differ": 0, "b-words-differ": 0,
            "both-differ": 0}
    verified = 0
    while verified < 500:
        g = _random_nf(m, rng, rng.randint(0, 2), rng.randint(0, 2))
        shape = verified % 4
        if shape == 0:      # same words, base elements forced apart
            h = NormalForm(g.v, 1 - g.s, g.u, m)
        elif shape == 1:    # same B-side, fresh A-side
            h = NormalForm(g.v, rng.randint(0, 1),
                           g.u + (ALetter(3, rng.randint(0, 1)),), m)
        elif shape == 2:    # same A-side, fresh B-side
            h = NormalForm(g.v + (BLetter(3, rng.randint(0, 1)),),
                           rng.randint(0, 1), g.u, m)
        else:
            h = _random_nf(m, rng, rng.randint(0, 2), rng.randint(0, 2))
        if g == h:
            continue
        w1, w2 = rng.choice(pool), rng.choice(pool)
        expr = byleen.span_witness(m, g, h, w1, w2)
        assert expr.evaluate() == (byleen.letter_nf(m, w1), byleen.letter_nf(m, w2))
        tags[expr.case] += 1
        verified += 1
    expressed = 0
    g = NormalForm((BLetter(0, 0),), 1, (ALetter(0, 0),), m)
    h = NormalForm((), 0, (ALetter(1, 1),), m)
    while expressed < 200:
        p = _random_nf(m, rng, rng.randint(0, 2), rng.randint(0, 2))
        q = _random_nf(m, rng, rng.randint(0, 2), rng.randint(0, 2))
        expr = byleen.express_pair(m, g, h, p, q)
        assert expr.evaluate() == (p, q)
        expressed += 1
    elapsed = time.perf_counter() - start
    proof_cases = {"equal-words": tags["equal-words"],
                   "one-side-differs": tags["a-words-differ"] + tags["b-words-differ"],
                   "both-differ": tags["both-differ"]}
    ok = all(v >= 50 for v in proof_cases.values()) and elapsed < 60
    _line(6, ok, f"500 spans + 200 pair expressions verified; case tags {tags}; "
                 f"{elapsed:.1f}s")


def test_criterion_7_inverses():
    m = byleen.TwoTransitiveMatrix(finite.cyclic_group(2))
    rng = random.Random(11)
    for _ in range(200):
        t = _random_nf(m, rng, rng.randint(0, 3), rng.randint(0, 3))
        inv = byleen.inverse_of(m, t)
        assert byleen.nf_mul(byleen.nf_mul(t, inv), t) == t
        assert byleen.nf_mul(byleen.nf_mul(inv, t), inv) == inv
    _line(7, True, "200 random elements: both sandwich identities hold")


def test_criterion_8_infinite_models():
    for name, suite in infinite.MODELS.items():
        assert all(c["pass"] for c in suite()), name

    w = infinite.baer_levi_witness()
    pattern = (w["fg"], w["gh"], w["fh"])
    assert pattern == (True, True, False)
    assert w["fg_intersection"] == [4]
    assert set(w["gh_intersection"]) >= {n for n in range(41) if n % 4 == 1}
    assert infinite.apset_is_empty(
        infinite.apset_intersect(w["f"].complement, w["h"].complement))
    _line(8, True, f"model suites {sorted(infinite.MODELS)} + Baer-Levi {pattern}")


def test_criterion_9_quotients_and_pullbacks():
    subjects = [finite.cyclic_group(k) for k in range(1, 7)]
    subjects += [constructions.klein_four(), constructions.symmetric_group_3()]
    rng = random.Random(13)
    quotients_checked = 0
    for s in subjects:
        congruences = _all_congruences(s)
        quotient_data = []
        for sigma in congruences:
            q, class_of = constructions.quotient(s, sigma)
            assert finite.is_group(q)
            quotient_data.append((q, class_of))
            quotients_checked += 1
        for _ in range(50):
            q, class_of = rng.choice(quotient_data)
            rho = {(x, y) for x in range(q.order) for y in range(q.order)
                   if rng.random() < 0.5}
            if rng.random() < 0.5:
                rho |= {(x, x) for x in range(q.order)}
            rho_ps = relations.PairSet.from_pairs(q, rho)
            pulled = relations.PairSet.from_pairs(
                s, {(x, y) for x in range(s.order) for y in range(s.order)
                    if (class_of[x], class_of[y]) in rho})
            rep_q = relations.axiom_report(q, rho_ps)
            rep_s = relations.axiom_report(s, pulled)
            assert (rep_q.contains_diagonal and rep_q.is_subsemigroup) == \
                (rep_s.contains_diagonal and rep_s.is_subsemigroup)
    _line(9, True, f"{quotients_checked} quotients are groups; "
                   "pullback is a diagonal subsemigroup iff the original is "
                   "(50 samples per subject)")

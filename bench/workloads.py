"""Seeded job lists for the four benchmark workloads.

Every input is built here from its definition, without calling the library,
so the answer each job must give is known by construction and travels with
the job as ``expect``.  The seed only varies details (element labels,
sandwich matrices, letters, the order of Baer-Levi generators); the shape of
each job list -- how many jobs of which family, order and word length -- is
fixed, so runs with different seeds do comparable work.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("enumerate-small", "check-large", "byleen-certs", "infinite-models")

# A run makes at least this many passes over its job list.
MIN_PASSES = 3


def tail_percentile(jobs_per_pass):
    """The highest of a fixed set of percentiles that leaves at least ten of
    the jobs of MIN_PASSES passes beyond it."""
    jobs = MIN_PASSES * jobs_per_pass
    return max((p for p in (75, 90, 95, 98, 99) if jobs * (100 - p) >= 1000), default=50)

# Golden results of the order-3 and order-4 sweeps.
ORACLE = {
    3: {"order": 3, "tables": 113, "groups": 3, "oracle": "pass",
        "witness_strategies": {"ideal": 108, "rees-L": 1, "rees-R": 1}},
    4: {"order": 4, "tables": 3492, "groups": 16, "oracle": "pass",
        "witness_strategies": {"ideal": 3444, "rees-L": 13, "rees-R": 19}},
}
COUNT = {
    3: {"order": 3, "labeled": 113, "isomorphism_classes": 24},
    4: {"order": 4, "labeled": 3492, "isomorphism_classes": 188},
}


@dataclass(frozen=True)
class Job:
    """One unit of work.

    kind "cli": ``args`` is the argv for ``sgdsc.cli.main``.
    kind "span": ``args`` is (base, g, h, w1, w2) for ``byleen.span_witness``.
    kind "baer-levi": ``args`` is four generator strings naming composites
    (f1, g1, f2, g2) for a rho-product check.
    """
    kind: str
    args: tuple
    expect: dict


# ---------------------------------------------------------------------------
# Cayley tables, row index = left factor

def cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def left_zero(n):
    return [[i] * n for i in range(n)]


def right_zero(n):
    return [list(range(n)) for _ in range(n)]


def chain(n):
    return [[min(i, j) for j in range(n)] for i in range(n)]


def null(n):
    return [[0] * n for _ in range(n)]


def s3():
    perms = list(itertools.permutations(range(3)))
    index = {p: k for k, p in enumerate(perms)}
    return [[index[tuple(q[p[x]] for x in range(3))] for q in perms] for p in perms]


def product(a, b):
    nb = len(b)
    n = len(a) * nb
    return [[a[x // nb][y // nb] * nb + b[x % nb][y % nb] for y in range(n)]
            for x in range(n)]


def with_zero(t):
    n = len(t)
    return [row + [n] for row in t] + [[n] * (n + 1)]


def with_identity(t):
    n = len(t)
    return [row + [i] for i, row in enumerate(t)] + [list(range(n + 1))]


def rees(i_size, k, j_size, sandwich):
    """Rees matrix semigroup I x C_k x J with sandwich[j][i] in C_k."""
    elems = [(i, g, j) for i in range(i_size) for g in range(k) for j in range(j_size)]
    index = {e: x for x, e in enumerate(elems)}
    return [[index[(i, (g + sandwich[j][i2] + h) % k, j2)] for (i2, h, j2) in elems]
            for (i, g, j) in elems]


def relabel(t, perm):
    n = len(t)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[t[i][j]]
    return out


# (name, table, is_group, witness strategy); every non-group is one of:
# not simple -> "ideal"; simple with several R-classes -> "rees-R";
# simple with one R-class -> "rees-L".
SMALL = [
    ("C2", cyclic(2), True, None),
    ("LZ2", left_zero(2), False, "rees-R"),
    ("RZ2", right_zero(2), False, "rees-L"),
    ("chain2", chain(2), False, "ideal"),
    ("null2", null(2), False, "ideal"),
    ("C3", cyclic(3), True, None),
    ("LZ3", left_zero(3), False, "rees-R"),
    ("RZ3", right_zero(3), False, "rees-L"),
    ("chain3", chain(3), False, "ideal"),
    ("null3", null(3), False, "ideal"),
    ("C2^0", with_zero(cyclic(2)), False, "ideal"),
    ("LZ2^1", with_identity(left_zero(2)), False, "ideal"),
    ("C4", cyclic(4), True, None),
    ("C2xC2", product(cyclic(2), cyclic(2)), True, None),
    ("LZ4", left_zero(4), False, "rees-R"),
    ("RZ4", right_zero(4), False, "rees-L"),
    ("LZ2xRZ2", product(left_zero(2), right_zero(2)), False, "rees-R"),
    ("LZ2xC2", product(left_zero(2), cyclic(2)), False, "rees-R"),
    ("RZ2xC2", product(right_zero(2), cyclic(2)), False, "rees-L"),
    ("chain4", chain(4), False, "ideal"),
    ("null4", null(4), False, "ideal"),
    ("C3^0", with_zero(cyclic(3)), False, "ideal"),
    ("chain2xC2", product(chain(2), cyclic(2)), False, "ideal"),
]


def _large_families(rng, quick):
    """Tables of order 16..144: (name, table, is_group, strategy)."""
    def sandwich(i_size, k, j_size):
        return [[rng.randrange(k) for _ in range(i_size)] for _ in range(j_size)]

    groups = [("C4xC4", (4, 4)), ("S3xC4", (None, 4)), ("C6xC6", (6, 6)),
              ("S3xC8", (None, 8)), ("C8xC8", (8, 8)), ("S3xC12", (None, 12)),
              ("S3xC16", (None, 16)), ("C12xC12", (12, 12))]
    rees_r = [(2, 4, 2), (3, 4, 2), (4, 3, 3), (4, 4, 3), (4, 4, 4)]
    rees_l = [(4, 4), (8, 4), (4, 8), (6, 8)]
    zero = [16, 32, 64, 96]
    chains = [(2, 8), (8, 4), (4, 8)]
    if quick:
        groups, rees_r, rees_l, zero, chains = groups[:2], rees_r[:1], rees_l[:1], zero[:1], chains[:1]
    out = []
    for name, (a, b) in groups:
        t = product(s3() if a is None else cyclic(a), cyclic(b))
        out.append((name, t, True, None))
    for (i, k, j) in rees_r:
        out.append((f"M[C{k};{i}x{j}]", rees(i, k, j, sandwich(i, k, j)), False, "rees-R"))
    for (m, k) in rees_l:
        out.append((f"RZ{m}xC{k}", product(right_zero(m), cyclic(k)), False, "rees-L"))
    for k in zero:
        out.append((f"C{k}^0", with_zero(cyclic(k)), False, "ideal"))
    for (c, k) in chains:
        out.append((f"chain{c}xC{k}", product(chain(c), cyclic(k)), False, "ideal"))
    return out


def _table_jobs(families, rng, workdir, brute_every):
    """check (every ``brute_every``-th with --brute) on each table, witness on non-groups."""
    jobs = []
    for idx, (name, table, is_group, strategy) in enumerate(families):
        perm = list(range(len(table)))
        rng.shuffle(perm)
        table = relabel(table, perm)
        path = os.path.join(workdir, f"t{idx:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"order": len(table), "table": table}, fh)
        expect = {"name": name, "table": table, "group": is_group, "strategy": strategy}
        argv = ["check", path] + (["--brute"] if idx % brute_every == 0 else [])
        jobs.append(Job("cli", tuple(argv), expect))
        if not is_group:
            jobs.append(Job("cli", ("witness", path), expect))
    return jobs


def enumerate_small(rng, workdir, quick):
    orders = (3,) if quick else (3, 4)
    jobs = []
    for n in orders:
        jobs.append(Job("cli", ("enumerate", str(n), "--oracle"), {"golden": ORACLE[n]}))
        jobs.append(Job("cli", ("enumerate", str(n), "--count"), {"golden": COUNT[n]}))
    copies = 1 if quick else 4
    families = [f for f in SMALL for _ in range(copies)]
    if quick:
        families = [f for f in families if len(f[1]) <= 3]
    rng.shuffle(families)
    return jobs + _table_jobs(families, rng, workdir, brute_every=1)


def check_large(rng, workdir, quick):
    families = _large_families(rng, quick)
    rng.shuffle(families)
    return _table_jobs(families, rng, workdir, brute_every=3)


# ---------------------------------------------------------------------------
# Byleen words.  A letter is ("a"|"b", n, s) or ("s", s); words render in the
# CLI mini-language.

def _token(letter):
    if letter[0] == "s":
        return f"s{letter[1]}"
    return f"{letter[0]}({letter[1]},s{letter[2]})"


def render(word):
    return " ".join(map(_token, word))


def _letters(rng, kind, count, order, avoid=()):
    """``count`` distinct letters of one kind, none of them in ``avoid``.

    Indices start at 2: the certificate construction uses its own letters
    with index 0 and 1, and a word letter equal to one of them sends it down
    a shorter path, so the cost would depend on the seed.
    """
    pool = [(kind, n, s) for n in range(2, 10) for s in range(order)
            if (kind, n, s) not in avoid]
    return tuple(rng.sample(pool, count))


def _span_pair(rng, case, length, order):
    """Normal forms g = v s u and h = y t x that fall into the given case.

    Letters are pairwise distinct, so the certificate construction takes the
    same path for every seed and only the letter values vary.
    """
    v = _letters(rng, "b", length, order)
    u = _letters(rng, "a", length, order)
    s = rng.randrange(order)
    t = rng.randrange(order)
    y, x = v, u
    if case == "equal-words":
        t = 1 - s
    if case in ("a-words-differ", "both-differ"):
        x = _letters(rng, "a", length, order, avoid=u)
    if case in ("b-words-differ", "both-differ"):
        y = _letters(rng, "b", length, order, avoid=v)
    return v + (("s", s),) + u, y + (("s", t),) + x


def _target(rng, order):
    kind = rng.choice("abs")
    if kind == "s":
        return ("s", rng.randrange(order))
    return (kind, rng.randrange(4), rng.randrange(order))


CASES = ("equal-words", "a-words-differ", "b-words-differ", "both-differ")


def _random_word(rng, length, order):
    word = []
    for _ in range(length):
        kind = rng.choice("aabbs")
        word.append(("s", rng.randrange(order)) if kind == "s"
                    else (kind, rng.randrange(4), rng.randrange(order)))
    return tuple(word)


def _normal_word(rng, length, order):
    v = tuple(("b", rng.randrange(4), rng.randrange(order)) for _ in range(length))
    u = tuple(("a", rng.randrange(4), rng.randrange(order)) for _ in range(rng.randint(0, length)))
    return v + (("s", rng.randrange(order)),) + u


def byleen_certs(rng, workdir, quick):
    """Span certificates for lengths 1..8 plus eval, mul and inverse.

    Spans of words longer than 3 run through the library: the CLI renders
    stage indices in decimal, and from word length 5 on (for some letters
    already at 4) they exceed Python's 4300-digit int-to-str limit, so
    ``sg byleen span`` exits 2 there.
    """
    jobs = []
    cli_lengths = (1, 2) if quick else (1, 2, 3)
    # Span cost climbs about 4x a letter, so the slowest jobs are single
    # spans of distinct cost, and the one job_tail_ms lands on would set it
    # with its seed's letters alone.  Length 6 runs twice in the three
    # "differ" cases: six jobs of similar cost then hold the tail percentile.
    lib_lengths = {c: (4,) for c in CASES} if quick else {
        "equal-words": (4, 5, 6, 7, 8), "a-words-differ": (4, 5, 6, 6, 7, 8),
        "b-words-differ": (4, 5, 6, 6, 7), "both-differ": (4, 5, 6, 6, 7)}
    for base, order in (("c2", 2), ("trivial", 1)):
        for case in CASES:
            if case == "equal-words" and order == 1:
                continue  # needs two distinct base elements
            for length in cli_lengths:
                for _ in range(2 if order == 2 else 1):
                    g, h = _span_pair(rng, case, length, order)
                    w1, w2 = _target(rng, order), _target(rng, order)
                    argv = ("byleen", "span", render(g), render(h), render((w1,)),
                            render((w2,)), "--base", base)
                    jobs.append(Job("cli", argv, {"base": base, "case": case,
                                                  "g": g, "h": h, "w1": w1, "w2": w2}))
    for case in CASES:
        for length in lib_lengths[case]:
            g, h = _span_pair(rng, case, length, 2)
            w1, w2 = _target(rng, 2), _target(rng, 2)
            jobs.append(Job("span", ("c2", g, h, w1, w2),
                            {"base": "c2", "case": case, "g": g, "h": h, "w1": w1, "w2": w2}))
    count = 4 if quick else 40
    for i in range(count):
        base, order = ("c2", 2) if i % 4 else ("trivial", 1)
        length = 2 + i % 11
        w = _random_word(rng, length, order)
        jobs.append(Job("cli", ("byleen", "eval", render(w), "--base", base),
                        {"base": base, "words": (w,)}))
        x, y = _random_word(rng, length, order), _normal_word(rng, 1 + i % 4, order)
        jobs.append(Job("cli", ("byleen", "mul", render(x), render(y), "--base", base),
                        {"base": base, "words": (x, y)}))
        if i % 4 != 3:
            t = _normal_word(rng, 1 + i % 6, order)
            jobs.append(Job("cli", ("byleen", "inverse", render(t), "--base", base),
                            {"base": base, "words": (t,)}))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# Infinite models

# Composite depths (f1, g1, f2, g2).  Every slot composes the same number of
# maps, so jobs cost about the same and every seed composes as much.
BL_DEPTHS = ((1, 1, 1, 1), (2, 2, 0, 0), (0, 0, 2, 2), (2, 0, 2, 0),
             (0, 2, 0, 2), (2, 1, 1, 0), (1, 2, 0, 1), (0, 1, 1, 2),
             (1, 0, 2, 1), (2, 0, 1, 1), (1, 1, 2, 0), (0, 2, 1, 1))

# Every job composes the same multiset of generators, in a seeded order.
BL_LETTERS = "ffggghhh"

# A composite's image complement contains that of its last map, so the pair
# lies in rho whenever the last maps' complements meet; only f and h have
# disjoint complements.
_DISJOINT = {"f", "h"}


def _bl_job(rng, depths):
    """Composites (f1, g1, f2, g2) with the given depths, both pairs in rho."""
    while True:
        letters = rng.sample(BL_LETTERS, len(BL_LETTERS))
        specs, start = [], 0
        for d in depths:
            specs.append("".join(letters[start:start + d + 1]))
            start += d + 1
        if all({a[-1], b[-1]} != _DISJOINT for a, b in (specs[:2], specs[2:])):
            return tuple(specs)


def infinite_models(rng, workdir, quick):
    models = ("z", "baer-levi") if quick else ("bicyclic", "bruck-reilly", "baer-levi", "z")
    jobs = [Job("cli", ("models", name), {"model": name}) for name in models]
    for depths in BL_DEPTHS[:2] if quick else BL_DEPTHS:
        jobs.append(Job("baer-levi", _bl_job(rng, depths), {"member": True}))
    rng.shuffle(jobs)
    return jobs


GENERATORS = {
    "enumerate-small": enumerate_small,
    "check-large": check_large,
    "byleen-certs": byleen_certs,
    "infinite-models": infinite_models,
}


def make_jobs(workload, seed, workdir, quick=False):
    """The job list of one pass; table files are written into ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, workdir, quick)

"""Semigroups and relations the tests build their inputs from.

The library decides and certifies DSC for a table it is given; these
constructions make the tables and relations the tests feed it.  This file is
not collected by pytest (its name does not start with ``test_``); test files
import it as ``import constructions``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from sgdsc import finite, relations
from sgdsc.byleen import ALetter, BLetter, SElem
from sgdsc.finite import FiniteSemigroup, OutOfRange, SemigroupError, validate_cayley


class NotInverse(SemigroupError):
    pass


class NotACongruence(SemigroupError):
    pass


def to_json(s: FiniteSemigroup) -> str:
    return json.dumps({"order": s.order, "table": [list(r) for r in s.table]}, sort_keys=True)


def relabel(s: FiniteSemigroup, perm: Sequence[int]) -> FiniteSemigroup:
    """Apply the relabeling x -> perm[x]."""
    n = s.order
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[perm[i]][perm[j]] = perm[s.table[i][j]]
    return FiniteSemigroup(n, tuple(tuple(r) for r in table))


def natural_partial_order(s: FiniteSemigroup) -> relations.PairSet:
    """Pair set {(x,y) : x = e·y for some idempotent e} on an inverse semigroup."""
    if not finite.is_inverse(s):
        raise NotInverse("natural_partial_order requires an inverse semigroup")
    es = finite.idempotents(s)
    # the diagonal is among these pairs: x = (x·x⁻¹)·x with x·x⁻¹ idempotent
    return relations.PairSet.from_pairs(
        s, [(s.table[e][y], y) for e in es for y in range(s.order)])


def greens_d(gd: finite.GreensData) -> tuple[int, ...]:
    """Green's D, the join of R and L: the connected components of "same R-class
    or same L-class", numbered by least member like the library's classes."""
    r, l = gd.r_class, gd.l_class
    n = len(r)
    root = [-1] * n
    for x in range(n):
        if root[x] < 0:
            root[x] = x
            stack = [x]
            while stack:
                y = stack.pop()
                for z in range(n):
                    if root[z] < 0 and (r[z] == r[y] or l[z] == l[y]):
                        root[z] = x
                        stack.append(z)
    ids: dict = {}
    return tuple(ids.setdefault(x, len(ids)) for x in root)


def count_diagonal_subsemigroups(s: FiniteSemigroup) -> int:
    """Number of multiplication-closed supersets of the diagonal (order <= 4
    unless relations.SUBSET_SCAN_MAX_ORDER is raised)."""
    return sum(1 for _ in relations._closed_masks(s))


def closed_masks_unfiltered(s: FiniteSemigroup) -> Iterator[int]:
    """relations._closed_masks without its one-step filter or its order cap:
    NextClosure closing every candidate p not in the mask, the reference the
    filtered scan must match mask for mask."""
    n = s.order
    diag = sum(1 << x * (n + 1) for x in range(n))
    off = [p for p in range(n * n) if not diag >> p & 1]
    mask = diag
    while True:
        yield mask
        for p in off:
            if mask >> p & 1:
                continue
            high = mask >> p + 1
            start = high << p + 1 | diag | 1 << p
            reached = finite._pair_orbit(s.table, [q for q in range(n * n) if start >> q & 1])[1]
            nxt = sum(map((1).__lshift__, reached))
            if nxt >> p + 1 == high:
                mask = nxt
                break
        else:
            return


# ---------------------------------------------------------------------------
# Constructions

@dataclass(frozen=True)
class ReesSpec:
    group: FiniteSemigroup
    i_size: int
    j_size: int
    sandwich: tuple[tuple[int, ...], ...]  # j_size x i_size, group element indices

    def __post_init__(self):
        if not finite.is_group(self.group):
            raise SemigroupError("ReesSpec.group must be a group")
        if self.i_size < 1 or self.j_size < 1:
            raise SemigroupError("index sets must be non-empty")
        if len(self.sandwich) != self.j_size or \
                any(len(row) != self.i_size for row in self.sandwich):
            raise SemigroupError("sandwich matrix dimensions must be J x I")
        for row in self.sandwich:
            for g in row:
                if not (0 <= g < self.group.order):
                    raise OutOfRange(g)


def rees_matrix(spec: ReesSpec) -> FiniteSemigroup:
    """Rees matrix semigroup on I x G x J: (i,g,j)(k,h,l) = (i, g·p[j][k]·h, l)."""
    g = spec.group
    elems = [(i, a, j) for i in range(spec.i_size)
             for a in range(g.order) for j in range(spec.j_size)]
    index = {e: k for k, e in enumerate(elems)}
    n = len(elems)
    table = [[0] * n for _ in range(n)]
    for x, (i, a, j) in enumerate(elems):
        for y, (k, b, l) in enumerate(elems):
            mid = g.table[g.table[a][spec.sandwich[j][k]]][b]
            table[x][y] = index[(i, mid, l)]
    return validate_cayley(n, table)


def sandwich(s: FiniteSemigroup, a: int) -> FiniteSemigroup:
    """Variant of S with multiplication x∘y = x·a·y."""
    if not (0 <= a < s.order):
        raise OutOfRange(a)
    table = [[s.table[s.table[x][a]][y] for y in range(s.order)]
             for x in range(s.order)]
    return validate_cayley(s.order, table)


def quotient(s: FiniteSemigroup, pairs: Iterable[tuple[int, int]]):
    """Quotient by a congruence given as a set of pairs.

    Returns (quotient semigroup, class map).  Raises NotACongruence if the
    pair set is not an equivalence compatible with multiplication.
    """
    rel = relations.PairSet.from_pairs(s, [*pairs, *((x, x) for x in range(s.order))])
    rep = relations.axiom_report(s, rel)
    if not rep.is_symmetric:
        raise NotACongruence("relation is not symmetric")
    if not rep.is_transitive:
        raise NotACongruence("relation is not transitive")
    if not rep.is_subsemigroup:
        raise NotACongruence("relation is not compatible")
    # rel is an equivalence, so row x is the bitset of x's class, and
    # numbering rows by first occurrence orders the classes by least member
    ids: dict = {}
    class_of = [ids.setdefault(row, len(ids)) for row in rel.rows]
    m = len(ids)
    classes: list[list[int]] = [[] for _ in range(m)]
    for x, cid in enumerate(class_of):
        classes[cid].append(x)
    table = [[class_of[s.table[classes[a][0]][classes[b][0]]] for b in range(m)]
             for a in range(m)]
    return validate_cayley(m, table), class_of


def direct_product(a: FiniteSemigroup, b: FiniteSemigroup) -> FiniteSemigroup:
    elems = [(i, j) for i in range(a.order) for j in range(b.order)]
    index = {e: k for k, e in enumerate(elems)}
    table = [[index[(a.table[i][k], b.table[j][l])] for (k, l) in elems]
             for (i, j) in elems]
    return validate_cayley(len(elems), table)


# ---------------------------------------------------------------------------
# Canned subjects

def left_zero(n: int) -> FiniteSemigroup:
    return validate_cayley(n, [[i] * n for i in range(n)])


def right_zero(n: int) -> FiniteSemigroup:
    return validate_cayley(n, [list(range(n))] * n)


def null_semigroup(n: int) -> FiniteSemigroup:
    """Every product is 0."""
    return validate_cayley(n, [[0] * n] * n)


def adjoin_zero(s: FiniteSemigroup) -> FiniteSemigroup:
    """S with a zero adjoined as element s.order."""
    n = s.order
    return validate_cayley(n + 1, [row + (n,) for row in s.table] + [(n,) * (n + 1)])


def adjoin_identity(s: FiniteSemigroup) -> FiniteSemigroup:
    """S with an identity adjoined as element s.order."""
    n = s.order
    return validate_cayley(n + 1, [row + (x,) for x, row in enumerate(s.table)]
                           + [tuple(range(n + 1))])


def xor_group(k: int) -> FiniteSemigroup:
    """C2^k, the elementary abelian group of order 2^k, as XOR on 0..2^k - 1."""
    n = 1 << k
    return validate_cayley(n, [[i ^ j for j in range(n)] for i in range(n)])


def klein_four() -> FiniteSemigroup:
    return xor_group(2)


def min_semilattice() -> FiniteSemigroup:
    return validate_cayley(2, [[0, 0], [0, 1]])


def symmetric_group_3() -> FiniteSemigroup:
    perms = list(itertools.permutations(range(3)))
    index = {p: k for k, p in enumerate(perms)}
    # compose left-to-right: (p*q)(x) = q(p(x))
    table = [[index[tuple(q[p[x]] for x in range(3))] for q in perms] for p in perms]
    return validate_cayley(6, table)


def generate_symmetric_inverse(n: int) -> FiniteSemigroup:
    """Monoid of all partial injections on {1..n} under left-to-right composition."""
    if n > 3:
        raise finite.TooLarge(f"symmetric inverse monoid capped at n=3, got {n}")
    maps = []
    for size in range(n + 1):
        for dom in itertools.combinations(range(n), size):
            for img in itertools.permutations(range(n), size):
                maps.append(tuple(zip(dom, img)))
    maps.sort(key=lambda m: (len(m), m))
    index = {m: k for k, m in enumerate(maps)}

    def compose(f, g):
        # apply f first, then g (right-action convention)
        gd = dict(g)
        return tuple((d, gd[v]) for (d, v) in f if v in gd)

    return validate_cayley(len(maps), [[index[compose(f, g)] for g in maps] for f in maps])


def letter_pool() -> list:
    """The letters a(n,si), b(n,si) for n <= 2, i <= 1, and s0, s1: the
    alphabet of random words over the Byleen monoid on C2."""
    return [*(ALetter(n, s) for n in range(3) for s in range(2)),
            *(BLetter(n, s) for n in range(3) for s in range(2)), SElem(0), SElem(1)]


# ---------------------------------------------------------------------------
# Byleen stage codec on bit strings: the oracle the int codec is tested against

def _gamma(x: int) -> str:
    b = bin(x + 1)[2:]
    return "0" * (len(b) - 1) + b


def _delta(x: int) -> str:
    b = bin(x + 1)[2:]
    return _gamma(len(b) - 1) + b[1:]


def string_encode(parts: Sequence[int]) -> int:
    """The stage "1" δ(kind) δ(n1) δ(s1) δ(n2) δ(s2) δ(c1) f [δ(c2)] δ(skip)."""
    kind, n1, s1, n2, s2, c1, c2, skip = parts
    head = "".join(_delta(x) for x in (kind, n1, s1, n2, s2, c1))
    colour2 = "1" if c2 == c1 else "0" + _delta(c2)
    return int("1" + head + colour2 + _delta(skip), 2)


def _delta_at(bits: str, pos: int) -> tuple[int, int]:
    """The δ codeword starting at bits[pos] as (value, end); end -1 if cut short."""
    one = bits.find("1", pos)
    mid = 2 * one - pos + 1  # end of the gamma code of the payload length
    if one < 0 or mid > len(bits):
        return 0, -1
    end = mid + int(bits[one:mid], 2) - 1
    if end > len(bits):
        return 0, -1
    return int("1" + bits[mid:end], 2) - 1, end


def string_decode(t: int) -> Optional[tuple[int, ...]]:
    """The requirement whose canonical code is t, or None."""
    if t < 1:
        return None
    bits = bin(t)[3:]
    out = []
    pos = 0
    for _ in range(6):
        x, pos = _delta_at(bits, pos)
        if pos < 0:
            return None
        out.append(x)
    if bits[pos:pos + 1] == "1":
        out.append(out[5])
        pos += 1
    else:
        c2, pos = _delta_at(bits, pos + 1)
        if pos < 0 or c2 == out[5]:
            return None
        out.append(c2)
    skip, pos = _delta_at(bits, pos)
    if pos != len(bits):
        return None
    out.append(skip)
    return tuple(out)

"""Finite semigroups as validated Cayley tables.

Elements are dense integer indices 0..order-1.
Everything here is immutable after construction and safe to share: the
value classes derive from ``_Value``, whose ``__setattr__`` and
``__delattr__`` raise AttributeError, so only a constructor sets fields,
through ``object.__setattr__``.  A
table's derived structure (generators, Cayley graphs, J-components, Green's
classes) is computed on first use and kept by that table object.  The
predicates ``is_simple``, ``proper_ideal``, ``identity_index`` and
``is_group`` are each the one definition of their fact and keep nothing;
they read that structure, not the table: the kernel (least ideal) is the
first J-class Tarjan's search closes, S is simple when the kernel is all of
S, and a group when it is simple with one R-class and one L-class.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from collections.abc import Iterable, Iterator, Sequence

# Largest order from_json accepts; checked before any table loop runs.  Light's
# test costs |G|·d·n for a generating set G and d distinct rows: up to order 256
# as bytes.translate calls, above that as n-entry itemgetter gathers.  So a
# table of rank n with all rows distinct at this cap (LZ_1024) takes tens of
# seconds to validate, and one with a single distinct row (RZ_1024) under one.
MAX_ORDER = 1024

# Most bytes a table file may hold; the CLI reads no further.  A table at
# MAX_ORDER takes about 5.2 MB as json.dumps writes it and 11.5 MB indented
# by 2 with names, so every such table fits.
MAX_TABLE_BYTES = 16 * 2**20


class SemigroupError(Exception):
    pass


class OutOfRange(SemigroupError):
    def __init__(self, entry):
        super().__init__(f"table entry {entry} out of range")
        self.entry = entry


class NonAssociative(SemigroupError):
    def __init__(self, i, j, k):
        super().__init__(f"associativity fails at triple ({i},{j},{k})")
        self.triple = (i, j, k)


class TooLarge(SemigroupError):
    pass


# The library's value classes are plain classes on _Value, not frozen
# dataclasses, and no module imports dataclasses or typing.  @dataclass
# generates each class's methods with exec at import, about 0.5 ms a class,
# and the dataclasses module imports inspect.  With both modules, `import
# sgdsc.cli` after argparse and json took 24 ms; without them it takes 3 ms
# (Python 3.11, python -S, bytecode cached).  Every `sg` command pays that at
# start, against well under 1 ms of work on the paper's small inputs.
# A subclass lists its fields in _fields and sets them in its own __init__
# with _set.  byleen's letters, SElem and NormalForm, which the certificate
# search builds and compares in its loops, also write out __eq__ and
# __hash__: with one generic __init__ and __eq__ for all classes, byleen-certs
# ran 5-10% slower.
# Equality is field-wise within one class, and hashes are those of the field
# tuple, as a frozen dataclass has them.

_set = object.__setattr__


class _Value:
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FiniteSemigroup(_Value):
    _fields = ("order", "table")

    def __init__(self, order: int, table: tuple[tuple[int, ...], ...]):
        _set(self, "order", order)
        _set(self, "table", table)

    def __repr__(self):
        return f"FiniteSemigroup(order={self.order})"

    # The table's analysis.  Each part is computed on first use and kept by
    # this object, so the predicates and witness_non_dsc all read one
    # generating set, one pair of Cayley graphs, one list of J-components and
    # one GreensData, and what a caller never asks for is never computed.

    @functools.cached_property
    def _generators(self) -> list[int]:
        """The greedy generating set; validate_cayley stores the one it used."""
        return greedy_generators(self.table)

    @functools.cached_property
    def _cayley_graphs(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """Right and left Cayley graphs over the generating set G: x -> xg and
        x -> gx.

        By associativity, what x reaches in them is xS^1 and S^1x, and in
        their union S^1xS^1.
        """
        t, gens = self.table, self._generators
        cols = list(zip(*t))
        right = list(zip(*(cols[g] for g in gens)))
        left = list(zip(*(t[g] for g in gens)))
        return right, left

    @functools.cached_property
    def _j_components(self) -> list[int]:
        """Strongly connected components of the two-sided Cayley graph."""
        right, left = self._cayley_graphs
        return _scc([a + b for a, b in zip(right, left)])

    @functools.cached_property
    def _greens(self) -> GreensData:
        """R, L and J as strongly connected components of the right, left and
        two-sided Cayley graphs; H = R∧L."""
        r, l = (_classes_from_keys(_scc(graph)) for graph in self._cayley_graphs)
        j = _classes_from_keys(self._j_components)
        h = _classes_from_keys([(r[x], l[x]) for x in range(self.order)])
        return GreensData(r, l, j, h)


def validate_cayley(order: int, table: Sequence[Sequence[int]]) -> FiniteSemigroup:
    """Validate types, dimensions, entry range and associativity.

    Integers must be plain ints: bools and floats are rejected.  Associativity
    is Light's test over a greedy generating set G: (x·g)·y == x·(g·y) for
    g in G and all x, y, which costs |G|·order^2 instead of order^3 (on
    bytes up to order 256).  The elements passing it for all x, y form a
    subset closed under the product, so once G passes, every product of
    generators -- all of S -- does too.  On failure the same row scan over
    every element names the first failing (x, g), and the first column where
    the rows differ completes the lexicographically first triple.
    """
    if type(order) is not int or order < 1:
        raise SemigroupError("order must be a positive integer")
    if not isinstance(table, (list, tuple)) \
            or not all(isinstance(row, (list, tuple)) for row in table):
        raise SemigroupError("table must be a list of rows")
    if len(table) != order or any(len(row) != order for row in table):
        raise SemigroupError("table dimensions do not match order")
    ints = [int] * order
    valid = frozenset(range(order))
    for row in table:
        # whole-row checks; a row that fails is scanned entry by entry
        # to name the first bad entry
        if list(map(type, row)) != ints or not valid.issuperset(row):
            _raise_first_bad_entry(row, order)
    rows = tuple(tuple(row) for row in table)
    gens = greedy_generators(rows)
    if _first_non_associative(rows, gens) is not None:
        x, g = _first_non_associative(rows, range(order))
        rxg, rx, rg = rows[rows[x][g]], rows[x], rows[g]
        raise NonAssociative(x, g, next(y for y in range(order) if rxg[y] != rx[rg[y]]))
    s = FiniteSemigroup(order, rows)
    _set(s, "_generators", gens)  # fills the cached property
    return s


def _raise_first_bad_entry(row: Sequence, order: int) -> None:
    for e in row:
        if type(e) is not int:
            raise SemigroupError(f"table entry {e!r} is not an integer")
        if not (0 <= e < order):
            raise OutOfRange(e)


def greedy_generators(rows: Sequence[Sequence[int]]) -> list[int]:
    """Generators of a table taken greedily in index order: x is a generator
    when it is not in the subsemigroup generated by the generators before it.

    Since the diagonal {(x, x)} is a copy of S, this is the orbit of
    ``_pair_orbit`` over the diagonal pairs, coded x*(n + 1); relations runs
    the same orbit for the closed-set enumerator.
    """
    n = len(rows)
    codes, _ = _pair_orbit(rows, range(0, n * n, n + 1))
    return [g // (n + 1) for g in codes]


def _pair_orbit(rows: Sequence[Sequence[int]], codes: Iterable[int]
                ) -> tuple[list[int], set[int]]:
    """Greedy generators of the pairs ``codes`` in S x S, and their right orbit.

    Pairs (x, y) are coded p = x*n + y.  A code not yet reached becomes a
    generator: every pair already reached is multiplied by it, then the new
    pairs by every generator (Froidure & Pin's right Cayley graph
    enumeration).  The orbit holds the left-bracketed products of the
    generators, so at the end the reached pairs are the subsemigroup they
    generate.  Returns the generator codes and the set of reached codes,
    sized to the orbit rather than to S x S.
    """
    n = len(rows)
    reached: set[int] = set()
    orbit: list[tuple[int, int]] = []
    gens: list[tuple[int, int]] = []
    for g in codes:
        if g in reached:
            continue
        old = len(orbit)
        new = [divmod(g, n)]
        gens += new
        reached.add(g)
        orbit += new
        # the pairs reached before g are multiplied by g, g and later pairs by
        # every generator; the loop runs on over the pairs it appends
        for i, (x, y) in enumerate(orbit):
            tx, ty = rows[x], rows[y]
            for (z, w) in (new if i < old else gens):
                p = tx[z] * n + ty[w]
                if p not in reached:
                    reached.add(p)
                    orbit.append(divmod(p, n))
    return [z * n + w for (z, w) in gens], reached


# The size of a bytes.translate table: tables up to this order are scanned as
# bytes, larger ones with itemgetter gathers.
_BYTES_MAX_ORDER = 256


def _first_non_associative(rows: Sequence[tuple[int, ...]], middles: Iterable[int]
                           ) -> tuple[int, int] | None:
    """The first (x, g), x ascending and then g in the order of ``middles``,
    for which row x·g differs from x·(g·y) over all y; None if every pair
    agrees.  Rows are compared whole: x·(g·y) over all y is row g passed
    through row x, by bytes.translate up to _BYTES_MAX_ORDER (row x padded to
    a 256-byte table) and by an itemgetter gather above.

    A row equal to an earlier row x' is skipped: x·g = x'·g and
    x·(g·y) = x'·(g·y), so (x, g) fails exactly when (x', g) does.
    """
    n = len(rows)
    if n <= _BYTES_MAX_ORDER:
        pad = bytes(256 - n)
        rows = [bytes(r) for r in rows]
        images = [(g, rows[g].translate) for g in middles]
    else:
        pad = ()
        images = [(g, operator.itemgetter(*rows[g])) for g in middles]
    seen = set()
    for x, rx in enumerate(rows):
        if rx in seen:
            continue
        seen.add(rx)
        tx = rx + pad
        for g, image in images:
            if image(tx) != rows[rx[g]]:
                return x, g
    return None


def from_json(text: str) -> FiniteSemigroup:
    """Parse the Cayley table JSON format; unknown keys are rejected.  The
    optional ``names`` key is validated once the table is, and not kept."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise SemigroupError("expected a JSON object")
    extra = set(obj) - {"order", "names", "table"}
    if extra:
        raise SemigroupError(f"unknown keys: {sorted(extra)}")
    if "order" not in obj or "table" not in obj:
        raise SemigroupError("missing required keys 'order' and 'table'")
    order = obj["order"]
    if type(order) is int and order > MAX_ORDER:
        raise TooLarge(f"order {order} exceeds the table input cap {MAX_ORDER}")
    s = validate_cayley(order, obj["table"])
    names = obj.get("names")
    if names is not None:
        if not isinstance(names, list) or not all(isinstance(nm, str) for nm in names):
            raise SemigroupError("names must be a list of strings")
        if len(names) != order:
            raise SemigroupError("names length does not match order")
    return s


# ---------------------------------------------------------------------------
# Green's relations

class GreensData(_Value):
    _fields = ("r_class", "l_class", "j_class", "h_class")

    def __init__(self, r_class: tuple[int, ...], l_class: tuple[int, ...],
                 j_class: tuple[int, ...], h_class: tuple[int, ...]):
        _set(self, "r_class", r_class)
        _set(self, "l_class", l_class)
        _set(self, "j_class", j_class)
        _set(self, "h_class", h_class)


def _classes_from_keys(keys: list) -> tuple[int, ...]:
    # class ids numbered by first occurrence
    ids: dict = {}
    out = []
    for k in keys:
        if k not in ids:
            ids[k] = len(ids)
        out.append(ids[k])
    return tuple(out)


def _scc(succ: Sequence[Sequence[int]]) -> list[int]:
    """Strongly connected components by an iterative Tarjan search.

    Components are numbered in the order Tarjan closes them, which is reverse
    topological: comp[y] <= comp[x] for every edge x -> y.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    visited = closed = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]  # w is still on the stack
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = closed
                        if w == v:
                            break
                    closed += 1
    return comp


def greens(s: FiniteSemigroup) -> GreensData:
    """R, L and J as strongly connected components of the right, left and two-sided
    Cayley graphs; H = R∧L."""
    return s._greens


# ---------------------------------------------------------------------------
# Structural predicates

def is_simple(s: FiniteSemigroup) -> bool:
    """One J-class: the kernel is all of S."""
    return max(s._j_components) == 0


def proper_ideal(s: FiniteSemigroup) -> frozenset[int] | None:
    """The kernel, S's least ideal, when it is proper; None when S is simple.

    Every element reaches the kernel in the two-sided Cayley graph, so it
    is the graph's only sink: J-component 0, the first Tarjan closes.
    Every principal ideal contains it, so it is also the smallest proper
    principal ideal.
    """
    if is_simple(s):
        return None
    return frozenset(x for x, c in enumerate(s._j_components) if c == 0)


def identity_index(s: FiniteSemigroup) -> int | None:
    """The e with eg = ge = g for every generator g, hence for all of S."""
    right, left = s._cayley_graphs
    gens = tuple(s._generators)
    return next((e for e in range(s.order) if right[e] == gens == left[e]), None)


def is_group(s: FiniteSemigroup) -> bool:
    """Simple, with one R-class and one L-class: then S is a single
    H-class, which holds an idempotent as S is finite, so S is a group
    (Green's theorem).  Simplicity is read first, so a table with a
    proper ideal never computes its Green's classes."""
    return is_simple(s) and max(s._greens.r_class) == max(s._greens.l_class) == 0


def idempotents(s: FiniteSemigroup) -> frozenset[int]:
    return frozenset(e for e in range(s.order) if s.table[e][e] == e)


def inverses_of(s: FiniteSemigroup, x: int) -> list[int]:
    out = []
    for t in range(s.order):
        if s.table[s.table[x][t]][x] == x and s.table[s.table[t][x]][t] == t:
            out.append(t)
    return out


def is_inverse(s: FiniteSemigroup) -> bool:
    """Every element has exactly one inverse.

    Decided as: every R-class and every L-class holds exactly one idempotent
    (Howie, Fundamentals of Semigroup Theory, Thm 5.1.1).  Class ids run
    0..k-1, so the idempotents' ids, sorted, must be exactly 0..k-1.
    """
    gd = s._greens
    es = idempotents(s)
    return all(sorted(cls[e] for e in es) == list(range(max(cls) + 1))
               for cls in (gd.r_class, gd.l_class))


# ---------------------------------------------------------------------------
# Enumeration and isomorphism classes

# Largest order enumerate_semigroups, semigroup_classes and count_semigroups accept.
MAX_ENUMERATION_ORDER = 5


def _associative_tables(n: int, symmetries: Sequence[Sequence[int]] = ()
                        ) -> Iterator[tuple[list[int], int]]:
    """Associative tables of order n, flat and row-major, in lexicographic order.

    Depth-first search that branches on the first unset cell, values
    ascending.  Each assigned cell is propagated through the associativity
    triples (x, y, z) it takes part in, as xy, yz, (xy)z or x(yz): once xy
    and yz are known, a known (xy)z forces x(yz) and the other way round,
    and two known ones must agree.  Every completion keeps the forced cells,
    so propagation prunes without reordering the output.  An undo trail
    restores the cells set below a branch.

    ``symmetries`` are permutations of 0..n-1 other than the identity.  A
    table T is produced only if no relabeling sigma(T) by one of them is
    lexicographically smaller (lex-leader pruning): at each node T and
    sigma(T) are compared cell by cell in row-major order while both cells
    are known, and the node is cut when sigma(T) is smaller.  The known
    cells stay as they are in every completion, so each sigma resumes where
    its comparison stopped at the parent node, and is dropped once sigma(T)
    is larger.  Given all n! - 1 of them, the search produces exactly the
    least table of each isomorphism class.  Each table comes with 1 + the
    number of symmetries that fix it; given all of them, that is the order
    of its automorphism group.  The table is the search's own list, valid until the generator
    resumes.
    """
    size = n * n
    t = [-1] * size
    trail: list[int] = []                               # assigned cells, in order
    holding: list[list[int]] = [[] for _ in range(n)]   # assigned cells by value
    row_of = [k // n for k in range(size)]
    col_of = [k % n for k in range(size)]
    row_at = [k - k % n for k in range(size)]           # flat index of (row, 0)
    col_at = [k % n * n for k in range(size)]           # flat index of (col, 0)
    span = range(n)
    starts = range(0, size, n)
    # (sigma, source cells, first cell to compare): sigma(T) at cell (a, b)
    # is sigma of T at (sigma^-1 a, sigma^-1 b)
    images = []
    for sigma in symmetries:
        inverse = [0] * n
        for x, y in enumerate(sigma):
            inverse[y] = x
        src = [inverse[k // n] * n + inverse[k % n] for k in range(size)]
        images.append((tuple(sigma), src, 0))

    def put(k: int, v: int) -> None:
        t[k] = v
        trail.append(k)
        holding[v].append(k)

    def unify(a: int, b: int) -> bool:
        """Cells a and b hold different values: set the unknown one, or fail."""
        x, y = t[a], t[b]
        if x < 0:
            put(a, y)
        elif y < 0:
            put(b, x)
        else:
            return False
        return True

    def assign(k: int, v: int) -> bool:
        """Set cell k to v and propagate; False on a contradiction."""
        put(k, v)
        head = len(trail) - 1
        while head < len(trail):
            k = trail[head]
            head += 1
            v = t[k]
            i, j = row_of[k], col_of[k]
            i_n, j_n, v_n = row_at[k], col_at[k], v * n
            for z in span:                  # k = xy: (v)z against x(yz)
                q = t[j_n + z]
                if q >= 0 and t[v_n + z] != t[i_n + q] and not unify(v_n + z, i_n + q):
                    return False
            for x_n in starts:              # k = yz: (xy)z against x(v)
                p = t[x_n + i]
                if p >= 0 and t[p * n + j] != t[x_n + v] and not unify(p * n + j, x_n + v):
                    return False
            for m in holding[i]:            # k = (xy)z with xy = m
                q = t[col_at[m] + j]
                if q >= 0 and t[row_at[m] + q] != v and not unify(k, row_at[m] + q):
                    return False
            for m in holding[j]:            # k = x(yz) with yz = m
                p = t[i_n + row_of[m]]
                if p >= 0 and t[p * n + col_of[m]] != v and not unify(p * n + col_of[m], k):
                    return False
        return True

    def undecided(live: list) -> tuple[list, int] | None:
        """The symmetries whose comparison a known cell still leaves open, each
        with the cell it stopped at, and how many fix the table; None when
        some image is smaller."""
        still = []
        fixing = 0
        for sigma, src, c in live:
            while c < size:
                a, s = t[c], t[src[c]]
                if a < 0 or s < 0:
                    still.append((sigma, src, c))
                    break
                b = sigma[s]
                if b != a:
                    if b < a:
                        return None
                    break
                c += 1
            else:
                fixing += 1
        return still, fixing

    # frames [cell, next value, trail length at entry, undecided symmetries]
    stack = [[0, 0, 0, images]]
    while stack:
        frame = stack[-1]
        k, v, mark, live = frame
        while len(trail) > mark:
            m = trail.pop()
            holding[t[m]].pop()
            t[m] = -1
        if v == n:
            stack.pop()
            continue
        frame[1] = v + 1
        if not assign(k, v):
            continue
        fixing = 0
        if live:
            result = undecided(live)
            if result is None:
                continue
            live, fixing = result
        while k < size and t[k] >= 0:
            k += 1
        if k == size:
            yield t, 1 + fixing
        else:
            stack.append([k, 0, len(trail), live])


def _check_enumeration_order(n: int) -> None:
    if type(n) is not int or n < 1:
        raise SemigroupError("order must be a positive integer")
    if n > MAX_ENUMERATION_ORDER:
        raise TooLarge(f"enumeration capped at order {MAX_ENUMERATION_ORDER}, got {n}")


def _semigroup(n: int, t: list[int]) -> FiniteSemigroup:
    return FiniteSemigroup(n, tuple(tuple(t[r:r + n]) for r in range(0, n * n, n)))


def enumerate_semigroups(n: int) -> Iterator[FiniteSemigroup]:
    """All labeled associative tables of order n (1 <= n <= 5).

    Tables come in lexicographic order of their rows, from the propagating
    search of ``_associative_tables``.
    """
    _check_enumeration_order(n)
    for t, _ in _associative_tables(n):
        yield _semigroup(n, t)


def semigroup_classes(n: int) -> Iterator[tuple[FiniteSemigroup, int]]:
    """One semigroup of each isomorphism class of order n (1 <= n <= 5) with
    the order of its automorphism group.

    Each is the lexicographically least table of its class, from the
    lex-leader search of ``_associative_tables`` over every relabeling; its
    class holds n!/|Aut| labeled tables.  Classes come in lexicographic order.
    """
    _check_enumeration_order(n)
    relabelings = itertools.permutations(range(n))
    next(relabelings)  # the identity
    for t, automorphisms in _associative_tables(n, list(relabelings)):
        yield _semigroup(n, t), automorphisms


def count_semigroups(n: int) -> tuple[int, int]:
    """(labeled tables, isomorphism classes) of order n (1 <= n <= 5): the
    classes' n!/|Aut| summed, and their number."""
    labeled = classes = 0
    for _, automorphisms in semigroup_classes(n):
        labeled += math.factorial(n) // automorphisms
        classes += 1
    return labeled, classes


# ---------------------------------------------------------------------------
# Canned subjects: the base monoids of the Byleen monoid and the Bruck-Reilly model

def cyclic_group(n: int) -> FiniteSemigroup:
    return validate_cayley(n, [[(i + j) % n for j in range(n)] for i in range(n)])


def trivial_monoid() -> FiniteSemigroup:
    return validate_cayley(1, [[0]])

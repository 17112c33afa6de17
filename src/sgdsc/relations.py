"""Pair-set relations over a finite semigroup.

A diagonal subsemigroup is a subsemigroup of S x S containing the diagonal;
a congruence is a diagonal subsemigroup that is also symmetric and transitive.
This module decides the DSC property ("every diagonal subsemigroup is a
congruence") both exhaustively and via the group criterion, and produces
certified witnesses for the failing cases.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterable, Iterator, Sequence

from . import finite
from .finite import FiniteSemigroup, TooLarge, _set, _Value


class IsGroup(finite.SemigroupError):
    pass


class PairSet(_Value):
    """A relation on a finite semigroup as row bitsets: bit y of ``rows[x]``
    is set when (x, y) is in it.  Iteration yields the pairs in sorted order,
    row by row and lowest bit first; ``in`` scans that iteration."""
    _fields = ("subject", "rows")

    def __init__(self, subject: FiniteSemigroup, rows: tuple[int, ...]):
        _set(self, "subject", subject)
        _set(self, "rows", rows)

    @staticmethod
    def from_pairs(subject: FiniteSemigroup, pairs: Iterable[tuple[int, int]]) -> "PairSet":
        """Pairs of plain ints (bools and floats are rejected) inside S, the
        first bad one named: OutOfRange if out of range, else SemigroupError."""
        n = subject.order
        rows = [0] * n
        for pair in pairs:
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and type(pair[0]) is int and type(pair[1]) is int):
                raise finite.SemigroupError(f"pair {pair!r} is not two integers")
            x, y = pair
            if not (0 <= x < n and 0 <= y < n):
                raise finite.OutOfRange((x, y))
            rows[x] |= 1 << y
        return PairSet(subject, tuple(rows))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for x, row in enumerate(self.rows):
            while row:
                low = row & -row
                yield x, low.bit_length() - 1
                row ^= low

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def sorted_pairs(self) -> list[list[int]]:
        return [[x, y] for (x, y) in self]

    @functools.cached_property
    def _report(self) -> AxiomReport:
        """axiom_report on the subject, computed once and kept with the pair set."""
        return axiom_report(self.subject, self)


_AXIOMS = ("contains_diagonal", "is_subsemigroup", "is_symmetric", "is_transitive")


def _holds(axiom: str) -> property:
    return property(lambda self: axiom not in self.violations,
                    doc=f"Whether {axiom} holds: no violation of it is recorded.")


class AxiomReport(_Value):
    """The first violation of each congruence axiom that fails, keyed by the
    axiom's name; an axiom holds exactly when its key is absent."""
    _fields = ("violations",)

    def __init__(self, violations: dict):
        _set(self, "violations", violations)

    contains_diagonal = _holds("contains_diagonal")
    is_subsemigroup = _holds("is_subsemigroup")
    is_symmetric = _holds("is_symmetric")
    is_transitive = _holds("is_transitive")

    @property
    def is_congruence(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {**{axiom: axiom not in self.violations for axiom in _AXIOMS},
                "violations": {k: list(v) for k, v in sorted(self.violations.items())}}


def _pair_set(s: FiniteSemigroup, mask: int) -> PairSet:
    """The pair set of a bitmask over pair codes p = x*n + y: its rows laid end to end."""
    n = s.order
    return PairSet(s, tuple(mask >> p & (1 << n) - 1 for p in range(0, n * n, n)))


def axiom_report(s: FiniteSemigroup, rho: PairSet) -> AxiomReport:
    """Check the four congruence axioms independently, recording first violations.

    Each axiom is one scan that stops at its first violation.  Symmetry reads
    rho's pairs in sorted order; transitivity compares rows, each distinct
    row once (_first_intransitive).  Closure of a preorder (reflexive and
    transitive) is _preorder_closed over S's generators.  Any other rho, or
    a preorder that is not closed, runs the lexicographic double loop over
    its pairs, which names the first failing (x, y, z, w) or finds none.
    """
    n, t = s.order, s.table
    if rho.subject.order != n:
        raise finite.SemigroupError(f"relation on order {rho.subject.order} checked on order {n}")
    rows = rho.rows
    found = {
        "contains_diagonal": next(((x, x) for x in range(n) if not rows[x] >> x & 1), None),
        "is_symmetric": _first_asymmetric(rho),
        "is_transitive": _first_intransitive(rows),
    }
    preorder = found["contains_diagonal"] is None and found["is_transitive"] is None
    if not (preorder and _preorder_closed(s, rows)):
        pairs = list(rho)
        found["is_subsemigroup"] = next(
            ((x, y, z, w) for (x, y) in pairs for (z, w) in pairs
             if not rows[t[x][z]] >> t[y][w] & 1), None)
    return AxiomReport({k: v for k, v in found.items() if v is not None})


def _first_asymmetric(rho: PairSet) -> tuple[int, int] | None:
    """The first (x, y) of rho in sorted order with (y, x) not in it, or None."""
    return next(((x, y) for (x, y) in rho if not rho.rows[y] >> x & 1), None)


def _first_intransitive(rows: Sequence[int]) -> tuple[int, int, int] | None:
    """The first (x, y, z) in order with (x, y) and (y, z) in the relation
    but (x, z) not, z smallest, or None when it is transitive.  Elements
    sharing a row fail alike, so only the first of them is tested."""
    tested: set[int] = set()
    for x, row in enumerate(rows):
        if row in tested:
            continue
        tested.add(row)
        ys = row
        while ys:
            low = ys & -ys
            y = low.bit_length() - 1
            missing = rows[y] & ~row
            if missing:
                return x, y, (missing & -missing).bit_length() - 1
            ys ^= low
    return None


def _preorder_closed(s: FiniteSemigroup, rows: Sequence[int]) -> bool:
    """Whether a reflexive, transitive relation, given by its rows, is a
    subsemigroup of S x S.

    It is exactly when (xg, yg) and (gx, gy) are in it for every (x, y) in it
    and every generator g: then it is closed under multiplication by any
    element on either side, and (xz, yz), (yz, yw) in it give (xz, yw) by
    transitivity.  So the image of row x under y -> yg must lie in row xg,
    and under y -> gy in row gx.  Each distinct row's image is taken once per
    generator, through the Cayley graphs' columns; a row {x} is skipped, as
    (xg, xg) is in the relation.
    """
    n = s.order
    xs_of: dict[int, list[int]] = {}
    for x, row in enumerate(rows):
        if row != 1 << x:
            xs_of.setdefault(row, []).append(x)
    bit = [1 << y for y in range(n)]
    # each row holds x and one more element, so itemgetter returns a tuple
    gets = [(operator.itemgetter(*(y for y in range(n) if row >> y & 1)), xs)
            for row, xs in xs_of.items()]
    for graph in s._cayley_graphs:  # right, then left
        for image_of in zip(*graph):  # image_of[y] = yg, or gy on the left graph
            for get, xs in gets:
                image = sum(map(bit.__getitem__, set(get(image_of))))
                if any(image & ~rows[image_of[x]] for x in xs):
                    return False
    return True


# ---------------------------------------------------------------------------
# DSC decisions

# Largest order the subset scan (brute_force_is_dsc) accepts.
SUBSET_SCAN_MAX_ORDER = 4


def _closed_masks(s: FiniteSemigroup) -> Iterator[int]:
    """Masks of the diagonal subsemigroups of S x S in increasing order (order <= 4).

    A mask has bit p = x*n + y set for (x, y).  Ganter's NextClosure over the
    off-diagonal pair bits, the highest bit the most significant: the
    successor of a closed mask A is the closure (what finite._pair_orbit
    reaches) of (A above p) ∪ Δ ∪ {p} for the lowest p not in A whose
    closure adds nothing above p.

    Before closing a candidate p = (a, b), its one-step images (ax, bx) and
    (xa, xb) over every x are looked up: 2n table entries, taken once per p
    per scan.  Every diagonal subsemigroup holding p holds them, so one of
    them above p and outside A makes the closure add a pair above p, and p
    is skipped unclosed.  The filter rejects only candidates the closure
    would reject, so the masks are the same, and most rejected candidates
    cost 2n lookups instead of a closure (C2^4: 352 closures for its 67
    masks, not 11 827).  The cost follows the number of closed masks, not
    2^(n^2 - n).
    """
    n = s.order
    if n > SUBSET_SCAN_MAX_ORDER:
        raise TooLarge(f"subset scan capped at order {SUBSET_SCAN_MAX_ORDER}, got {n}")
    t = s.table
    diag = sum(1 << x * (n + 1) for x in range(n))
    off = [p for p in range(n * n) if not diag >> p & 1]
    # p -> the mask of p's one-step images, shifted down past p
    above: dict[int, int] = {}
    mask = diag
    while True:
        yield mask
        for p in off:
            if mask >> p & 1:
                continue
            high = mask >> p + 1
            up = above.get(p)
            if up is None:
                a, b = divmod(p, n)
                ra, rb = t[a], t[b]
                up = 0
                for x, rx in enumerate(t):
                    up |= 1 << ra[x] * n + rb[x] | 1 << rx[a] * n + rx[b]
                up = above[p] = up >> p + 1
            if up & ~high:
                continue
            start = high << p + 1 | diag | 1 << p
            reached = finite._pair_orbit(t, [q for q in range(n * n) if start >> q & 1])[1]
            nxt = sum(map((1).__lshift__, reached))
            if nxt >> p + 1 == high:
                mask = nxt
                break
        else:
            return


def brute_force_is_dsc(s: FiniteSemigroup) -> tuple[bool, PairSet | None]:
    """Check every diagonal subsemigroup of S x S; complete for order <= 4.

    The diagonal subsemigroups come from NextClosure in increasing mask order,
    closed already; the first one that is not symmetric or not transitive
    (lowest mask), by axiom_report's own scans, is returned as the witness.
    NextClosure skips a candidate whose one-step images leave the mask above
    it without closing it, so the scan's cost follows the closed masks, plus
    2n lookups per skipped candidate.
    """
    for mask in _closed_masks(s):
        ps = _pair_set(s, mask)
        if _first_asymmetric(ps) or _first_intransitive(ps.rows):
            return False, ps
    return True, None


def is_dsc_fast(s: FiniteSemigroup) -> bool:
    """A finite semigroup is DSC exactly when it is a group."""
    return finite.is_group(s)


def witness_non_dsc(s: FiniteSemigroup) -> tuple[PairSet, tuple[int, int], str]:
    """A verified diagonal subsemigroup of S x S that is not symmetric.

    Non-simple S: rho = K x S ∪ Δ for the kernel K, S's least ideal.
    Simple non-group S (hence completely simple): all H-related pairs, plus
    the cross-pairs from R-class 0 to R-class 1 within a common L-class;
    dual over L-classes when there is a single R-class.  Class ids number
    classes by least member, so 0 and 1 are the two lowest.  The failing
    pair is the first asymmetric one, which axiom_report records.
    """
    if finite.is_group(s):
        raise IsGroup("witness_non_dsc requires a non-group")
    n = s.order
    ideal = finite.proper_ideal(s)
    if ideal is not None:
        rows = [(1 << n) - 1 if x in ideal else 1 << x for x in range(n)]
        strategy = "ideal"
    else:
        gd = finite.greens(s)
        r, l, h = gd.r_class, gd.l_class, gd.h_class
        major, minor, strategy = (r, l, "rees-R") if max(r) > 0 else (l, r, "rees-L")
        # row x: x's H-class, and for x in major class 0 the major class 1
        # members of x's minor class
        h_bits = [0] * (max(h) + 1)
        cross = [0] * (max(minor) + 1)
        for y in range(n):
            h_bits[h[y]] |= 1 << y
            if major[y] == 1:
                cross[minor[y]] |= 1 << y
        rows = [h_bits[h[x]] | (cross[minor[x]] if major[x] == 0 else 0) for x in range(n)]
    ps = PairSet(s, tuple(rows))
    rep = ps._report
    if not (rep.contains_diagonal and rep.is_subsemigroup):
        raise finite.SemigroupError(f"witness construction broke: {rep.violations}")
    if rep.is_symmetric:
        raise finite.SemigroupError("witness construction produced a symmetric relation")
    return ps, rep.violations["is_symmetric"], strategy


def witness_json(ps: PairSet, failing: tuple[int, int], strategy: str) -> dict:
    """The witness as JSON.  Its axioms are the report witness_non_dsc verified,
    kept with the pair set (computed here for a pair set from elsewhere)."""
    return {
        "strategy": strategy,
        "pairs": ps.sorted_pairs(),
        "failing_pair": list(failing),
        "axioms": ps._report.as_dict(),
    }

"""Executable models of the infinite counterexamples.

Covers the bicyclic monoid with its natural partial order, Bruck-Reilly
extensions over finite base monoids, the integer-order relation, and a fully
symbolic countable Baer-Levi semigroup whose elements carry their exact image
complements as decidable arithmetic-progression sets.  The witness suite of
each model is defined here, once, for the CLI and the tests.

The bicyclic, Bruck-Reilly and integer suites are proved exactly: each law
runs the library's own code on symbolic naturals (an integer is a - b with
a, b natural), one case per outcome of each comparison, and every case
where the law fails is refuted by Fourier-Motzkin elimination.  A
comparison that its signs decide (a constant >= 0 and every coefficient
>= 0, or a constant < 0 and every coefficient <= 0) takes its only feasible
outcome without a case.
For Bruck-Reilly extensions this proves that the projection to the bicyclic
monoid is a homomorphism for all naturals m and n, for each endomorphism
theta and each pair of base elements.  The proof reaches only theta whose
orbits have period 1, as both endomorphisms of C2 do: over a longer period
theta^k depends on k modulo the period, which linear arithmetic does not
express, and the prover raises TypeError.
"""

from __future__ import annotations

import math
from operator import add, neg, sub

from . import finite
from .finite import FiniteSemigroup, SemigroupError, _set, _Value, cyclic_group


class ThetaMismatch(SemigroupError):
    pass


# ---------------------------------------------------------------------------
# Bicyclic monoid

class BicyclicElement(_Value):
    _fields = ("m", "n")

    def __init__(self, m: int, n: int):
        if m < 0 or n < 0:
            raise SemigroupError("bicyclic coordinates must be non-negative")
        _set(self, "m", m)
        _set(self, "n", n)


def bicyclic_mul(x: BicyclicElement, y: BicyclicElement) -> BicyclicElement:
    k = max(x.n, y.m)
    return BicyclicElement(x.m - x.n + k, y.n - y.m + k)


def bicyclic_leq(x: BicyclicElement, y: BicyclicElement) -> bool:
    """Natural partial order: x = (k,k)·y for some idempotent (k,k).

    Closed form; the suite's closed_form_matches_search proves it equal to
    the defining search.
    """
    return x.m >= y.m and x.m - x.n == y.m - y.n


# ---------------------------------------------------------------------------
# Bruck-Reilly extension

class EndomorphismTable(_Value):
    """An endomorphism of a finite monoid, given elementwise."""
    _fields = ("base", "map")

    def __init__(self, base: FiniteSemigroup, map: tuple[int, ...]):
        e = finite.identity_index(base)
        if e is None:
            raise SemigroupError("EndomorphismTable.base must be a monoid")
        if len(map) != base.order:
            raise SemigroupError("map length must equal base order")
        if map[e] != e:
            raise SemigroupError("endomorphism must fix the identity")
        t = base.table
        for x in range(base.order):
            for y in range(base.order):
                if map[t[x][y]] != t[map[x]][map[y]]:
                    raise SemigroupError(f"map is not a homomorphism at ({x},{y})")
        _set(self, "base", base)
        _set(self, "map", map)


class BRElement(_Value):
    _fields = ("m", "s", "n", "theta")

    def __init__(self, m: int, s: int, n: int, theta: EndomorphismTable):
        if m < 0 or n < 0:
            raise SemigroupError("BR coordinates must be non-negative")
        if not (0 <= s < theta.base.order):
            raise SemigroupError("base element index out of range")
        _set(self, "m", m)
        _set(self, "s", s)
        _set(self, "n", n)
        _set(self, "theta", theta)


def theta_power(theta: EndomorphismTable, x: int, k: int) -> int:
    """θ^k(x) for k >= 0, in at most |base| + 1 steps whatever k is.

    k is used only in comparisons, except with an orbit of period > 1, where
    k is reduced modulo the period; so a symbolic k is exact when every
    period is 1.  Raises SemigroupError on k < 0, since θ need not be
    invertible.
    """
    if k < 0:
        raise SemigroupError("theta_power needs a non-negative exponent")
    orbit = []  # x's orbit up to its first repeat: a tail, then one period
    while x not in orbit:
        orbit.append(x)
        x = theta.map[x]
    tail = orbit.index(x)
    for i in range(tail):
        if k == i:
            return orbit[i]
    period = len(orbit) - tail
    return orbit[tail] if period == 1 else orbit[tail + (k - tail) % period]


def br_mul(x: BRElement, y: BRElement) -> BRElement:
    if x.theta is not y.theta and x.theta != y.theta:
        raise ThetaMismatch("operands built over different endomorphisms")
    k = max(x.n, y.m)
    t = x.theta.base.table
    mid = t[theta_power(x.theta, x.s, k - x.n)][theta_power(x.theta, y.s, k - y.m)]
    return BRElement(x.m - x.n + k, mid, y.n - y.m + k, x.theta)


def br_project(x: BRElement) -> BicyclicElement:
    return BicyclicElement(x.m, x.n)


def br_order_member(x: BRElement, y: BRElement) -> bool:
    """Pullback of the bicyclic natural order along the projection."""
    return bicyclic_leq(br_project(x), br_project(y))


# ---------------------------------------------------------------------------
# Integer example

def zdiag_member(x: int, y: int) -> bool:
    """Membership in the order relation on the infinite cyclic group."""
    return x <= y


# ---------------------------------------------------------------------------
# Arithmetic-progression sets over the naturals

def _mask_of(width: int, values) -> int:
    """The width-bit mask with bit v mod width set for each v in values.

    Bits are set in a bytearray and converted once: or-ing 1 << r into an
    int per value would copy the whole int each time.
    """
    buf = bytearray(width // 8 + 1)
    for v in values:
        r = v % width
        buf[r >> 3] |= 1 << (r & 7)
    return int.from_bytes(buf, "little")


def _spread(mask: int, width: int, big: int) -> int:
    """A width-periodic mask repeated to big bits (width divides big).

    Doubling shifts keep this linear in big; multiplying by the repunit
    (2^big - 1) // (2^width - 1) would be a quadratic big-int division.
    """
    while width < big:
        mask |= mask << width
        width *= 2
    return mask & ((1 << big) - 1)


def _least_period(modulus: int, mask: int) -> int:
    """Least divisor d of modulus whose rotation fixes the modulus-bit mask.

    The rotations fixing the mask are the multiples of its least period, so
    dividing the period by each prime factor while the mask stays fixed
    ends there, after O(log modulus) rotations.
    """
    full = (1 << modulus) - 1
    period, n, p = modulus, modulus, 2
    while n > 1:
        if p * p > n:
            p = n  # what is left of n is prime
        if n % p == 0:
            while n % p == 0:
                n //= p
            while period % p == 0:
                s = period // p
                if (mask >> s | mask << (modulus - s)) & full != mask:
                    break
                period = s
        p += 1
    return period


class APSet(_Value):
    """The set (progressions ∪ plus) - minus of naturals, in normal form.

    Normal form: one least modulus, `plus` outside the residue classes and
    `minus` inside them; so membership is one lookup and equal sets are equal.
    The classes are the int `mask`, bit r set when class r mod `modulus` is
    in the set, and all normal-form work is whole-int operations linear in
    the mask width: a mask is widened by doubling shifts, not by a repunit
    multiple (big-int division is quadratic), and built from bytes, not by
    or-ing one bit at a time into the int (each or copies it).
    """
    _fields = ("modulus", "mask", "plus", "minus")

    def __init__(self, progressions=(), plus=(), minus=()):
        classes = {}  # modulus -> residues
        for (m, r) in progressions:
            if m < 1:
                raise SemigroupError("progression modulus must be positive")
            classes.setdefault(m, []).append(r)
        big = math.lcm(*classes)
        mask = 0
        for m, residues in classes.items():
            mask |= _spread(_mask_of(m, residues), m, big)
        self._normalize(big, mask, plus, minus)

    @classmethod
    def _of_mask(cls, modulus, mask, plus, minus) -> APSet:
        s = cls.__new__(cls)
        s._normalize(modulus, mask, plus, minus)
        return s

    def _normalize(self, big, mask, plus, minus):
        modulus = _least_period(big, mask)
        mask &= (1 << modulus) - 1
        _set(self, "modulus", modulus)
        _set(self, "mask", mask)
        _set(self, "plus", frozenset([
            n for n in plus if n >= 0 and not mask >> n % modulus & 1 and n not in minus]))
        _set(self, "minus", frozenset([
            n for n in minus if n >= 0 and mask >> n % modulus & 1]))

    @property
    def progressions(self) -> tuple[tuple[int, int], ...]:
        bits = bin(self.mask)[:1:-1]
        return tuple((self.modulus, r) for r, b in enumerate(bits) if b == "1")

    def member(self, n: int) -> bool:
        if n < 0:
            return False
        if self.mask >> n % self.modulus & 1:
            return n not in self.minus
        return n in self.plus

    def sample(self, upto: int) -> list[int]:
        """The members n <= upto, in order."""
        if upto < 0:
            return []
        # the class bits of 0 .. width - 1, least first; the rest of a wide
        # mask is never read, so it costs no string
        width = min(self.modulus, upto + 1)
        bits = format(self.mask & ((1 << width) - 1), f"0{width}b")[::-1]
        modulus, plus, minus = self.modulus, self.plus, self.minus
        return [n for n in range(upto + 1)
                if (n not in minus if bits[n % modulus] == "1" else n in plus)]


def apset_intersect(a: APSet, b: APSet) -> APSet:
    # off the patches membership is class membership, so only patch points
    # are rechecked
    big = math.lcm(a.modulus, b.modulus)
    mask = _spread(a.mask, a.modulus, big) & _spread(b.mask, b.modulus, big)
    points = a.plus | a.minus | b.plus | b.minus
    plus = {n for n in points  # every patch point is a natural
            if (n not in a.minus if a.mask >> n % a.modulus & 1 else n in a.plus)
            and (n not in b.minus if b.mask >> n % b.modulus & 1 else n in b.plus)}
    return APSet._of_mask(big, mask, plus, points - plus)


def apset_meets(a: APSet, b: APSet) -> bool:
    """Whether a and b share a member, without building their meet."""
    big = math.lcm(a.modulus, b.modulus)
    if _spread(a.mask, a.modulus, big) & _spread(b.mask, b.modulus, big):
        return True  # minus is finite, so a shared class keeps infinitely many
    # with no shared class, a common member lies outside the classes of one
    # of the two sets, so it is a plus point of that set
    return any(a.member(n) and b.member(n) for n in a.plus | b.plus)


def apset_is_empty(a: APSet) -> bool:
    # minus is finite, so any residue class keeps the set infinite
    return not a.mask and not a.plus


# ---------------------------------------------------------------------------
# Injections N -> N with exact image complements

class CoInjection(_Value):
    """Injection given by residue-affine pieces plus finite patches.

    Unpatched k = modulus*q + r maps to stride*q + offsets[r]; a patched
    source maps to its target.  Construction checks injectivity exactly and
    derives the image complement in closed form, kept as ``complement``,
    which equality, hash and repr leave out.
    """
    _fields = ("modulus", "stride", "offsets", "patches")

    def __init__(self, modulus: int, stride: int, offsets: tuple[int, ...],
                 patches: tuple[tuple[int, int], ...]):
        _set(self, "modulus", modulus)
        _set(self, "stride", stride)
        _set(self, "offsets", offsets)
        _set(self, "patches", patches)
        # the checks stay a method of their own: bench/tracing.py times them
        self.__post_init__()

    def __post_init__(self):
        if self.modulus < 1 or self.stride < 1:
            raise SemigroupError("modulus and stride must be positive")
        if len(self.offsets) != self.modulus:
            raise SemigroupError("need one offset per residue")
        # two pieces in one class mod stride meet infinitely often
        stride = self.stride
        hit = _mask_of(stride, self.offsets)
        if min(self.offsets) < 0 or hit.bit_count() != self.modulus:
            raise SemigroupError("offsets must be naturals, distinct mod stride")
        sources, targets = [p[0] for p in self.patches], [p[1] for p in self.patches]
        if self.patches:
            for points in (sources, targets):
                if min(points) < 0 or len(set(points)) != len(points):
                    raise SemigroupError("patch sources and targets must be distinct naturals")
            for dst in targets:
                if not hit >> dst % stride & 1:
                    continue  # no piece hits dst's class, so no unpatched value is dst
                k = self._piece_preimage(dst)
                if k is not None and k not in sources:
                    raise SemigroupError(f"not injective: unpatched {k} also maps to {dst}")
        # image = pieces(N) - pieces(sources) + targets, so the complement is
        # the classes no piece hits, each hit class below its offset, and the
        # sources' piece values, less the targets
        below = [v for o in self.offsets if o >= stride  # else nothing is below o
                 for v in range(o % stride, o, stride)]
        moved = [self.piece_apply(src) for src in sources]
        _set(self, "complement", APSet._of_mask(
            stride, ((1 << stride) - 1) ^ hit, below + moved, targets))

    def piece_apply(self, k: int) -> int:
        q, r = divmod(k, self.modulus)
        return self.stride * q + self.offsets[r]

    def apply(self, k: int) -> int:
        for (src, dst) in self.patches:
            if src == k:
                return dst
        return self.piece_apply(k)

    def _piece_preimage(self, v: int) -> int | None:
        for r, o in enumerate(self.offsets):
            if v >= o and (v - o) % self.stride == 0:
                return self.modulus * ((v - o) // self.stride) + r
        return None

    def preimage(self, v: int) -> int | None:
        """The unique k with apply(k) = v, or None; exact."""
        for (src, dst) in self.patches:
            if dst == v:
                return src
        k = self._piece_preimage(v)
        return None if any(src == k for (src, _) in self.patches) else k


def co_compose(f: CoInjection, g: CoInjection) -> CoInjection:
    """Composite "apply f, then g"; its complement follows from its pieces."""
    m = f.modulus * g.modulus
    stride = f.stride * g.stride
    # rho = f.modulus*q + r for q < g.modulus goes to v = f.stride*q + f.offsets[r],
    # then to g's piece of v; g.modulus | f.stride*g.modulus makes this per-residue
    f_stride, f_offsets, g_modulus, g_stride, g_offsets = (
        f.stride, f.offsets, g.modulus, g.stride, g.offsets)
    offsets = tuple([g_stride * (v // g_modulus) + g_offsets[v % g_modulus]
                     for q in range(g_modulus) for o in f_offsets for v in [f_stride * q + o]])
    keys = {src for (src, _) in f.patches} | {f.preimage(src) for (src, _) in g.patches}
    patches = tuple((k, v) for k in sorted(keys - {None})
                    if (v := g.apply(f.apply(k))) != stride * (k // m) + offsets[k % m])
    return CoInjection(m, stride, offsets, patches)


# ---------------------------------------------------------------------------
# Baer-Levi witness

def baer_levi_witness() -> dict:
    """The three injections separating symmetry from transitivity.

    X = N, complements: A' = {n = 0 mod 4} for f, B' ∪ {4} for g, and
    B' = {n = 1 mod 4} for h.  Pairs lie in rho exactly when the two image
    complements intersect.
    """
    f = CoInjection(3, 4, (1, 2, 3), ())
    g = CoInjection(3, 4, (2, 3, 4), ((0, 0), (1, 2), (2, 3)))
    h = CoInjection(3, 4, (0, 2, 3), ())
    paper = (APSet(((4, 0),)), APSet(((4, 1),), {4}), APSet(((4, 1),)))
    if (f.complement, g.complement, h.complement) != paper:
        raise SemigroupError("derived image complements differ from A', B' ∪ {4}, B'")

    def rho_member(x: CoInjection, y: CoInjection) -> bool:
        return apset_meets(x.complement, y.complement)

    witness = {"f": f, "g": g, "h": h, "rho_member": rho_member}
    for name, x, y in (("fg", f, g), ("gh", g, h), ("fh", f, h)):
        meet = apset_intersect(x.complement, y.complement)
        witness[name] = not apset_is_empty(meet)
        witness[f"{name}_intersection"] = meet.sample(40)
    return witness


# ---------------------------------------------------------------------------
# Exact prover for statements in linear integer arithmetic
#
# A statement is run on symbolic naturals; an integer enters as a - b with
# a, b natural.  Each comparison the code makes is a branch, unless it is
# constant, fixed by signs, or implied either way by the path's bound on its
# coefficients; a path is the list of choices taken, and each choice adds
# one constraint row (c0, c1, ..., cn), meaning c0 + c1·v1 + ... >= 0.  A
# path keeps one bound per coefficient vector, the least c0, starting from
# v >= 0 for each variable.  The statement holds when every path on which it
# returns False or raises SemigroupError is infeasible, shown by
# Fourier-Motzkin elimination.  A comparison builds one coefficient tuple,
# with map over the operands' terms.  Elimination keeps the strongest row
# per coefficient vector and picks the variable whose elimination adds the
# fewest rows.

_MAX_BRANCHES = 256  # decided comparisons take none; the deepest suite path takes 13


class _Linear:
    """A linear form c0 + c1·v1 + ... + cn·vn with integer coefficients.

    Sums and differences stay symbolic, comparisons ask the path, and any
    other use (bool, *, hash, range) raises TypeError, so code that leaves
    the linear fragment fails instead of proving.
    """
    __slots__ = ("terms", "path")
    __hash__ = None

    def __init__(self, terms, path):
        self.terms, self.path = terms, path

    def _plus(self, other, op):
        if isinstance(other, _Linear):
            terms = tuple(map(op, self.terms, other.terms))
        elif isinstance(other, int):
            terms = (op(self.terms[0], other),) + self.terms[1:]
        else:
            return NotImplemented
        return _Linear(terms, self.path)

    def __add__(self, other):
        return self._plus(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, sub)

    def __rsub__(self, other):
        return (-self)._plus(other, add)

    def __neg__(self):
        return _Linear(tuple(map(neg, self.terms)), self.path)

    def _minus(self, other, c):
        """The terms of self - other + c."""
        if isinstance(other, int):
            return (self.terms[0] - other + c,) + self.terms[1:]
        if not isinstance(other, _Linear):
            raise TypeError("symbolic integer compared with a non-integer")
        terms = tuple(map(sub, self.terms, other.terms))
        return (terms[0] + c,) + terms[1:] if c else terms

    def __ge__(self, other):
        return self.path.holds(self._minus(other, 0))

    def __le__(self, other):
        return self.path.holds(tuple(map(neg, self._minus(other, 0))))

    def __gt__(self, other):
        return self.path.holds(self._minus(other, -1))

    def __lt__(self, other):
        return self.path.holds(tuple(map(neg, self._minus(other, 1))))

    def __eq__(self, other):
        return self >= other and self <= other

    def __bool__(self):
        raise TypeError("symbolic integer used outside linear arithmetic")


class _Path:
    """One run of a statement: replays `choices`, then takes True at new branches."""

    def __init__(self, choices, units):
        self.choices, self.depth = choices, 0
        self.bounds = {u[1:]: 0 for u in units}  # coefficients c -> least k in k + c·v >= 0

    def holds(self, terms) -> bool:
        """Whether the form with these terms is >= 0 on this path; a False is
        recorded as form <= -1."""
        coefficients = terms[1:]
        if not any(coefficients):
            return terms[0] >= 0
        # signs alone decide it, as every variable is >= 0
        if terms[0] >= 0 and min(coefficients) >= 0:
            return True
        if terms[0] < 0 and max(coefficients) <= 0:
            return False
        # a recorded row k + c·v >= 0 decides c·v >= -t0 when k <= t0, and
        # k - c·v >= 0 decides it False when k + t0 < 0
        bounds = self.bounds
        known = bounds.get(coefficients)
        if known is not None and known <= terms[0]:
            return True
        negated = tuple(map(neg, coefficients))
        known = bounds.get(negated)
        if known is not None and known + terms[0] < 0:
            return False
        if self.depth == len(self.choices):
            if self.depth == _MAX_BRANCHES:  # e.g. a loop on a symbolic bound
                raise RuntimeError(f"more than {_MAX_BRANCHES} branches on one path")
            self.choices.append(True)
        taken = self.choices[self.depth]
        self.depth += 1
        k, coefficients = (terms[0], coefficients) if taken else (-terms[0] - 1, negated)
        if coefficients not in bounds or k < bounds[coefficients]:
            bounds[coefficients] = k
        return taken


def _tighten(row):
    """Divide by the gcd of the coefficients, rounding the constant down.

    The row keeps exactly its integer solutions (x < y becomes x <= y - 1).
    """
    g = math.gcd(*row[1:])
    return row if g <= 1 else tuple(map(g.__rfloordiv__, row))


def _feasible(rows) -> bool:
    """False only if no integer vector satisfies every row (Fourier-Motzkin).

    The system keeps, per coefficient vector, the row with the least
    constant; a constant row below zero, or a row and its opposite whose
    constants sum below zero, refutes it.  Each round eliminates one
    variable, so the rows run out after at most one round per column;
    running out answers True, which refutes nothing.
    """
    system = {}
    for _ in range(len(next(iter(rows), ()))):
        for row in map(_tighten, rows):
            coefficients = row[1:]
            if not any(coefficients):
                if row[0] < 0:
                    return False
            elif coefficients not in system or row[0] < system[coefficients][0]:
                opposite = system.get(tuple(map(neg, coefficients)))
                if opposite is not None and row[0] + opposite[0] < 0:
                    return False
                system[coefficients] = row
        if not system:
            return True
        # eliminate the variable that adds the fewest rows net, the lowest on a tie
        counts = [(sum(map((0).__lt__, column)), sum(map((0).__gt__, column)))
                  for column in zip(*system)]
        i = min((above * below - above - below, i)
                for i, (above, below) in enumerate(counts, 1) if above | below)[1]
        lower = [r for r in system.values() if r[i] > 0]
        upper = [r for r in system.values() if r[i] < 0]
        system = {c: r for c, r in system.items() if not r[i]}
        rows = [tuple(map(add, map((-q[i]).__mul__, p), map(p[i].__mul__, q)))
                for p in lower for q in upper]
    return True


def _proved(statement, nvars: int) -> bool:
    """Whether statement(v1, ..., vn) is True for all naturals v1, ..., vn.

    An integer is proved as a - b over two naturals.  Paths are enumerated
    depth-first by replaying recorded choices.  A path does not hold its
    variables, so no cycle keeps it alive once it is done.
    """
    units = [(0,) * i + (1,) + (0,) * (nvars - i) for i in range(1, nvars + 1)]
    pending = [[]]
    while pending:
        path = _Path(pending.pop(), units)
        replayed = len(path.choices)
        try:
            ok = statement(*[_Linear(u, path) for u in units])
        except SemigroupError:
            ok = False
        pending.extend(path.choices[:j] + [False] for j in range(replayed, len(path.choices)))
        if not ok and _feasible([(k,) + c for c, k in path.bounds.items()]):
            return False
    return True


# ---------------------------------------------------------------------------
# Model witness suites: lists of {"name", "pass"[, "witness"]} checks

def _bicyclic_law(law, arity: int) -> bool:
    """Prove law(x1, ..., x_arity) for all bicyclic elements."""
    return _proved(lambda *v: law(*map(BicyclicElement, v[::2], v[1::2])), 2 * arity)


def bicyclic_checks() -> list:
    leq, mul = bicyclic_leq, bicyclic_mul
    checks = [
        ("reflexive", _bicyclic_law(lambda x: leq(x, x), 1)),
        ("antisymmetric", _bicyclic_law(lambda x, y: not (leq(x, y) and leq(y, x)) or x == y,
                                        2)),
        ("transitive", _bicyclic_law(
            lambda x, y, z: not (leq(x, y) and leq(y, z)) or leq(x, z), 3)),
        ("compatible", _bicyclic_law(
            lambda x, y, xp, yp: not (leq(x, y) and leq(xp, yp))
            or leq(mul(x, xp), mul(y, yp)), 4)),
        # x <= y iff x = (k,k)·y for some natural k: k = x.m is a witness when
        # x <= y, and any witness k (here e.m, which ranges over all naturals)
        # gives x <= y
        ("closed_form_matches_search",
         _bicyclic_law(lambda x, y: leq(x, y) == (mul(BicyclicElement(x.m, x.m), y) == x), 2)
         and _bicyclic_law(
             lambda x, y, e: not mul(BicyclicElement(e.m, e.m), y) == x or leq(x, y), 3)),
    ]
    one_one, zero = BicyclicElement(1, 1), BicyclicElement(0, 0)
    checks.append(("order_asymmetry_witness", leq(one_one, zero) and not leq(zero, one_one)))
    return [{"name": n, "pass": bool(ok)} for (n, ok) in checks]


def bruck_reilly_checks() -> list:
    def hom(x, y):
        return br_project(br_mul(x, y)) == bicyclic_mul(br_project(x), br_project(y))

    checks = []
    for tag, mapping in (("theta_identity", (0, 1)), ("theta_constant", (0, 0))):
        theta = EndomorphismTable(cyclic_group(2), mapping)
        # one proof per pair of base elements, over all naturals m1, n1, m2, n2
        proved = all(_proved(lambda m1, n1, m2, n2: hom(BRElement(m1, s1, n1, theta),
                                                        BRElement(m2, s2, n2, theta)), 4)
                     for s1 in range(2) for s2 in range(2))
        checks.append({"name": f"projection_homomorphism_{tag}", "pass": proved})
        hi, lo = BRElement(1, 1, 1, theta), BRElement(0, 0, 0, theta)
        checks.append({"name": f"pulled_back_order_asymmetry_{tag}",
                       "pass": bool(br_order_member(hi, lo) and not br_order_member(lo, hi))})
    return checks


def baer_levi_checks() -> list:
    w = baer_levi_witness()
    return [
        {"name": "fg_member", "pass": w["fg"],
         "witness": {"intersection": w["fg_intersection"]}},
        {"name": "gh_member", "pass": w["gh"],
         "witness": {"intersection": w["gh_intersection"][:8]}},
        {"name": "fh_non_member", "pass": not w["fh"],
         "witness": {"intersection": w["fh_intersection"]}},
        {"name": "membership_pattern", "pass": (w["fg"], w["gh"], w["fh"]) == (True, True, False)},
    ]


def z_checks() -> list:
    return [
        {"name": "member_2_5", "pass": zdiag_member(2, 5)},
        {"name": "non_member_5_2", "pass": not zdiag_member(5, 2)},
        {"name": "diagonal", "pass": _proved(lambda a, b: zdiag_member(a - b, a - b), 2)},
    ]


MODELS = {"bicyclic": bicyclic_checks, "bruck-reilly": bruck_reilly_checks,
          "baer-levi": baer_levi_checks, "z": z_checks}

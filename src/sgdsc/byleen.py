"""Byleen-style monoid over a finite base monoid.

The monoid is presented over W = A ∪ B ∪ S by length-reducing relations
(ab = p_ab, as = a▷s, sb = s◁b, st = s·t, 1 = ε), so every element has a
unique normal form v·s·u with v ∈ B*, s ∈ S, u ∈ A*.  The sandwich matrix P
is 2-transitive, deterministic and lazily resolved: each requirement "give me
a column hitting (c1,c2) at rows (a1,a2)" owns a stage number, the integer
whose bits are a prefix-free code of the requirement (every component in
Elias-delta code, one flag bit standing for c2 when c2 == c1), and the
stage's fresh index is stage+1.  The stage exceeds every component, which
rules out cell conflicts, so any cell is resolvable from its own coordinates;
untouched cells default to the identity of S.  A fresh letter named in the
next requirement of a chain adds a bounded number of bits to the next index,
so certificate indices grow linearly with word length.

Every certificate-producing operation (the five claims, span_witness,
express_pair, inverse_of) re-verifies its output by evaluation before
returning it, and raises CertificateError if the re-check fails.  The claims
iterate, one step a letter, so word length is bounded by time and memory,
not by recursion depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from . import finite
from .finite import FiniteSemigroup, SemigroupError, identity_index


class EqualIndices(SemigroupError):
    pass


class EqualElements(SemigroupError):
    pass


class MatrixMismatch(SemigroupError):
    pass


class NotRegularBase(SemigroupError):
    pass


class CertificateError(SemigroupError):
    """A certificate failed its re-check by evaluation."""


def _certify(ok: bool, what: str) -> None:
    # an explicit raise, so the re-check also runs under python -O
    if not ok:
        raise CertificateError(f"certificate re-check failed: {what}")


@dataclass(frozen=True)
class ALetter:
    n: int
    s: int


@dataclass(frozen=True)
class BLetter:
    n: int
    s: int


@dataclass(frozen=True)
class SElem:
    s: int


Letter = Union[ALetter, BLetter, SElem]


# ---------------------------------------------------------------------------
# Stage encoding.  A requirement (kind, n1, s1, n2, s2, c1, c2, skip) owns
# the stage whose binary expansion is "1" δ(kind) δ(n1) δ(s1) δ(n2) δ(s2)
# δ(c1) f [δ(c2)] δ(skip): each component in the Elias-delta code δ, and a
# flag bit f that is 1 when c2 == c1, in which case δ(c2) is left out.  The
# code is prefix-free and the decoder accepts only the canonical string, so
# requirements and stages correspond one to one.  Both directions work on
# ints: a codeword is a (value, width) pair, its bits being value's padded
# with leading zeros to width, shifted onto the stage by the encoder and
# read off it with bit_length, shifts and masks by the decoder.  A matrix
# decodes each letter index at most once and keeps the result.
#
# δ(x) takes at least bitlen(x+1) bits, and the leading 1, the flag and the
# other fields at least eight more, so the stage exceeds every component and
# the fresh index stage+1 can never be named by its own requirement.  Nine
# bits at least also means every integer below 2^8 encodes nothing.
#
# δ(x) is bitlen(x+1) + O(log bitlen(x)) bits, so a chain step whose
# colours are both the previous fresh letter (_chain) adds a bounded number
# of bits to the index, and index length grows linearly with chain depth.
# Writing that colour twice at full length, without the flag, would double
# the index length at every step.

def _delta(x: int) -> tuple[int, int]:
    """δ(x) for x >= 0 as (value, width): the Elias-gamma code of L, then
    the L-1 bits of x+1 below its leading 1, where L = bitlen(x+1)."""
    n = x + 1
    k = n.bit_length()
    return k << (k - 1) | n ^ (1 << (k - 1)), 2 * k.bit_length() + k - 2


def _encode(parts: Sequence[int]) -> int:
    kind, n1, s1, n2, s2, c1, c2, skip = parts
    t = 1
    for x in (kind, n1, s1, n2, s2, c1):
        value, width = _delta(x)
        t = t << width | value
    if c2 == c1:
        t = t << 1 | 1
    else:
        value, width = _delta(c2)
        t = t << width + 1 | value
    value, width = _delta(skip)
    return t << width | value


def _delta_at(r: int, rest: int) -> tuple[int, int]:
    """The δ codeword atop r < 2^rest as (value, bits left below it); -1 left if cut short."""
    size = r.bit_length()
    lead = 2 * size - rest - 1  # bits below the gamma code of the payload length
    if lead < 0:
        return 0, -1
    length = r >> lead
    left = lead - length + 1
    if left < 0:
        return 0, -1
    payload = r >> left ^ length << length - 1
    return (payload | 1 << length - 1) - 1, left


def _decode(t: int) -> Optional[tuple[int, ...]]:
    if t < 1:
        return None
    rest = t.bit_length() - 1
    out = []
    for _ in range(6):
        x, rest = _delta_at(t & (1 << rest) - 1, rest)
        if rest < 0:
            return None
        out.append(x)
    if rest == 0:
        return None
    rest -= 1
    if t >> rest & 1:
        out.append(out[5])
    else:
        c2, rest = _delta_at(t & (1 << rest) - 1, rest)
        if rest < 0 or c2 == out[5]:
            return None
        out.append(c2)
    skip, rest = _delta_at(t & (1 << rest) - 1, rest)
    if rest != 0:
        return None
    out.append(skip)
    return tuple(out)


_COL, _ROW = 0, 1


class TwoTransitiveMatrix:
    """Deterministic lazy A x B sandwich matrix over W = A ∪ B ∪ S."""

    def __init__(self, base: FiniteSemigroup):
        e = identity_index(base)
        if e is None:
            raise SemigroupError("base must be a monoid")
        self.base = base
        self.identity = e
        self._memo: dict[tuple[int, int, int], Letter] = {}
        # letter index -> decoded requirement or None, filled on lookup and never
        # at mint time, so a fresh letter's re-check reads it through _decode
        self._reqs: dict[int, Optional[tuple[int, ...]]] = {}

    # letter <-> index bookkeeping: S first, then A and B letters interleaved
    def w_index(self, w: Letter) -> int:
        k = self.base.order
        if isinstance(w, SElem):
            return w.s
        return k + 2 * (w.n * k + w.s) + isinstance(w, BLetter)

    def w_letter(self, idx: int) -> Letter:
        k = self.base.order
        if idx < k:
            return SElem(idx)
        q, r = divmod(idx - k, 2)
        return (BLetter if r else ALetter)(*divmod(q, k))

    def _requirement(self, n: int) -> Optional[tuple[int, ...]]:
        if n not in self._reqs:
            self._reqs[n] = _decode(n - 1)
        return self._reqs[n]

    def entry(self, a: ALetter, b: BLetter) -> Letter:
        # p[a(n,x), b(k,y)] depends on (n, k, x*y) only, so that
        # p[a▷s, b] = p[a, s◁b] and the rewriting system is confluent.
        z = self.base.table[a.s][b.s]
        key = (a.n, b.n, z)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        val: Letter = SElem(self.identity)
        # a column's requirement first, then a row's
        for fresh, kind, other in ((b.n, _COL, a.n), (a.n, _ROW, b.n)):
            req = self._requirement(fresh)
            if req is not None and req[0] == kind and req[1:3] != req[3:5]:
                if (other, z) == req[1:3]:
                    val = self.w_letter(req[5])
                    break
                if (other, z) == req[3:5]:
                    val = self.w_letter(req[6])
                    break
        self._memo[key] = val
        return val

    def _stage(self, kind: int, w1: Letter, w2: Letter, c1: Letter, c2: Letter,
               skip: int) -> int:
        """The stage of a requirement, once every component is checked to name a letter."""
        k = self.base.order
        for w in (w1, w2, c1, c2):
            if not 0 <= w.s < k:
                raise SemigroupError(f"{w} has a base element outside 0..{k - 1}")
            if not isinstance(w, SElem) and w.n < 0:
                raise SemigroupError(f"{w} has a negative index")
        if skip < 0:
            raise SemigroupError(f"skip must be at least 0, not {skip}")
        return _encode((kind, w1.n, w1.s, w2.n, w2.s,
                        self.w_index(c1), self.w_index(c2), skip))

    def find_column(self, a1: ALetter, a2: ALetter, c1: Letter, c2: Letter,
                    skip: int = 0) -> BLetter:
        """Fresh column b with p[a1,b] = c1 and p[a2,b] = c2."""
        if a1 == a2:
            raise EqualIndices("find_column needs two distinct rows")
        b = BLetter(self._stage(_COL, a1, a2, c1, c2, skip) + 1, self.identity)
        _certify(self.entry(a1, b) == c1 and self.entry(a2, b) == c2, "find_column")
        return b

    def find_row(self, b1: BLetter, b2: BLetter, c1: Letter, c2: Letter,
                 skip: int = 0) -> ALetter:
        """Fresh row a with p[a,b1] = c1 and p[a,b2] = c2."""
        if b1 == b2:
            raise EqualIndices("find_row needs two distinct columns")
        a = ALetter(self._stage(_ROW, b1, b2, c1, c2, skip) + 1, self.identity)
        _certify(self.entry(a, b1) == c1 and self.entry(a, b2) == c2, "find_row")
        return a


# ---------------------------------------------------------------------------
# Actions and rewriting

def a_act(m: TwoTransitiveMatrix, a: ALetter, s: int) -> ALetter:
    return ALetter(a.n, m.base.table[a.s][s])


def b_act(m: TwoTransitiveMatrix, s: int, b: BLetter) -> BLetter:
    return BLetter(b.n, m.base.table[s][b.s])


@dataclass(frozen=True)
class NormalForm:
    v: tuple[BLetter, ...]
    s: int
    u: tuple[ALetter, ...]
    mat: TwoTransitiveMatrix

    def is_identity(self) -> bool:
        return not self.v and not self.u and self.s == self.mat.identity

    def letters(self) -> list[Letter]:
        out: list[Letter] = list(self.v)
        if self.s != self.mat.identity:
            out.append(SElem(self.s))
        out.extend(self.u)
        return out

    def __repr__(self):
        return f"NormalForm({render(self)!r})"


def identity_nf(m: TwoTransitiveMatrix) -> NormalForm:
    return NormalForm((), m.identity, (), m)


def a_word_nf(m: TwoTransitiveMatrix, u: Sequence[ALetter]) -> NormalForm:
    return NormalForm((), m.identity, tuple(u), m)


def b_word_nf(m: TwoTransitiveMatrix, v: Sequence[BLetter]) -> NormalForm:
    return NormalForm(tuple(v), m.identity, (), m)


def letter_nf(m: TwoTransitiveMatrix, w: Letter) -> NormalForm:
    return reduce(m, [w])


def _redex(m: TwoTransitiveMatrix, left: Letter, right: Letter) -> Optional[Letter]:
    if isinstance(left, ALetter):
        if isinstance(right, SElem):
            return a_act(m, left, right.s)
        if isinstance(right, BLetter):
            return m.entry(left, right)
        return None
    if isinstance(left, SElem):
        if isinstance(right, BLetter):
            return b_act(m, left.s, right)
        if isinstance(right, SElem):
            return SElem(m.base.table[left.s][right.s])
    return None


def _assemble(m: TwoTransitiveMatrix, word: Sequence[Letter]) -> NormalForm:
    v: list[BLetter] = []
    u: list[ALetter] = []
    s = m.identity
    state = 0  # 0: in B*, 1: seen S, 2: in A*
    for w in word:
        if isinstance(w, BLetter) and state == 0:
            v.append(w)
        elif isinstance(w, SElem) and state == 0:
            s = w.s
            state = 1
        elif isinstance(w, ALetter):
            state = 2
            u.append(w)
        else:
            raise SemigroupError("irreducible word is not of the shape B* S? A*")
    return NormalForm(tuple(v), s, tuple(u), m)


def reduce(m: TwoTransitiveMatrix, word: Sequence[Letter]) -> NormalForm:
    """Stack reduction, left to right; every rule shortens the word."""
    stack: list[Letter] = []
    for x in word:
        while stack:
            combined = _redex(m, stack[-1], x)
            if combined is None:
                break
            stack.pop()
            x = combined
        stack.append(x)
    return _assemble(m, stack)


def reduce_rightmost(m: TwoTransitiveMatrix, word: Sequence[Letter]) -> NormalForm:
    """Contract the rightmost redex until none remains; oracle for confluence."""
    w = list(word)
    while True:
        for i in range(len(w) - 2, -1, -1):
            combined = _redex(m, w[i], w[i + 1])
            if combined is not None:
                w[i:i + 2] = [combined]
                break
        else:
            return _assemble(m, w)


def nf_mul(x: NormalForm, y: NormalForm) -> NormalForm:
    if x.mat is not y.mat:
        raise MatrixMismatch("operands live over different matrices")
    return reduce(x.mat, x.letters() + y.letters())


_CHUNK = 10 ** 600


def _decimal(x: int) -> str:
    """str(x) for x >= 0, under any int-to-str digit limit Python accepts.

    The least limit Python accepts is 640 digits, so x is cut into 600-digit
    chunks by repeated divmod, each written zero-padded except the leading one.
    """
    chunks = []
    while x >= _CHUNK:
        x, r = divmod(x, _CHUNK)
        chunks.append(r)
    return str(x) + "".join(f"{r:0600d}" for r in reversed(chunks))


def render(nf: NormalForm) -> str:
    toks = [f"b({_decimal(b.n)},s{b.s})" for b in nf.v]
    if nf.s != nf.mat.identity or (not nf.v and not nf.u):
        toks.append("1" if nf.s == nf.mat.identity else f"s{nf.s}")
    toks.extend(f"a({_decimal(a.n)},s{a.s})" for a in nf.u)
    return " ".join(toks)


# ---------------------------------------------------------------------------
# Claims (constructive certificates)

def _other(m: TwoTransitiveMatrix, w: Letter) -> Letter:
    """A letter of w's kind (A or B), other than w, at index 0 or 1."""
    cand = type(w)(0, m.identity)
    return cand if cand != w else type(w)(1, m.identity)


def _chain(m: TwoTransitiveMatrix, word: Sequence[Letter], start: Letter) -> Letter:
    """A fresh letter c ≠ start with word·c = start for a nonempty A-word,
    or with c·word = start for a nonempty B-word.

    One find_column (find_row) link per letter, read right to left for a
    B-word, each link's colours being the previous link's letter; the last
    link is retried with a larger skip until its letter differs from start.
    """
    if isinstance(word[0], ALetter):
        link, letters = m.find_column, list(word)
    else:
        link, letters = m.find_row, list(reversed(word))
    c = start
    for w in letters[:-1]:
        c = link(w, _other(m, w), c, c)
    last, prev, skip = letters[-1], c, 0
    while True:
        c = link(last, _other(m, last), prev, prev, skip=skip)
        if c != start:
            return c
        skip += 1


def claim1(m: TwoTransitiveMatrix, u: Sequence[ALetter]) -> NormalForm:
    """A diagonal factor λ with u·λ = 1; a single column letter for nonempty u."""
    if not u:
        return identity_nf(m)
    b = _chain(m, u, SElem(m.identity))
    lam = b_word_nf(m, (b,))
    _certify(reduce(m, list(u) + [b]).is_identity(), "claim1")
    return lam


def claim2(m: TwoTransitiveMatrix, u: Sequence[ALetter],
           x: Sequence[ALetter]) -> tuple[NormalForm, str, tuple[ALetter, ...]]:
    """λ and a nonempty A-word p with (u,x)·λ = (1,p) (side "left") or (p,1)."""
    u, x = tuple(u), tuple(x)
    if u == x:
        raise EqualElements("claim2 needs distinct words")
    # one column a step, off the end of both words: a shared letter gets
    # the column claim1 gives it; otherwise the shorter word, x on a tie, loses
    # its letter
    one = SElem(m.identity)
    cols: list[BLetter] = []
    i, j = len(u), len(x)
    while i and j:
        a, c = u[i - 1], x[j - 1]
        if a == c:
            cols.append(_chain(m, (a,), one))
            i, j = i - 1, j - 1
        elif i >= j:
            cols.append(m.find_column(a, c, a, one))
            j -= 1
        else:
            cols.append(m.find_column(a, c, one, c))
            i -= 1
    side, p = ("left", x[:j]) if not i else ("right", u[:i])
    lam = b_word_nf(m, cols)
    left = reduce(m, list(u) + lam.letters())
    right = reduce(m, list(x) + lam.letters())
    if side == "left":
        _certify(left.is_identity() and right == a_word_nf(m, p), "claim2")
    else:
        _certify(right.is_identity() and left == a_word_nf(m, p), "claim2")
    return lam, side, p


def claim3(m: TwoTransitiveMatrix, u: Sequence[ALetter], x: Sequence[ALetter],
           w1: Letter, w2: Letter) -> tuple[NormalForm, NormalForm]:
    """Diagonal factors with μ·(u,x)·λ = (w1,w2), for distinct A-words u, x."""
    lam2, side, p = claim2(m, u, x)
    b0 = BLetter(0, m.identity)
    bn = _chain(m, p, b0)
    if side == "left":
        a_star = m.find_row(bn, b0, w1, w2)
    else:
        a_star = m.find_row(bn, b0, w2, w1)
    mu = a_word_nf(m, (a_star,))
    lam = b_word_nf(m, lam2.v + (bn,))  # B-words multiply by concatenation
    _certify(nf_mul(nf_mul(mu, a_word_nf(m, u)), lam) == letter_nf(m, w1)
             and nf_mul(nf_mul(mu, a_word_nf(m, x)), lam) == letter_nf(m, w2), "claim3")
    return mu, lam


def claim4(m: TwoTransitiveMatrix, v: Sequence[BLetter]) -> NormalForm:
    """A diagonal factor μ with μ·v = 1; a single row letter for nonempty v."""
    if not v:
        return identity_nf(m)
    a = _chain(m, v, SElem(m.identity))
    mu = a_word_nf(m, (a,))
    _certify(reduce(m, [a] + list(v)).is_identity(), "claim4")
    return mu


def claim5(m: TwoTransitiveMatrix, v: Sequence[BLetter],
           y: Sequence[BLetter]) -> tuple[NormalForm, str, tuple[BLetter, ...]]:
    """μ and a nonempty B-word q with μ·(v,y) = (1,q) (side "left") or (q,1)."""
    v, y = tuple(v), tuple(y)
    if v == y:
        raise EqualElements("claim5 needs distinct words")
    # claim2's loop mirrored: one row a step, off the front of both words,
    # each new row going on μ's left
    one = SElem(m.identity)
    rows: list[ALetter] = []
    i, j = 0, 0
    while i < len(v) and j < len(y):
        b, d = v[i], y[j]
        if b == d:
            rows.append(_chain(m, (b,), one))
            i, j = i + 1, j + 1
        elif len(v) - i >= len(y) - j:
            rows.append(m.find_row(b, d, b, one))
            j += 1
        else:
            rows.append(m.find_row(b, d, one, d))
            i += 1
    side, q = ("left", y[j:]) if i == len(v) else ("right", v[i:])
    mu = a_word_nf(m, rows[::-1])
    left = nf_mul(mu, b_word_nf(m, v))
    right = nf_mul(mu, b_word_nf(m, y))
    if side == "left":
        _certify(left.is_identity() and right == b_word_nf(m, q), "claim5")
    else:
        _certify(right.is_identity() and left == b_word_nf(m, q), "claim5")
    return mu, side, q


# ---------------------------------------------------------------------------
# Span certificates

GEN = "gen"


@dataclass(frozen=True)
class PairExpr:
    """A product of diagonal factors and the generator pair, with evaluation."""
    factors: tuple  # entries: ("diag", NormalForm) or ("gen",)
    gen: tuple[NormalForm, NormalForm]
    case: str

    def evaluate(self) -> tuple[NormalForm, NormalForm]:
        g, h = self.gen
        left = right = identity_nf(g.mat)
        for f in self.factors:
            if f[0] == GEN:
                left, right = nf_mul(left, g), nf_mul(right, h)
            else:
                left, right = nf_mul(left, f[1]), nf_mul(right, f[1])
        return left, right


def _diag(nf: NormalForm):
    return ("diag", nf)


def span_witness(m: TwoTransitiveMatrix, g: NormalForm, h: NormalForm,
                 w1: Letter, w2: Letter) -> PairExpr:
    """Express (w1,w2) as a product of (g,h) and diagonal pairs; verified."""
    if g == h:
        raise EqualElements("span_witness needs distinct elements")
    v, s, u = g.v, g.s, g.u
    y, t, x = h.v, h.s, h.u
    # A side: λ with (u,x)·λ = (p1,p2), one of p1, p2 empty
    if u == x:
        lam, p1, p2 = claim1(m, u), (), ()
    else:
        lam, side, p = claim2(m, u, x)
        p1, p2 = ((), p) if side == "left" else (p, ())
    # B side: μ with a1·μ·(v,y) = (a1,a0) or (a0,a1), where a1 = a0 if v == y,
    # else a fresh row a1 ≠ a0 with a1·q = a0
    a0 = ALetter(0, m.identity)
    if v == y:
        mu, side, a1 = claim4(m, v), "left", a0
    else:
        mu, side, q = claim5(m, v, y)
        a1 = _chain(m, q, a0)
        _certify(reduce(m, [a1] + list(q)) == letter_nf(m, a0), "back chain")
    a_s, a_t = (a1, a0) if side == "left" else (a0, a1)
    mu3, lam3 = claim3(m, (a_act(m, a_s, s),) + p1, (a_act(m, a_t, t),) + p2, w1, w2)
    factors = (_diag(mu3), _diag(a_word_nf(m, (a1,))), _diag(mu),
               (GEN,), _diag(lam), _diag(lam3))
    case = {(True, True): "equal-words", (False, True): "a-words-differ",
            (True, False): "b-words-differ", (False, False): "both-differ"}[u == x, v == y]
    expr = PairExpr(factors, (g, h), case)
    got = expr.evaluate()
    _certify(got == (letter_nf(m, w1), letter_nf(m, w2)), f"span_witness ({case})")
    return expr


def express_pair(m: TwoTransitiveMatrix, g: NormalForm, h: NormalForm,
                 p: NormalForm, q: NormalForm) -> PairExpr:
    """Express any (p,q) over the diagonal subsemigroup generated by Δ and (g,h)."""
    if g == h:
        raise EqualElements("express_pair needs distinct generators")
    if p == g and q == h:
        return PairExpr(((GEN,),), (g, h), "generator")
    one = SElem(m.identity)
    factors: list = []
    for w in p.letters():
        factors.extend(span_witness(m, g, h, w, one).factors)
    for w in q.letters():
        factors.extend(span_witness(m, g, h, one, w).factors)
    expr = PairExpr(tuple(factors), (g, h), "express")
    _certify(expr.evaluate() == (p, q), "express_pair")
    return expr


# ---------------------------------------------------------------------------
# Regularity (sandwich inverses)

def inverse_of(m: TwoTransitiveMatrix, t: NormalForm) -> NormalForm:
    """An inverse y·s'·x of v·s·u, s' the first sandwich inverse of s in the base."""
    inverses = finite.inverses_of(m.base, t.s)
    if not inverses:
        raise NotRegularBase(f"no sandwich inverse for base element {t.s}")
    one = SElem(m.identity)
    x = tuple(m.find_row(b, _other(m, b), one, one) for b in reversed(t.v))
    y = tuple(m.find_column(a, _other(m, a), one, one) for a in reversed(t.u))
    inv = NormalForm(y, inverses[0], x, m)
    _certify(nf_mul(nf_mul(t, inv), t) == t and nf_mul(nf_mul(inv, t), inv) == inv, "inverse_of")
    return inv

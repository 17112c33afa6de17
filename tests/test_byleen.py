"""Normal forms, the lazy 2-transitive matrix, and certificate generators."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from sgdsc import byleen, finite
from sgdsc.byleen import ALetter, BLetter, NormalForm, SElem

import constructions


@pytest.fixture(scope="module")
def mat():
    return byleen.TwoTransitiveMatrix(finite.cyclic_group(2))


def random_nf(mat, rng):
    v = tuple(BLetter(rng.randint(0, 2), rng.randint(0, 1))
              for _ in range(rng.randint(0, 2)))
    u = tuple(ALetter(rng.randint(0, 2), rng.randint(0, 1))
              for _ in range(rng.randint(0, 2)))
    return NormalForm(v, rng.randint(0, 1), u, mat)


# -- actions --------------------------------------------------------------

def test_actions(mat):
    assert byleen.a_act(mat, ALetter(0, 0), 1) == ALetter(0, 1)
    assert byleen.b_act(mat, 1, BLetter(2, 1)) == BLetter(2, 0)


def test_action_law(mat):
    for n in range(2):
        for t in range(2):
            for s in range(2):
                for s2 in range(2):
                    a = ALetter(n, t)
                    assert byleen.a_act(mat, byleen.a_act(mat, a, s), s2) \
                        == byleen.a_act(mat, a, mat.base.table[s][s2])


def test_action_faithful(mat):
    # the letter with identity decoration separates any two base elements
    a = ALetter(0, mat.identity)
    assert byleen.a_act(mat, a, 0) != byleen.a_act(mat, a, 1)
    b = BLetter(0, mat.identity)
    assert byleen.b_act(mat, 0, b) != byleen.b_act(mat, 1, b)


# -- matrix ---------------------------------------------------------------

def test_entry_default_is_identity(mat):
    assert mat.entry(ALetter(0, 0), BLetter(0, 0)) == SElem(mat.identity)
    assert mat.entry(ALetter(5, 1), BLetter(7, 0)) == SElem(mat.identity)


def test_find_column_postcondition(mat):
    b = mat.find_column(ALetter(0, 0), ALetter(1, 0), SElem(1), ALetter(0, 0))
    assert mat.entry(ALetter(0, 0), b) == SElem(1)
    assert mat.entry(ALetter(1, 0), b) == ALetter(0, 0)


def test_find_row_postcondition(mat):
    w = BLetter(3, 1)
    a = mat.find_row(BLetter(0, 0), BLetter(1, 0), w, w)
    assert mat.entry(a, BLetter(0, 0)) == w
    assert mat.entry(a, BLetter(1, 0)) == w


def test_find_rejects_equal_letters(mat):
    with pytest.raises(byleen.EqualIndices):
        mat.find_column(ALetter(0, 0), ALetter(0, 0), SElem(0), SElem(0))
    with pytest.raises(byleen.EqualIndices):
        mat.find_row(BLetter(1, 1), BLetter(1, 1), SElem(0), SElem(0))


def test_distinct_requirements_distinct_indices(mat):
    b1 = mat.find_column(ALetter(0, 0), ALetter(1, 0), SElem(0), SElem(0))
    b2 = mat.find_column(ALetter(0, 0), ALetter(1, 0), SElem(0), SElem(1))
    b3 = mat.find_column(ALetter(0, 0), ALetter(1, 0), SElem(0), SElem(0), skip=1)
    assert len({b1, b2, b3}) == 3
    assert mat.find_column(ALetter(0, 0), ALetter(1, 0), SElem(0), SElem(0)) == b1


def test_matrix_determinism_across_instances():
    m1 = byleen.TwoTransitiveMatrix(finite.cyclic_group(2))
    m2 = byleen.TwoTransitiveMatrix(finite.cyclic_group(2))
    rng = random.Random(0)
    cells = []
    for _ in range(10):
        b = m1.find_column(ALetter(rng.randint(0, 2), 0), ALetter(3, 1),
                           SElem(rng.randint(0, 1)), BLetter(rng.randint(0, 2), 0))
        cells.append(b)
    for _ in range(1000):
        a = ALetter(rng.randint(0, 5), rng.randint(0, 1))
        b = rng.choice(cells + [BLetter(rng.randint(0, 5), rng.randint(0, 1))])
        assert m1.entry(a, b) == m2.entry(a, b)


def test_entry_balanced_under_actions(mat):
    # p[a*s, b] = p[a, s*b]: the critical pair of the rewriting system
    rng = random.Random(1)
    pool_b = [mat.find_column(ALetter(0, 0), ALetter(1, 1), ALetter(2, 1), SElem(1))]
    pool_b += [BLetter(n, s) for n in range(3) for s in range(2)]
    for _ in range(200):
        a = ALetter(rng.randint(0, 3), rng.randint(0, 1))
        b = rng.choice(pool_b)
        s = rng.randint(0, 1)
        assert mat.entry(byleen.a_act(mat, a, s), b) == \
            mat.entry(a, byleen.b_act(mat, s, b))


# -- stage encoding -------------------------------------------------------

components = st.integers(0, 2 ** 80)


@st.composite
def requirements(draw, components=components):
    """(kind, n1, s1, n2, s2, c1, c2, skip), with c2 == c1 half the time."""
    kind = draw(st.sampled_from((byleen._COL, byleen._ROW)))
    n1, s1, n2, s2, c1, skip = draw(st.lists(components, min_size=6, max_size=6))
    c2 = c1 if draw(st.booleans()) else draw(components)
    return (kind, n1, s1, n2, s2, c1, c2, skip)


@settings(max_examples=500, deadline=None)
@given(requirements())
def test_encoding_round_trip(parts):
    t = byleen._encode(parts)
    assert byleen._decode(t) == parts
    assert t > max(parts)


@settings(max_examples=500, deadline=None)
@given(requirements(), st.integers(0, 10 ** 6))
def test_decode_accepts_only_canonical_codes(parts, pos):
    # a code with one bit below the leading 1 flipped encodes nothing, or
    # is the one code of the requirement it decodes to
    t = byleen._encode(parts)
    t ^= 1 << pos % (t.bit_length() - 1)
    req = byleen._decode(t)
    assert req is None or byleen._encode(req) == t


def test_small_integers_encode_no_requirement():
    assert all(byleen._decode(t) is None for t in range(256))
    assert all(byleen._decode(t) is None or byleen._encode(byleen._decode(t)) == t
               for t in range(1 << 14))
    assert all(byleen._decode(t) == constructions.string_decode(t) for t in range(1 << 14))


# components of a few bits up to thousands, as long certificates name them
wide_components = st.one_of(st.integers(0, 40), components, st.integers(0, 2 ** 6000))


@settings(max_examples=300, deadline=None)
@given(requirements(wide_components), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_int_codec_matches_string_oracle(parts, flip, cut):
    t = constructions.string_encode(parts)
    assert byleen._encode(parts) == t
    # the code itself, one bit below the leading 1 flipped, and cut short
    width = t.bit_length() - 1
    for code in (t, t ^ 1 << flip % width, t >> 1 + cut % width):
        assert byleen._decode(code) == constructions.string_decode(code)


# -- component checks: distinct requirements, distinct indices --------------

def test_find_rejects_negative_skip(mat):
    # δ(-1) and δ(0) are one string, so skip=-1 would mint skip=0's letter
    with pytest.raises(finite.SemigroupError, match="skip must be at least 0"):
        mat.find_column(ALetter(0, 0), ALetter(1, 0), SElem(0), SElem(0), skip=-1)
    with pytest.raises(finite.SemigroupError, match="skip must be at least 0"):
        mat.find_row(BLetter(0, 0), BLetter(1, 0), SElem(0), SElem(0), skip=-1)


def test_find_rejects_negative_letter_index(mat):
    with pytest.raises(finite.SemigroupError, match="negative index"):
        mat.find_column(ALetter(-1, 0), ALetter(0, 0), SElem(0), SElem(0))
    with pytest.raises(finite.SemigroupError, match="negative index"):
        mat.find_row(BLetter(0, 0), BLetter(1, 0), SElem(0), ALetter(-2, 1))


def test_find_rejects_base_element_out_of_range(mat):
    # on C2, SElem(5) has the w_index of BLetter(0, 1)
    assert mat.w_index(SElem(5)) == mat.w_index(BLetter(0, 1))
    with pytest.raises(finite.SemigroupError, match="outside 0..1"):
        mat.find_column(ALetter(0, 0), ALetter(1, 0), SElem(5), SElem(0))
    with pytest.raises(finite.SemigroupError, match="outside 0..1"):
        mat.find_row(BLetter(0, 0), BLetter(1, -1), SElem(0), SElem(0))
    with pytest.raises(finite.SemigroupError, match="outside 0..1"):
        mat.find_column(ALetter(0, 2), ALetter(1, 0), SElem(0), SElem(0))


def span_pairs(mat, length, rng):
    """(g, h) in each of span_witness's four cases, with words of the given length."""
    def a_word():
        return tuple(ALetter(rng.randint(0, 2), rng.randint(0, 1)) for _ in range(length))

    def b_word():
        return tuple(BLetter(rng.randint(0, 2), rng.randint(0, 1)) for _ in range(length))

    u, v = a_word(), b_word()
    x, y = a_word(), b_word()
    while x == u:
        x = a_word()
    while y == v:
        y = b_word()
    g = NormalForm(v, 1, u, mat)
    return [(g, NormalForm(hv, 0, hu, mat)) for hv, hu in ((v, u), (v, x), (y, u), (y, x))]


def test_index_bits_grow_linearly_with_word_length():
    m = byleen.TwoTransitiveMatrix(finite.cyclic_group(2))
    rng = random.Random(9)
    for length in range(1, 33):
        for g, h in span_pairs(m, length, rng):
            expr = byleen.span_witness(m, g, h, SElem(1), ALetter(0, 0))
            bits = max(w.n.bit_length() for f in expr.factors if f[0] != byleen.GEN
                       for w in f[1].letters() if not isinstance(w, SElem))
            assert bits <= 48 * length + 64, (length, expr.case, bits)


@pytest.mark.parametrize("index, case", enumerate(
    ("equal-words", "a-words-differ", "b-words-differ", "both-differ")))
def test_each_index_decoded_once_per_matrix(monkeypatch, index, case):
    m = byleen.TwoTransitiveMatrix(finite.cyclic_group(2))
    g, h = span_pairs(m, 8, random.Random(13))[index]
    decoded, minted = [], []
    decode = byleen._decode

    def counting_decode(t):
        decoded.append(t)
        return decode(t)

    def recording(find):
        def wrapper(self, *args, **kwargs):
            minted.append(find(self, *args, **kwargs))
            return minted[-1]
        return wrapper

    monkeypatch.setattr(byleen, "_decode", counting_decode)
    for name in ("find_column", "find_row"):
        monkeypatch.setattr(byleen.TwoTransitiveMatrix, name,
                            recording(getattr(byleen.TwoTransitiveMatrix, name)))
    expr = byleen.span_witness(m, g, h, SElem(1), ALetter(0, 0))
    monkeypatch.undo()
    assert expr.case == case and minted
    assert len(decoded) == len(set(decoded))
    # a minted index's re-check read it back through the decoder
    assert {w.n - 1 for w in minted} <= set(decoded)
    # and a matrix that never minted anything reads the same cells
    nfs = [g, h] + [f[1] for f in expr.factors if f[0] != byleen.GEN]
    letters = {w for nf in nfs for w in nf.letters()}
    rows = [w for w in letters if isinstance(w, ALetter)]
    cols = [w for w in letters if isinstance(w, BLetter)]
    fresh = byleen.TwoTransitiveMatrix(m.base)
    assert rows and cols
    assert all(fresh.entry(a, b) == m.entry(a, b) for a in rows for b in cols)


# -- rewriting ------------------------------------------------------------

def test_reduce_entry_pair(mat):
    a, b = ALetter(0, 0), BLetter(0, 0)
    assert byleen.reduce(mat, [a, b]) == byleen.letter_nf(mat, mat.entry(a, b))


def test_reduce_base_product(mat):
    assert byleen.reduce(mat, [SElem(1), SElem(1)]) == byleen.identity_nf(mat)
    assert byleen.reduce(mat, [SElem(0)]) == byleen.identity_nf(mat)


def test_reduce_already_normal(mat):
    b, a = BLetter(0, 0), ALetter(0, 0)
    nf = byleen.reduce(mat, [b, a])
    assert nf == NormalForm((b,), mat.identity, (a,), mat)


def test_reduce_idempotent_and_shortening(mat):
    rng = random.Random(4)
    pool = constructions.letter_pool()
    for _ in range(200):
        word = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
        nf = byleen.reduce(mat, word)
        assert len(nf.letters()) <= max(len(word), 1)
        assert byleen.reduce(mat, nf.letters()) == nf


def test_reduce_strategy_independence(mat):
    rng = random.Random(5)
    pool = constructions.letter_pool()
    for _ in range(200):
        word = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
        assert byleen.reduce(mat, word) == byleen.reduce_rightmost(mat, word)


small_a = st.builds(ALetter, st.integers(0, 2), st.integers(0, 1))
small_b = st.builds(BLetter, st.integers(0, 2), st.integers(0, 1))
small = st.one_of(small_a, small_b, st.builds(SElem, st.integers(0, 1)))


@st.composite
def words_with_fresh_letters(draw):
    """A matrix and a word mixing small letters, fresh rows and columns, and
    the two-letter products that hit a fresh letter's requirement cells."""
    m = byleen.TwoTransitiveMatrix(finite.cyclic_group(2))
    pool, cells = [], []
    for _ in range(draw(st.integers(1, 4))):
        colour = st.one_of(small, st.sampled_from(pool)) if pool else small
        a1, a2 = draw(st.lists(small_a, min_size=2, max_size=2, unique=True))
        b = m.find_column(a1, a2, draw(colour), draw(colour))
        b1, b2 = draw(st.lists(small_b, min_size=2, max_size=2, unique=True))
        a = m.find_row(b1, b2, draw(colour), draw(colour))
        pool += [b, a]
        cells += [[a1, b], [a2, b], [a, b1], [a, b2]]
    chunks = st.one_of(small.map(lambda w: [w]), st.sampled_from(pool).map(lambda w: [w]),
                       st.sampled_from(cells))
    word = draw(st.lists(chunks, max_size=8))
    word.insert(draw(st.integers(0, len(word))), draw(st.sampled_from(cells)))
    return m, [w for chunk in word for w in chunk]


@settings(max_examples=300, deadline=None)
@given(words_with_fresh_letters())
def test_reduce_matches_rightmost_oracle_on_fresh_letters(case):
    m, word = case
    assert byleen.reduce(m, word) == byleen.reduce_rightmost(m, word)


def test_nf_mul_identity_and_no_redex(mat):
    x = NormalForm((BLetter(1, 1),), 1, (ALetter(0, 0),), mat)
    assert byleen.nf_mul(byleen.identity_nf(mat), x) == x
    assert byleen.nf_mul(x, byleen.identity_nf(mat)) == x
    b_nf = byleen.b_word_nf(mat, (BLetter(0, 0),))
    a_nf = byleen.a_word_nf(mat, (ALetter(0, 0),))
    assert byleen.nf_mul(b_nf, a_nf) == NormalForm(
        (BLetter(0, 0),), mat.identity, (ALetter(0, 0),), mat)


def test_nf_mul_associative(mat):
    rng = random.Random(6)
    for _ in range(200):
        x, y, z = (random_nf(mat, rng) for _ in range(3))
        assert byleen.nf_mul(byleen.nf_mul(x, y), z) == \
            byleen.nf_mul(x, byleen.nf_mul(y, z))


def test_nf_mul_matrix_mismatch():
    m1 = byleen.TwoTransitiveMatrix(finite.cyclic_group(2))
    m2 = byleen.TwoTransitiveMatrix(finite.cyclic_group(2))
    with pytest.raises(byleen.MatrixMismatch):
        byleen.nf_mul(byleen.identity_nf(m1), byleen.identity_nf(m2))
    # forms compare their matrices by identity
    assert byleen.identity_nf(m1) != byleen.identity_nf(m2)
    assert byleen.identity_nf(m1) == byleen.a_word_nf(m1, ())
    assert hash(byleen.identity_nf(m1)) == hash(byleen.a_word_nf(m1, ()))


def test_a_words_closed_under_multiplication(mat):
    # products of nonempty A-words never leave the A-word subsemigroup
    rng = random.Random(7)
    for _ in range(100):
        u1 = tuple(ALetter(rng.randint(0, 2), rng.randint(0, 1))
                   for _ in range(rng.randint(1, 3)))
        u2 = tuple(ALetter(rng.randint(0, 2), rng.randint(0, 1))
                   for _ in range(rng.randint(1, 3)))
        prod = byleen.nf_mul(byleen.a_word_nf(mat, u1), byleen.a_word_nf(mat, u2))
        assert not prod.v and prod.s == mat.identity and len(prod.u) == len(u1 + u2)


def test_render(mat):
    assert byleen.render(byleen.identity_nf(mat)) == "1"
    nf = NormalForm((BLetter(0, 0),), 1, (ALetter(2, 1),), mat)
    assert byleen.render(nf) == "b(0,s0) s1 a(2,s1)"
    assert byleen.render(NormalForm((BLetter(0, 0),), 0, (), mat)) == "b(0,s0)"


def test_render_indices_past_digit_limit(mat):
    # read back by Horner's rule over chunks short enough for int()
    def read(digits):
        x = 0
        for i in range(0, len(digits), 1000):
            chunk = digits[i:i + 1000]
            x = x * 10 ** len(chunk) + int(chunk)
        return x

    rng = random.Random(11)
    indices = [rng.getrandbits(bits) | 1 << bits - 1 for bits in (1, 7999, 8000, 8001, 40000)]
    indices += [10 ** 2408, 10 ** 3000, 10 ** 5000 + 7, 10 ** 2000 - 1]
    indices += [10 ** 600 - 1, 10 ** 600, 10 ** 600 + 1, 10 ** 1200 + 7]  # chunk edges
    for x in indices:
        text = byleen.render(NormalForm((BLetter(x, 0),), 1, (ALetter(x, 1),), mat))
        b, s, a = text.split()
        assert s == "s1" and b[:2] == "b(" and b.endswith(",s0)") and a.endswith(",s1)")
        digits = b[2:-4]
        assert digits == a[2:-4] and digits[0] != "0"
        assert read(digits) == x


# -- claims ---------------------------------------------------------------

def test_claim1(mat):
    assert byleen.claim1(mat, ()) == byleen.identity_nf(mat)
    u = (ALetter(0, 0),)
    lam = byleen.claim1(mat, u)
    assert len(lam.v) == 1 and not lam.u
    u3 = (ALetter(0, 0), ALetter(1, 1), ALetter(0, 1))
    assert byleen.reduce(mat, list(u3) + byleen.claim1(mat, u3).letters()).is_identity()


def test_claim2(mat):
    lam, side, p = byleen.claim2(mat, (), (ALetter(0, 0),))
    assert lam == byleen.identity_nf(mat) and side == "left" and p == (ALetter(0, 0),)
    a, a2 = ALetter(0, 0), ALetter(1, 0)
    byleen.claim2(mat, (a,), (a, a2))          # equal last letters branch
    byleen.claim2(mat, (a, a), (a2, a2))       # distinct last letters branch
    with pytest.raises(byleen.EqualElements):
        byleen.claim2(mat, (a,), (a,))


def test_claim3(mat):
    u, x = (), (ALetter(0, 0),)
    mu, lam = byleen.claim3(mat, u, x, SElem(0), SElem(0))
    assert byleen.nf_mul(byleen.nf_mul(mu, byleen.a_word_nf(mat, u)), lam) \
        == byleen.identity_nf(mat)
    byleen.claim3(mat, (ALetter(0, 0),), (ALetter(1, 1), ALetter(2, 0)),
                  ALetter(0, 0), BLetter(0, 0))


def test_claim4(mat):
    assert byleen.claim4(mat, ()) == byleen.identity_nf(mat)
    v = (BLetter(0, 0),)
    mu = byleen.claim4(mat, v)
    assert len(mu.u) == 1 and not mu.v
    v3 = (BLetter(0, 0), BLetter(1, 1), BLetter(0, 1))
    assert byleen.nf_mul(byleen.claim4(mat, v3), byleen.b_word_nf(mat, v3)).is_identity()


def test_claim5(mat):
    b, b2 = BLetter(0, 0), BLetter(1, 0)
    mu, side, q = byleen.claim5(mat, (), (b,))
    assert side == "left" and q == (b,)
    byleen.claim5(mat, (b, b2), (b,))
    byleen.claim5(mat, (b,), (b2, b))
    with pytest.raises(byleen.EqualElements):
        byleen.claim5(mat, (b,), (b,))


# -- certificates ---------------------------------------------------------

def test_span_witness_cases(mat):
    b0, a0, a1 = BLetter(0, 0), ALetter(0, 0), ALetter(1, 1)
    g = NormalForm((b0,), 1, (a0,), mat)
    expectations = [
        (NormalForm((b0,), 0, (a0,), mat), "equal-words"),
        (NormalForm((b0,), 0, (a1,), mat), "a-words-differ"),
        (NormalForm((BLetter(1, 0),), 0, (a0,), mat), "b-words-differ"),
        (NormalForm((BLetter(1, 0),), 0, (a1,), mat), "both-differ"),
    ]
    for h, case in expectations:
        expr = byleen.span_witness(mat, g, h, SElem(1), a0)
        assert expr.case == case
        assert expr.evaluate() == (byleen.letter_nf(mat, SElem(1)),
                                   byleen.letter_nf(mat, a0))


def test_span_witness_one_factor_layout():
    # every case takes the same path: μ3, a1, μ, the generator, λ, λ3
    m = byleen.TwoTransitiveMatrix(finite.cyclic_group(2))
    for g, h in span_pairs(m, 3, random.Random(17)):
        expr = byleen.span_witness(m, g, h, SElem(1), ALetter(0, 0))
        assert [f[0] for f in expr.factors] == ["diag", "diag", "diag", byleen.GEN,
                                                "diag", "diag"], expr.case


_BASES = (finite.cyclic_group(2), finite.trivial_monoid())


@st.composite
def span_inputs(draw):
    """A matrix, distinct normal forms g and h, and two target letters.

    h keeps g's A-word, B-word and base element each with even odds, so all
    four cases come up, with words of length 0-4, unequal lengths included."""
    m = byleen.TwoTransitiveMatrix(draw(st.sampled_from(_BASES)))
    k = m.base.order
    a_word = st.lists(st.builds(ALetter, st.integers(0, 2), st.integers(0, k - 1)),
                      max_size=4).map(tuple)
    b_word = st.lists(st.builds(BLetter, st.integers(0, 2), st.integers(0, k - 1)),
                      max_size=4).map(tuple)
    base_elem = st.integers(0, k - 1)
    v, s, u = draw(b_word), draw(base_elem), draw(a_word)
    y, t, x = (old if draw(st.booleans()) else draw(new)
               for old, new in ((v, b_word), (s, base_elem), (u, a_word)))
    g, h = NormalForm(v, s, u, m), NormalForm(y, t, x, m)
    assume(g != h)
    target = st.one_of(st.builds(ALetter, st.integers(0, 3), base_elem),
                       st.builds(BLetter, st.integers(0, 3), base_elem),
                       st.builds(SElem, base_elem))
    return m, g, h, draw(target), draw(target)


@settings(max_examples=300, deadline=None)
@given(span_inputs())
def test_span_witness_on_random_normal_forms(inputs):
    m, g, h, w1, w2 = inputs
    expr = byleen.span_witness(m, g, h, w1, w2)
    assert expr.evaluate() == (byleen.letter_nf(m, w1), byleen.letter_nf(m, w2))
    assert expr.case == {(True, True): "equal-words", (False, True): "a-words-differ",
                         (True, False): "b-words-differ",
                         (False, False): "both-differ"}[g.u == h.u, g.v == h.v]


def test_span_witness_faithfulness_case(mat):
    # bare base elements differing only in s exercise the separating letter
    g = NormalForm((), 0, (), mat)
    h = NormalForm((), 1, (), mat)
    expr = byleen.span_witness(mat, g, h, BLetter(2, 1), SElem(0))
    assert expr.case == "equal-words"


def test_span_witness_rejects_equal(mat):
    x = byleen.identity_nf(mat)
    with pytest.raises(byleen.EqualElements):
        byleen.span_witness(mat, x, x, SElem(0), SElem(0))


def test_express_pair(mat):
    g = NormalForm((BLetter(0, 0),), 1, (), mat)
    h = NormalForm((), 0, (ALetter(0, 0),), mat)
    ident = byleen.identity_nf(mat)
    assert byleen.express_pair(mat, g, h, ident, ident).factors == ()
    assert byleen.express_pair(mat, g, h, g, h).factors == ((byleen.GEN,),)
    rng = random.Random(8)
    for _ in range(20):
        p, q = random_nf(mat, rng), random_nf(mat, rng)
        expr = byleen.express_pair(mat, g, h, p, q)
        assert expr.evaluate() == (p, q)


def test_inverse_of(mat):
    ident = byleen.identity_nf(mat)
    assert byleen.inverse_of(mat, ident) == ident
    t = NormalForm((), 1, (ALetter(0, 0),), mat)
    inv = byleen.inverse_of(mat, t)
    assert byleen.nf_mul(byleen.nf_mul(t, inv), t) == t
    t2 = NormalForm((BLetter(0, 0),), 0, (), mat)
    inv2 = byleen.inverse_of(mat, t2)
    assert byleen.nf_mul(byleen.nf_mul(inv2, t2), inv2) == inv2


def test_inverse_of_takes_the_first_sandwich_inverse():
    # LZ2 with an identity adjoined: x0 has the inverses x0 and x1, and x0 is used
    base = finite.validate_cayley(3, [[0, 0, 0], [1, 1, 1], [0, 1, 2]])
    assert finite.inverses_of(base, 0) == [0, 1]
    m = byleen.TwoTransitiveMatrix(base)
    t = NormalForm((BLetter(0, 1),), 0, (ALetter(1, 0),), m)
    inv = byleen.inverse_of(m, t)
    assert inv.s == 0
    assert byleen.render(inv) == "b(216408,s2) s0 a(1353048,s2)"


def test_inverse_of_rejects_non_regular_base():
    # monoid {1, a, z} with a*a = z and z a zero: a has no sandwich inverse
    base = finite.validate_cayley(3, [[0, 1, 2], [1, 2, 2], [2, 2, 2]])
    m = byleen.TwoTransitiveMatrix(base)
    t = NormalForm((), 1, (), m)
    with pytest.raises(byleen.NotRegularBase):
        byleen.inverse_of(m, t)


def test_trivial_base_monoid():
    m = byleen.TwoTransitiveMatrix(finite.trivial_monoid())
    g = byleen.b_word_nf(m, (BLetter(0, 0),))
    h = byleen.a_word_nf(m, (ALetter(0, 0),))
    expr = byleen.span_witness(m, g, h, SElem(0), ALetter(1, 0))
    assert expr.evaluate() == (byleen.identity_nf(m), byleen.letter_nf(m, ALetter(1, 0)))


def test_matrix_requires_monoid_base():
    with pytest.raises(finite.SemigroupError):
        byleen.TwoTransitiveMatrix(constructions.left_zero(2))


# -- certificate re-checks are explicit raises, so they also run under -O --

def test_corrupt_matrix_entry_raises_certificate_error(monkeypatch):
    m = byleen.TwoTransitiveMatrix(finite.cyclic_group(2))
    g = NormalForm((BLetter(0, 0),), 1, (ALetter(0, 0),), m)
    h = NormalForm((BLetter(1, 0),), 0, (ALetter(1, 1),), m)
    monkeypatch.setattr(byleen.TwoTransitiveMatrix, "entry",
                        lambda self, a, b: SElem(self.identity))
    with pytest.raises(byleen.CertificateError):
        byleen.span_witness(m, g, h, SElem(1), ALetter(0, 0))


def test_corrupt_product_raises_certificate_error(monkeypatch):
    m = byleen.TwoTransitiveMatrix(finite.cyclic_group(2))
    t = NormalForm((), 1, (ALetter(0, 0),), m)
    # every product in the re-check evaluates to the identity
    monkeypatch.setattr(byleen, "nf_mul", lambda x, y: byleen.identity_nf(m))
    with pytest.raises(byleen.CertificateError):
        byleen.inverse_of(m, t)


def test_corrupt_evaluation_raises_certificate_error(monkeypatch):
    m = byleen.TwoTransitiveMatrix(finite.cyclic_group(2))
    g = NormalForm((BLetter(0, 0),), 1, (), m)
    h = NormalForm((), 0, (ALetter(0, 0),), m)
    monkeypatch.setattr(byleen.PairExpr, "evaluate", lambda self: self.gen)
    with pytest.raises(byleen.CertificateError):
        byleen.span_witness(m, g, h, SElem(1), ALetter(0, 0))
    with pytest.raises(byleen.CertificateError):
        byleen.express_pair(m, g, h, h, g)

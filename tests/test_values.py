"""Value semantics of the library's value classes.

Each class compares field-wise within its own class, hashes its fields
(AxiomReport, which holds a dict, is unhashable), prints the text a frozen
dataclass of the same fields prints, refuses assignment to a field, and
rejects bad fields in its constructor with SemigroupError.
"""

import copy

import pytest

from sgdsc import byleen, finite, infinite, relations
from sgdsc.finite import SemigroupError

C2 = finite.cyclic_group(2)
C3 = finite.cyclic_group(3)
LZ2 = finite.FiniteSemigroup(2, ((0, 0), (1, 1)))
ID = infinite.EndomorphismTable(C2, (0, 1))
M = byleen.TwoTransitiveMatrix(C2)
G = byleen.NormalForm((), 0, (byleen.ALetter(1, 0),), M)
H = byleen.NormalForm((), 1, (), M)

# class -> (constructor arguments of one object, that object's repr)
CASES = {
    finite.FiniteSemigroup: ((2, C2.table), "FiniteSemigroup(order=2)"),
    finite.GreensData: (((0,), (0,), (0,), (0,)),
                        "GreensData(r_class=(0,), l_class=(0,), j_class=(0,), h_class=(0,))"),
    relations.PairSet: ((C2, (1, 2)), "PairSet(subject=FiniteSemigroup(order=2), rows=(1, 2))"),
    relations.AxiomReport: (({},), "AxiomReport(violations={})"),
    infinite.BicyclicElement: ((1, 2), "BicyclicElement(m=1, n=2)"),
    infinite.EndomorphismTable: (
        (C2, (0, 1)), "EndomorphismTable(base=FiniteSemigroup(order=2), map=(0, 1))"),
    infinite.BRElement: (
        (1, 0, 2, ID),
        "BRElement(m=1, s=0, n=2, theta=EndomorphismTable("
        "base=FiniteSemigroup(order=2), map=(0, 1)))"),
    infinite.APSet: ((((4, 1),), {0}),
                     "APSet(modulus=4, mask=2, plus=frozenset({0}), minus=frozenset())"),
    infinite.CoInjection: ((3, 4, (1, 2, 3), ()),
                           "CoInjection(modulus=3, stride=4, offsets=(1, 2, 3), patches=())"),
    byleen.ALetter: ((1, 0), "ALetter(n=1, s=0)"),
    byleen.BLetter: ((1, 0), "BLetter(n=1, s=0)"),
    byleen.SElem: ((0,), "SElem(s=0)"),
    byleen.NormalForm: (((), 0, (byleen.ALetter(1, 0),), M), "NormalForm('a(1,s0)')"),
    byleen.PairExpr: (((("gen",),), (G, H), "generator"),
                      "PairExpr(factors=(('gen',),), gen=(NormalForm('a(1,s0)'), "
                      "NormalForm('s1')), case='generator')"),
}

# constructor arguments -> the SemigroupError message they raise
REJECTED = [
    (infinite.BicyclicElement, (-1, 0), "bicyclic coordinates must be non-negative"),
    (infinite.BicyclicElement, (0, -1), "bicyclic coordinates must be non-negative"),
    (infinite.EndomorphismTable, (LZ2, (0, 1)), "EndomorphismTable.base must be a monoid"),
    (infinite.EndomorphismTable, (C2, (0,)), "map length must equal base order"),
    (infinite.EndomorphismTable, (C2, (1, 0)), "endomorphism must fix the identity"),
    (infinite.EndomorphismTable, (C3, (0, 1, 1)), "map is not a homomorphism at (1,1)"),
    (infinite.BRElement, (-1, 0, 0, ID), "BR coordinates must be non-negative"),
    (infinite.BRElement, (0, 2, 0, ID), "base element index out of range"),
    (infinite.APSet, (((0, 1),),), "progression modulus must be positive"),
    (infinite.CoInjection, (0, 4, (), ()), "modulus and stride must be positive"),
    (infinite.CoInjection, (2, 4, (1,), ()), "need one offset per residue"),
    (infinite.CoInjection, (2, 4, (1, 5), ()), "offsets must be naturals, distinct mod stride"),
    (infinite.CoInjection, (1, 2, (0,), ((0, 1), (1, 1))),
     "patch sources and targets must be distinct naturals"),
    (infinite.CoInjection, (1, 2, (0,), ((0, 2),)), "not injective: unpatched 1 also maps to 2"),
]


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    args, text = CASES[cls]
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b and a is not b
    assert a != args and a != object()
    # the fields, in order; CoInjection's derived complement is not one
    names = [name for name in vars(a) if not name.startswith("_") and name != "complement"]
    fields = tuple(getattr(a, name) for name in names)
    if cls is relations.AxiomReport:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(fields)
    # every field takes part in equality: a copy differing in that field alone
    # is unequal
    for name in names:
        other = copy.copy(a)
        assert other == a
        object.__setattr__(other, name, object())
        assert a != other and not a == other, name
    assert repr(a) == text
    for name in names + ["new_attribute"]:
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_letters_of_different_kinds_differ():
    a, b = byleen.ALetter(1, 0), byleen.BLetter(1, 0)
    assert a != b and not a == b
    assert a != (1, 0) and b != (1, 0) and (1, 0) != a
    assert len({a, b, byleen.ALetter(1, 0)}) == 2


def test_coinjection_leaves_its_complement_out_of_equality_and_repr():
    f, g = infinite.CoInjection(3, 4, (1, 2, 3), ()), infinite.CoInjection(3, 4, (1, 2, 3), ())
    assert f.complement == infinite.APSet(((4, 0),))
    object.__setattr__(g, "complement", None)
    assert f == g and hash(f) == hash(g)
    assert "complement" not in repr(f)
    with pytest.raises(AttributeError):
        f.complement = f.complement


@pytest.mark.parametrize("cls, args, message", REJECTED,
                         ids=[f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(REJECTED)])
def test_constructor_rejects_bad_fields(cls, args, message):
    with pytest.raises(SemigroupError) as info:
        cls(*args)
    assert str(info.value) == message

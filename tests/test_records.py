"""The contract of the package's immutable records.

Each case builds a record twice from the same values, once with a compared
field changed and, where the record has one, once with a field that
equality ignores changed.  The constructors keep their keywords and
defaults.
"""

import inspect
from fractions import Fraction

import pytest

from toruskit import linalg
from toruskit.arith import AbelianGaloisDatum, DirichletCharacter
from toruskit.cohomology import CohomologyClasses
from toruskit.groups import FiniteGroup, FiniteGSet, Subgroup, cyclic_group
from toruskit.lattices import FGAbelian, GLattice, GModulePresentation
from toruskit.tori import RealClassification, Torus

C2, C4 = cyclic_group(2), cyclic_group(4)
REQUIRED = inspect.Parameter.empty
Q = Fraction


def z3(shift):  # the group law a + b + shift mod 3, with identity -shift
    return [[(a + b + shift) % 3 for b in range(3)] for a in range(3)]


def classes(fg):
    return CohomologyClasses(fg, linalg.intmat([[1], [0]]), linalg.intmat([[1, 0]]),
                             linalg.intmat([[0, 1]]))


# (class, signature, field assigned and deleted, build, changed, ignored)
CASES = [
    (linalg.Matrix, [("shape", REQUIRED), ("rows", REQUIRED)], "rows",
     lambda: linalg.intmat([[1, 0], [2, 3]]), lambda: linalg.intmat([[1, 0], [2, 4]]), None),
    (FiniteGroup, [("table", REQUIRED), ("label", "")], "table",
     lambda: FiniteGroup(z3(0), "Z/3"), lambda: FiniteGroup(z3(1), "Z/3"),
     lambda: FiniteGroup(z3(0), "C3")),
    (Subgroup, [("parent", REQUIRED), ("elements", REQUIRED)], "elements",
     lambda: Subgroup(C4, [0, 2]), lambda: Subgroup(C4, [0, 1, 2, 3]), None),
    (FiniteGSet, [("group", REQUIRED), ("action", REQUIRED)], "action",
     lambda: FiniteGSet(C2, ((0, 1), (1, 0))), lambda: FiniteGSet(C2, ((0, 1), (0, 1))), None),
    (GModulePresentation, [("group", REQUIRED), ("relations", REQUIRED), ("action", REQUIRED)],
     "relations", lambda: GModulePresentation(C2, [[2]], [[[1]], [[-1]]]),
     lambda: GModulePresentation(C2, [[3]], [[[1]], [[-1]]]), None),
    (GLattice, [("group", REQUIRED), ("action", REQUIRED)], "action",
     lambda: GLattice(C2, [[[1]], [[-1]]]), lambda: GLattice(C2, [[[1]], [[1]]]), None),
    (FGAbelian, [("free_rank", REQUIRED), ("torsion", REQUIRED)], "torsion",
     lambda: FGAbelian(1, (2, 4)), lambda: FGAbelian(1, (2, 8)), None),
    (AbelianGaloisDatum, [("modulus", REQUIRED), ("subgroup", None)], "modulus",
     lambda: AbelianGaloisDatum(15), lambda: AbelianGaloisDatum(15, (1, 4)), None),
    (DirichletCharacter, [("datum", REQUIRED), ("exponents", REQUIRED)], "exponents",
     lambda: DirichletCharacter(AbelianGaloisDatum(5), (Q(0), Q(1, 4), Q(3, 4), Q(1, 2))),
     lambda: DirichletCharacter(AbelianGaloisDatum(5), (Q(0), Q(1, 2), Q(1, 2), Q(0))), None),
    (CohomologyClasses, [("fg", REQUIRED), ("generators", REQUIRED),
                         ("coordinate_rows", REQUIRED), ("cocycle_test", REQUIRED)], "fg",
     lambda: classes(FGAbelian(0, (2,))), lambda: classes(FGAbelian(0, (3,))), None),
    (Torus, [("splitting", REQUIRED), ("X", REQUIRED), ("kind", REQUIRED)], "kind",
     lambda: Torus(C2, GLattice(C2, [[[1]], [[-1]]]), "so2"),
     lambda: Torus(C2, GLattice(C2, [[[1]], [[-1]]]), "lattice"), None),
    (RealClassification, [("a", REQUIRED), ("b", REQUIRED), ("c", REQUIRED)], "c",
     lambda: RealClassification(1, 0, 2), lambda: RealClassification(1, 0, 3), None),
]


@pytest.mark.parametrize("cls, signature, name, build, changed, ignored", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_contract(cls, signature, name, build, changed, ignored):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == signature
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    first, again = build(), build()
    assert type(first) is cls and first is not again
    assert first == again and hash(first) == hash(again) and not first != again
    assert first != changed() and not first == changed()
    if ignored is not None:
        assert first == ignored() and hash(first) == hash(ignored())
    others = [case[3]() for case in CASES if case[0] is not cls]
    assert all(first != other and other != first for other in others)
    kept = getattr(first, name)
    with pytest.raises(AttributeError):
        setattr(first, name, kept)
    with pytest.raises(AttributeError):
        delattr(first, name)
    with pytest.raises(AttributeError):
        first.unknown = 1
    assert getattr(first, name) is kept and first == again

"""Value semantics of the record classes.

``Frame`` and ``Subspace`` are plain classes with frozen-dataclass behaviour;
``S2Witness`` and the generator records are NamedTuples.  These tests pin
equality, hashing, immutability and the ``repr`` text of each.
"""

from fractions import Fraction

import pytest

from prframes import (
    CertifiedFrame,
    ConstructionPlan,
    Frame,
    PatternMatrix,
    S2Witness,
    Subspace,
    d_max,
    has_complement_property,
    is_exact_pr_frame,
    plan,
)

F0, F1 = Fraction(0), Fraction(1)
UNIT_2 = ((F1, F0), (F0, F1))


def pr_frame():
    return Frame.from_vectors([(1, 0), (0, 1), (1, 1)])


def test_frame_equality_and_hash_follow_the_fields():
    a, b = pr_frame(), Frame(2, UNIT_2 + ((F1, F1),))
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != Frame.from_vectors([(1, 0), (0, 1), (1, 2)])
    assert len({a, b, Frame(2, UNIT_2)}) == 2


def test_subspace_equality_and_hash_follow_the_fields():
    a, b = Subspace.from_vectors([(1, 1)]), Subspace(2, ((F1, F1),))
    assert a == b and hash(a) == hash(b)
    assert a != Subspace.from_vectors([(1, -1)])
    assert a != Subspace.from_vectors([(1, 1, 0)])


def test_frame_never_equals_a_subspace_or_a_tuple():
    frame, sub = Frame(2, UNIT_2), Subspace(2, UNIT_2)
    assert frame.__eq__(sub) is NotImplemented
    assert frame != sub and sub != frame
    assert frame != (2, UNIT_2) and sub != (2, UNIT_2)


@pytest.mark.parametrize(
    "obj, field",
    [(pr_frame(), "dim"), (pr_frame(), "vectors"), (Subspace(2, UNIT_2), "basis"),
     (Subspace(2, UNIT_2), "ambient_dim")],
)
def test_fields_cannot_be_set_or_deleted(obj, field):
    before = getattr(obj, field)
    with pytest.raises(AttributeError, match=field):
        setattr(obj, field, before)
    with pytest.raises(AttributeError, match=field):
        delattr(obj, field)
    assert getattr(obj, field) == before


def test_repr_text():
    assert repr(Frame(2, UNIT_2)) == (
        "Frame(dim=2, vectors=((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1))))"
    )
    assert repr(Subspace(2, ((F1, F0),))) == (
        "Subspace(ambient_dim=2, basis=((Fraction(1, 1), Fraction(0, 1)),))"
    )


def test_frame_proofs_are_computed_once(partition_searches):
    frame = Frame.from_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)])
    first = (has_complement_property(frame), is_exact_pr_frame(frame), d_max(frame))
    assert {"_cp", "_exactness", "_d"} <= set(vars(frame))
    searched = len(partition_searches)
    assert searched > 0
    again = (has_complement_property(frame), is_exact_pr_frame(frame), d_max(frame))
    assert again == first
    assert len(partition_searches) == searched


def test_witness_record():
    w = S2Witness((F1, F0), (F0, F1), 3)
    assert repr(w) == (
        "S2Witness(x=(Fraction(1, 1), Fraction(0, 1)), y=(Fraction(0, 1), Fraction(1, 1)), "
        "differing_index=3)"
    )
    same = S2Witness((F1, F0), (F0, F1), 3)
    assert w == same and hash(w) == hash(same)
    assert w != S2Witness((F1, F0), (F0, F1))
    assert S2Witness((F1,), (F0,)).differing_index is None
    with pytest.raises(AttributeError):
        w.x = (F0, F0)


def test_generator_records():
    mask = ((True, False),)
    p = PatternMatrix(mask)
    assert repr(p) == "PatternMatrix(mask=((True, False),))"
    assert (p.n, p.N) == (1, 2)
    same = PatternMatrix(((True, False),))
    assert p == same and hash(p) == hash(same)
    assert p != PatternMatrix(((False, True),))

    steps = plan(4, 8)
    assert repr(steps) == "ConstructionPlan(steps=('base36', 'step_III'), target=(4, 8))"
    assert steps == ConstructionPlan(("base36", "step_III"), (4, 8))

    frame = Frame(2, UNIT_2)
    cert = CertifiedFrame(frame, {"seed": 0})
    assert repr(cert) == f"CertifiedFrame(frame={frame!r}, certificate={{'seed': 0}})"
    assert cert == CertifiedFrame(Frame(2, UNIT_2), {"seed": 0})
    assert cert != CertifiedFrame(frame, {"seed": 1})
    with pytest.raises(AttributeError):
        cert.frame = frame

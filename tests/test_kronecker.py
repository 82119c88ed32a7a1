import pytest

from monocat.base import chain_base
from monocat.decompose import is_indecomposable
from monocat.enumerate import kronecker_family, normalize_p1_point, p1_points
from monocat.mimo import mimo_from_stable, stable_reduce
from monocat.rep import is_iso_reps, is_mono

B = chain_base("poly", 2, 2)
B3 = chain_base("poly", 3, 2)


def test_p0_and_p1_shapes():
    p0 = kronecker_family(B, "P", 0)
    assert p0.modules["1"].is_zero() and p0.modules["2"].parts == ("M1",)
    p1 = kronecker_family(B, "P", 1)
    # no kernel at the sink: the member is the plain two-coordinate diagram
    assert p1.modules["1"].parts == ("M1",)
    assert p1.modules["2"].parts == ("M1", "M1")
    assert is_mono(p1)


def test_p2_adds_length_two_block():
    p2 = kronecker_family(B, "P", 2)
    assert p2.modules["1"].parts == ("M1", "M1")
    assert p2.modules["2"].parts == ("M2", "M1", "M1", "M1")
    assert is_mono(p2)
    assert is_indecomposable(p2)


def test_i0_shape():
    i0 = kronecker_family(B, "I", 0)
    assert i0.modules["1"].parts == ("M1",)
    assert i0.modules["2"].parts == ("M2", "M2")
    assert is_mono(i0)


def test_regular_members_distinct_parameters():
    members = [kronecker_family(B, "R", 1, pt) for pt in p1_points(2)]
    assert len(members) == 3
    for i in range(3):
        assert is_mono(members[i]) and is_indecomposable(members[i])
        for j in range(i + 1, 3):
            assert not is_iso_reps(members[i], members[j])


def test_regular_quotient_model():
    r1 = kronecker_family(B, "R", 1, (1, 0))
    assert r1.modules["1"].parts == ("M1",)
    assert r1.modules["2"].parts == ("M2", "M1")


def test_roundtrip_through_stable_category():
    for which, n, pt in [("P", 2, None), ("I", 1, None), ("R", 2, (1, 1)), ("R", 1, (0, 1))]:
        m = kronecker_family(B3, which, n, pt)
        assert is_mono(m)
        assert is_iso_reps(mimo_from_stable(stable_reduce(m)), m)


def test_point_normalization():
    assert normalize_p1_point(3, (2, 1)) == (1, 2)
    assert normalize_p1_point(3, "0:2") == (0, 1)
    with pytest.raises(ValueError):
        normalize_p1_point(2, (0, 0))
    with pytest.raises(ValueError):
        normalize_p1_point(2, (2, 2))
    for bad in [(1, 0, 1), (1,), "1:0:1", "x", 5]:
        with pytest.raises(ValueError, match="malformed projective point"):
            normalize_p1_point(2, bad)


def test_family_validation():
    with pytest.raises(ValueError):
        kronecker_family(chain_base("int", 2, 2), "P", 1)
    with pytest.raises(ValueError):
        kronecker_family(B, "R", 0, (1, 0))
    with pytest.raises(ValueError):
        kronecker_family(B, "X", 1)

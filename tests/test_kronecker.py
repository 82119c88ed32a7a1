import pytest

from monocat.base import chain_base
from monocat.decompose import is_indecomposable
from monocat.enumerate import kronecker_family, normalize_p1_point, p1_points
from monocat.mimo import mimo_from_stable, stable_reduce
from monocat.rep import is_iso_reps, is_mono
from oracles import kronecker_forms

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


def _members(p):
    for n in range(4):
        yield "P", n, None
        yield "I", n, None
    for n in range(1, 4):
        for pt in p1_points(p):
            yield "R", n, pt


@pytest.mark.parametrize("p", [2, 3])
def test_members_match_the_form_model(p):
    base = chain_base("poly", p, 2)
    for which, n, pt in _members(p):
        member, reference = kronecker_family(base, which, n, pt), kronecker_forms(base, which, n, pt)
        assert member.modules == reference.modules, (which, n, pt)
        assert is_iso_reps(member, reference), (which, n, pt)


def _singular_mod_p(M, p):
    """Whether the square integer matrix M is singular over F_p."""
    M = [[x % p for x in row] for row in M]
    for k in range(len(M)):
        pivot = next((i for i in range(k, len(M)) if M[i][k]), None)
        if pivot is None:
            return True
        M[k], M[pivot] = M[pivot], M[k]
        inv = pow(M[k][k], -1, p)
        for i in range(k + 1, len(M)):
            c = M[i][k] * inv
            M[i] = [(x - c * y) % p for x, y in zip(M[i], M[k])]
    return False


@pytest.mark.parametrize("p", [2, 3])
def test_regular_point_is_where_the_pencil_drops_rank(p):
    # on the stable image of R_n(a:b), c*A + d*B is singular exactly at (c:d) = (a:b)
    base = chain_base("poly", p, 2)
    for n in range(1, 4):
        for pt in p1_points(p):
            s = stable_reduce(kronecker_family(base, "R", n, pt))
            A, B = ([[e.digits[0] for e in row] for row in s.maps[x].entries] for x in "ab")
            assert len(A) == len(A[0]) == n
            for c, d in p1_points(p):
                pencil = [[c * x + d * y for x, y in zip(*rows)] for rows in zip(A, B)]
                assert _singular_mod_p(pencil, p) == ((c, d) == pt), (n, pt, (c, d))


def test_family_validation():
    with pytest.raises(ValueError):
        kronecker_family(chain_base("int", 2, 2), "P", 1)
    with pytest.raises(ValueError):
        kronecker_family(B, "R", 0, (1, 0))
    with pytest.raises(ValueError):
        kronecker_family(B, "X", 1)

import pytest

from monocat.base import chain_base
from monocat.decompose import is_indecomposable
from monocat.mimo import transfer
from monocat.quiver import builtin_quiver
from monocat.rep import (
    Representation,
    f_shriek,
    is_iso_reps,
    is_mono,
    partition_vector,
    rep_direct_sum,
    vertex_module,
)
from monocat.serialmod import morphism, serial_module

A2 = builtin_quiver("An-linear:2")
P3 = chain_base("poly", 2, 3)
I3 = chain_base("int", 2, 3)


def test_transfer_projection_inclusion_object():
    m2 = serial_module(P3, ["M2"])
    m13 = serial_module(P3, ["M1", "M3"])
    r = Representation(A2, P3, {"1": m2, "2": m13},
                       {"a1": morphism(m2, m13, [[1], [1]])})
    out = transfer(r, I3)
    assert out.base == I3
    assert is_mono(out) and is_indecomposable(out)
    assert partition_vector(out) == partition_vector(r)
    # the image is the projection-plus-inclusion object over the integers
    back = transfer(out, P3)
    assert is_iso_reps(back, r)


def test_transfer_monic_family():
    for i, j in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]:
        mi = serial_module(P3, [f"M{i}"])
        mj = serial_module(P3, [f"M{j}"])
        r = Representation(A2, P3, {"1": mi, "2": mj},
                           {"a1": morphism(mi, mj, [[1]])})
        assert is_mono(r)
        out = transfer(r, I3)
        assert is_mono(out)
        assert partition_vector(out) == {"1": (i,), "2": (j,)}
        assert is_iso_reps(transfer(out, P3), r)


def test_transfer_injective_case():
    fs = f_shriek(P3, A2, vertex_module(P3, A2, "1", serial_module(P3, ["M3"])))
    out = transfer(fs, I3)
    expected = f_shriek(I3, A2, vertex_module(I3, A2, "1", serial_module(I3, ["M3"])))
    assert out == expected


@pytest.mark.parametrize("base", [P3, I3, chain_base("poly", 3, 2), chain_base("int", 3, 3)],
                         ids=["chain:poly:2:3", "chain:int:2:3", "chain:poly:3:2", "chain:int:3:3"])
def test_transfer_of_a_sum_with_an_injective_round_trips(base):
    """X (+) f_!(M_n at v), X a non-injective indecomposable monic
    representation, the inclusion M_i -> M_j (1 <= i <= j, i < n) or
    0 -> M_j (j < n): the partition vector is kept, and transferring there
    and back gives a representation isomorphic to the input."""
    n, p = base.ring.n, base.ring.p
    partner = chain_base("int" if base.ring.kind == "poly" else "poly", p, n)
    pairs = [(i, j) for i in range(n) for j in range(max(i, 1), n + 1) if i or j < n]
    for i, j in pairs:
        mi = serial_module(base, [f"M{i}"] if i else [])
        mj = serial_module(base, [f"M{j}"])
        x = Representation(A2, base, {"1": mi, "2": mj},
                           {"a1": morphism(mi, mj, [[1]] if i else [[]])})
        for v in A2.vertices:
            injective = f_shriek(base, A2, vertex_module(base, A2, v, serial_module(base, [f"M{n}"])))
            r = rep_direct_sum(x, injective)
            out = transfer(r, partner)
            assert is_mono(out) and partition_vector(out) == partition_vector(r)
            assert is_iso_reps(transfer(out, base), r)
    assert len(pairs) >= 3


def test_transfer_length_one_relabels():
    p1 = chain_base("poly", 3, 1)
    i1 = chain_base("int", 3, 1)
    r = Representation(A2, p1, {"1": serial_module(p1, ["M1"]),
                                "2": serial_module(p1, ["M1", "M1"])},
                       {"a1": morphism(serial_module(p1, ["M1"]),
                                       serial_module(p1, ["M1", "M1"]), [[1], [2]])})
    assert is_mono(r)
    out = transfer(r, i1)
    assert out.base == i1
    assert partition_vector(out) == partition_vector(r)


def test_transfer_rejects_long_loewy_length():
    p4 = chain_base("poly", 2, 4)
    i4 = chain_base("int", 2, 4)
    r = Representation(A2, p4, {"2": serial_module(p4, ["M1"])}, {})
    with pytest.raises(ValueError):
        transfer(r, i4)


def test_transfer_rejects_mismatched_parameters():
    r = Representation(A2, P3, {"2": serial_module(P3, ["M1"])}, {})
    with pytest.raises(ValueError):
        transfer(r, chain_base("int", 3, 3))
    with pytest.raises(ValueError):
        transfer(r, chain_base("int", 2, 2))


def test_transfer_requires_mono():
    r = Representation(A2, P3, {"1": serial_module(P3, ["M1"])}, {})
    with pytest.raises(ValueError):
        transfer(r, I3)

import random

import pytest

from monocat.base import chain_base, stable_base
from monocat.decompose import BudgetExceeded, decompose, is_indecomposable
from monocat.mimo import mimo_from_stable
from monocat.quiver import builtin_quiver
from monocat.rep import (
    Representation,
    f_shriek,
    hom_reps,
    is_iso_reps,
    random_representation,
    rep_direct_sum,
    rep_morphism_compose,
    vertex_module,
)
from monocat.serialmod import serial_module

B2 = chain_base("poly", 2, 2)
B3 = chain_base("int", 2, 3)
A2 = builtin_quiver("An-linear:2")


def test_two_simples_decompose():
    s1 = Representation(A2, B2, {"1": serial_module(B2, ["M1"])}, {})
    s2 = Representation(A2, B2, {"2": serial_module(B2, ["M1"])}, {})
    factors = decompose(rep_direct_sum(s1, s2))
    assert len(factors) == 2
    assert {f[1] for f in factors} == {1}
    assert all(c == "exhaustive" for _, _, c in factors)


def test_multiplicity_grouping():
    s1 = Representation(A2, B2, {"1": serial_module(B2, ["M1"])}, {})
    d = rep_direct_sum(s1, s1)
    factors = decompose(d)
    assert len(factors) == 1 and factors[0][1] == 2


def test_decompose_passes_its_budget_to_grouping(monkeypatch):
    """decompose(r, budget) groups equal factors with is_iso_reps at that budget."""
    import monocat.decompose as dec

    budgets = []
    real = dec.is_iso_reps

    def recording(r, s, budget):
        budgets.append(budget)
        return real(r, s, budget=budget)

    monkeypatch.setattr(dec, "is_iso_reps", recording)
    s1 = Representation(A2, B2, {"1": serial_module(B2, ["M1"])}, {})
    factors = dec.decompose(rep_direct_sum(s1, rep_direct_sum(s1, s1)), budget=12345)
    assert [mult for _, mult, _ in factors] == [3]
    assert budgets == [12345, 12345]


def test_f_shriek_indecomposable_iff_module_is():
    assert is_indecomposable(
        f_shriek(B3, A2, vertex_module(B3, A2, "1", serial_module(B3, ["M2"]))))
    assert not is_indecomposable(
        f_shriek(B3, A2, vertex_module(B3, A2, "1", serial_module(B3, ["M2", "M1"]))))


def test_mimo_of_indecomposable_stable_is_indecomposable():
    rng = random.Random(2)
    st = stable_base(B3)
    sample = 0
    for _ in range(40):
        s = random_representation(st, A2, rng)
        if s.is_zero():
            continue
        if not is_indecomposable(s):
            continue
        sample += 1
        assert is_indecomposable(mimo_from_stable(s))
    assert sample >= 3


def test_decompose_reassembles():
    rng = random.Random(6)
    for _ in range(20):
        r = random_representation(B3, A2, rng)
        if r.is_zero():
            continue
        factors = decompose(r)
        total = None
        for rep, mult, _ in factors:
            for _ in range(mult):
                total = rep if total is None else rep_direct_sum(total, rep)
        assert is_iso_reps(total, r)


def test_zero_rep_decomposes_to_nothing():
    z = Representation(A2, B2, {}, {})
    assert decompose(z) == []
    assert not is_indecomposable(z)


def test_budget_exceeded():
    s1 = Representation(A2, B2, {"1": serial_module(B2, ["M1"])}, {})
    with pytest.raises(BudgetExceeded):
        decompose(s1, budget=0)


def test_basis_witness_decides_above_budget():
    s = Representation(A2, B2, {"1": serial_module(B2, ["M1"])}, {})
    # The residue space of End(s + s) has 2^4 elements, above the budget, but
    # one of its basis elements is neither invertible nor nilpotent.
    assert not is_indecomposable(rep_direct_sum(s, s), budget=1)


def _local_by_scan(r, budget):
    """End(r) is local iff every endomorphism is invertible or nilpotent;
    decided by listing End(r), or None when it exceeds the budget."""
    endos = hom_reps(r, r).iterate(budget)
    if endos is None:
        return None
    for phi in endos:
        if phi.is_iso():
            continue
        power = phi
        for _ in range(r.total_length() - 1):
            power = rep_morphism_compose(power, phi)
        if not all(f.is_zero() for f in power.components.values()):
            return False
    return True


@pytest.mark.parametrize("arith", ["int", "poly"])
@pytest.mark.parametrize("quiver_name", ["An-linear:2", "A4-zigzag"])
def test_indecomposable_matches_endomorphism_scan(arith, quiver_name):
    base = chain_base(arith, 2, 3)
    quiver = builtin_quiver(quiver_name)
    rng = random.Random(11)
    verdicts = {True: 0, False: 0}
    for _ in range(8):
        r = random_representation(base, quiver, rng)
        if r.is_zero():
            continue
        # r itself is mostly decomposable; its factors supply the other side
        for rep in [r] + [factor for factor, _, _ in decompose(r)]:
            local = _local_by_scan(rep, 4096)
            if local is None:
                continue
            assert is_indecomposable(rep) == local
            verdicts[local] += 1
    assert verdicts[True] >= 5 and verdicts[False] >= 5

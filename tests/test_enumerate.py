import os

import pytest

from monocat.base import chain_base, rad2nak_base
from monocat.decompose import BudgetExceeded, is_indecomposable
from monocat.enumerate import (
    enumerate_bounded,
    enumerate_gabriel,
    enumerate_mono_rad2,
    modules_up_to_length,
    verify_length_vector_table,
)
from monocat.mimo import injective_rep_recognize
from monocat.quiver import builtin_quiver
from monocat.rep import is_iso_reps, is_mono
from monocat.serialmod import morphism, serial_module


def test_gabriel_a2():
    q = builtin_quiver("An-linear:2")
    classes = enumerate_gabriel(q, 2)
    dims = sorted(tuple(r.modules[v].rank for v in q.vertices) for r in classes)
    assert dims == [(0, 1), (1, 0), (1, 1)]
    assert all(is_indecomposable(r) for r in classes)


def test_gabriel_a3_intervals():
    q = builtin_quiver("An-linear:3")
    classes = enumerate_gabriel(q, 2)
    assert len(classes) == 6
    dims = {tuple(r.modules[v].rank for v in q.vertices) for r in classes}
    assert dims == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)}


def test_gabriel_d4():
    q = builtin_quiver("D4")
    classes = enumerate_gabriel(q, 2)
    assert len(classes) == 12


def test_gabriel_rejects_non_dynkin():
    with pytest.raises(ValueError):
        enumerate_gabriel(builtin_quiver("kronecker"), 2)


def test_mono_rad2_a3():
    report = enumerate_mono_rad2(builtin_quiver("An-linear:3"), chain_base("poly", 2, 2))
    assert report.counts == {"injective": 3, "non_injective": 6}


def test_mono_rad2_rad2nak_backing():
    q = builtin_quiver("An-linear:2")
    base = rad2nak_base(2, 2)
    report = enumerate_mono_rad2(q, base, verify=True)
    # m = 2 injective labels, t = 2 simples, |Phi+(A2)| = 3
    assert report.counts == {"injective": 4, "non_injective": 6}
    for rep, _ in report.classes:
        assert is_mono(rep)


def test_bounded_semisimple_matches_gabriel():
    q = builtin_quiver("An-linear:2")
    base = chain_base("int", 2, 1)
    report = enumerate_bounded(q, base, (1, 1))
    assert len(report.classes) == 3


def test_bounded_zero_caps_empty():
    q = builtin_quiver("An-linear:2")
    report = enumerate_bounded(q, chain_base("poly", 2, 2), (0, 0), mono_only=True)
    assert report.classes == []


@pytest.mark.parametrize("caps", [(-1, 2), {"1": 0, "2": -1}])
def test_bounded_rejects_negative_caps(caps):
    q = builtin_quiver("An-linear:2")
    with pytest.raises(ValueError, match="caps must be non-negative"):
        enumerate_bounded(q, chain_base("poly", 2, 2), caps, mono_only=True)


def test_bounded_matches_rad2_classification():
    q = builtin_quiver("An-linear:2")
    base = chain_base("poly", 2, 2)
    bounded = enumerate_bounded(q, base, (2, 2), mono_only=True)
    assert len(bounded.classes) == 5
    reference = enumerate_mono_rad2(q, base)
    matched = 0
    for r, _ in bounded.classes:
        assert any(is_iso_reps(r, s) for s, _ in reference.classes)
        matched += 1
    assert matched == 5


def test_bounded_cross_ring_agreement_z4():
    q = builtin_quiver("An-linear:2")
    base = chain_base("int", 2, 2)
    bounded = enumerate_bounded(q, base, (3, 3), mono_only=True)
    assert len(bounded.classes) == 5  # 2 injective + 3 non-injective


def test_bounded_budget():
    q = builtin_quiver("An-linear:2")
    with pytest.raises(BudgetExceeded):
        enumerate_bounded(q, chain_base("poly", 2, 2), (2, 2), budget=5)


def test_bounded_budget_generic_mono_path():
    """The pruned generic search still counts the tuples it visits."""
    q = builtin_quiver("A4-zigzag")
    with pytest.raises(BudgetExceeded):
        enumerate_bounded(q, chain_base("poly", 2, 2), (2, 2, 2, 2), mono_only=True, budget=10)


def test_modules_up_to_length():
    base = chain_base("int", 2, 3)
    mods = modules_up_to_length(base, 3)
    parts = {m.parts for m in mods}
    assert len(mods) == len(parts)
    assert parts == {(), ("M1",), ("M2",), ("M3",), ("M1", "M1"),
                     ("M2", "M1"), ("M1", "M1", "M1")}


def test_bounded_agrees_with_classification_both_rings():
    """Exhaustive search and the classification construction produce the same
    class sets over both length-2 backings (the cross-validation invariant)."""
    for arith in ("poly", "int"):
        base = chain_base(arith, 2, 2)
        for qname in ("An-linear:2", "An-linear:3"):
            q = builtin_quiver(qname)
            caps = tuple(3 for _ in q.vertices)
            bounded = enumerate_bounded(q, base, caps, mono_only=True)
            reference = enumerate_mono_rad2(q, base)
            assert len(bounded.classes) == len(reference.classes)
            for r, _ in bounded.classes:
                assert any(is_iso_reps(r, s) for s, _ in reference.classes)


def test_rad2_report_invariants():
    """Every non-injective class is a fixed point of the stable round trip,
    and every injective class is recognized as path-indexed."""
    from monocat.mimo import mimo_from_stable, stable_reduce

    q = builtin_quiver("An-linear:3")
    base = chain_base("poly", 2, 2)
    report = enumerate_mono_rad2(q, base)
    for rep, _ in report.classes:
        j = injective_rep_recognize(rep)
        if j is None:
            assert is_iso_reps(mimo_from_stable(stable_reduce(rep)), rep)


COUNT_CASES = [
    ("linear-a3", lambda: enumerate_bounded(builtin_quiver("An-linear:3"), chain_base("poly", 2, 3),
                                            (3, 4, 5), mono_only=True)),
    ("zigzag", lambda: enumerate_bounded(builtin_quiver("A4-zigzag"), chain_base("poly", 2, 2),
                                         (2, 2, 2, 2), mono_only=True)),
    ("a4-rad2-chain", lambda: enumerate_mono_rad2(builtin_quiver("An-linear:4"),
                                                  chain_base("poly", 2, 2))),
    ("a4-rad2nak", lambda: enumerate_mono_rad2(builtin_quiver("An-linear:4"), rad2nak_base(2, 2))),
    ("a2-not-mono", lambda: enumerate_bounded(builtin_quiver("An-linear:2"),
                                              chain_base("poly", 2, 2), (2, 2))),
]


@pytest.mark.parametrize("make", [m for _, m in COUNT_CASES], ids=[i for i, _ in COUNT_CASES])
def test_injective_count_agrees_with_recognition(make):
    """A class counts as injective exactly when ``injective_rep_recognize``
    finds it path-indexed; over An-linear:2 without the mono condition the
    class M2 -x-> M2 has injective vertex modules and is not counted."""
    report = make()
    recognized = sum(1 for r, _ in report.classes if injective_rep_recognize(r) is not None)
    assert report.counts == {"injective": recognized,
                             "non_injective": len(report.classes) - recognized}
    assert recognized > 0
    if not all(is_mono(r) for r, _ in report.classes):
        base = report.base
        M2 = serial_module(base, ["M2"])
        x = morphism(M2, M2, [[base.ring.pi]])
        [r] = [r for r, _ in report.classes
               if set(r.modules.values()) == {M2} and list(r.maps.values()) == [x]]
        assert not is_mono(r) and injective_rep_recognize(r) is None


def _s5_sweep(cap):
    """The monic sweep of S(5) = mono(A2, F_2[x]/(x^5)) at caps (cap, cap)."""
    return enumerate_bounded(builtin_quiver("An-linear:2"), chain_base("poly", 2, 5), (cap, cap),
                             mono_only=True)


def test_s5_sweep_at_caps_7():
    # the count the Birkhoff mass balance confirms at caps (7,7); the
    # injectives are 0 -> M5 and M5 -> M5
    report = _s5_sweep(7)
    assert len(report.classes) == 35
    assert report.counts == {"injective": 2, "non_injective": 33}


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("MONOCAT_FULL") != "1", reason="caps (8,8); set MONOCAT_FULL=1")
def test_s5_sweep_at_caps_8():
    assert len(_s5_sweep(8).classes) == 41


def test_verify_table_empty():
    out = verify_length_vector_table(builtin_quiver("An-linear:2"),
                                     chain_base("poly", 2, 2), [])
    assert out == {"verdicts": {}, "extras": {}, "hull": None}


def test_verify_table_small():
    q = builtin_quiver("An-linear:2")
    base = chain_base("poly", 2, 2)
    out = verify_length_vector_table(q, base, [(1, 2), (1, 1), (2, 2)], margin=0)
    assert out["verdicts"] == {(1, 2): "unique", (1, 1): "unique", (2, 2): "unique"}
    # within that hull the remaining classes are (0,1) and (0,2)
    assert set(out["extras"]) == {(0, 1), (0, 2)}

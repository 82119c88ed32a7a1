import random

import pytest

from monocat.base import chain_base, stable_base
from monocat.decompose import (
    BudgetExceeded,
    coordinate_blocks,
    decompose,
    is_indecomposable,
)
from monocat.exact import is_iso, solve_right
from monocat.mimo import mimo_from_stable
from monocat.quiver import builtin_quiver
from monocat.rep import (
    Representation,
    RepMorphism,
    f_shriek,
    hom_reps,
    is_iso_reps,
    random_representation,
    rep_morphism_compose,
    vertex_module,
)
from monocat.serialmod import (
    hom_space,
    identity_morphism,
    mor_compose,
    morphism,
    serial_module,
)
from oracles import rep_direct_sum, rep_homs

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
    endos = rep_homs(hom_reps(r, r), budget)
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


def _counting(monkeypatch, name):
    """Replace decompose.<name> by a wrapper recording its arguments.  The
    memo of _residue_witness is emptied first, so every connected node
    solves its endomorphism ring again."""
    import monocat.decompose as dec

    dec._residue_witness.cache_clear()
    calls = []
    real = getattr(dec, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dec, name, recording)
    return calls


def _simple(vertex):
    return Representation(A2, B3, {vertex: serial_module(B3, ["M1"])}, {})


def test_block_diagonal_input_solves_only_connected_leaves(monkeypatch):
    # three coordinate blocks, each indecomposable: S(1), S(2) and M2 -> M2
    bridge = f_shriek(B3, A2, vertex_module(B3, A2, "1", serial_module(B3, ["M2"])))
    r = rep_direct_sum(rep_direct_sum(_simple("1"), bridge), _simple("2"))
    homs = _counting(monkeypatch, "hom_reps")
    splits = _counting(monkeypatch, "fitting_split")
    factors = decompose(r)
    assert len(factors) == 3 and all(mult == 1 for _, mult, _ in factors)
    assert len(homs) == 3 and not splits
    for source, target in homs:
        assert source is target and coordinate_blocks(source) is None


def test_connected_decomposable_splits_by_fitting(monkeypatch):
    # k -> k^2, 1 -> (1, 1), over F_2[x]/(x^2): every source part is joined
    # to both target parts, yet it is (k -> k) + (0 -> k)
    k = serial_module(B2, ["M1"])
    k2 = serial_module(B2, ["M1", "M1"])
    r = Representation(A2, B2, {"1": k, "2": k2}, {"a1": morphism(k, k2, [[1], [1]])})
    assert coordinate_blocks(r) is None
    splits = _counting(monkeypatch, "fitting_split")
    factors = decompose(r)
    assert len(factors) == 2 and all(mult == 1 for _, mult, _ in factors)
    assert splits
    assert not is_indecomposable(r)


def test_is_indecomposable_answers_blocks_without_hom_space(monkeypatch):
    import monocat.decompose as dec

    def unexpected(*args):
        raise AssertionError("no hom space should be solved")

    monkeypatch.setattr(dec, "hom_reps", unexpected)
    # budget 0 could not scan End; the coordinate blocks decide alone
    assert not is_indecomposable(rep_direct_sum(_simple("1"), _simple("1")), budget=0)
    assert not is_indecomposable(rep_direct_sum(_simple("1"), _simple("2")), budget=0)


def _random_automorphism(m, rng):
    """(g, g^-1) for g drawn uniformly from Aut(m): random endomorphisms
    until one is invertible, whatever set generates the group."""
    space = hom_space(m, m)
    g = space.random(rng)
    while not is_iso(g):
        g = space.random(rng)
    return g, solve_right(g, identity_morphism(m))


def _conjugate(r, rng):
    """r moved by random vertex automorphisms (g_v): maps g_t o f_a o g_s^-1,
    with (g_v) checked to be an isomorphism r -> moved."""
    pairs = {v: _random_automorphism(m, rng) for v, m in r.modules.items()}
    maps = {a.name: mor_compose(pairs[a.target][0], mor_compose(r.maps[a.name], pairs[a.source][1]))
            for a in r.quiver.arrows}
    moved = Representation(r.quiver, r.base, r.modules, maps)
    RepMorphism(r, moved, {v: g for v, (g, _) in pairs.items()})  # raises unless natural
    return moved


def _same_factors(ours, theirs):
    assert sorted(m for _, m, _ in ours) == sorted(m for _, m, _ in theirs)
    unmatched = list(theirs)
    for rep, mult, cert in ours:
        assert cert == "exhaustive"
        match = next(t for t in unmatched if t[1] == mult and is_iso_reps(rep, t[0]))
        unmatched.remove(match)


@pytest.mark.parametrize("quiver_name", ["An-linear:3", "A4-zigzag"])
def test_decompose_invariant_under_vertex_automorphisms(quiver_name):
    quiver = builtin_quiver(quiver_name)
    rng = random.Random(14)

    def block_count(rep):
        return len(coordinate_blocks(rep) or [rep])

    merged = 0
    for _ in range(8):
        r = rep_direct_sum(random_representation(B3, quiver, rng),
                           random_representation(B3, quiver, rng))
        if r.is_zero():
            continue
        moved = _conjugate(r, rng)
        # the move joins coordinate blocks that only Fitting splits separate
        merged += block_count(moved) < block_count(r)
        _same_factors(decompose(moved), decompose(r))
    assert merged >= 3


@pytest.mark.parametrize("quiver_name", ["An-linear:2", "An-linear:3", "A4-zigzag"])
def test_coordinate_blocks_are_normal_form_summands(quiver_name):
    quiver = builtin_quiver(quiver_name)
    rng = random.Random(9)
    checked = 0
    for _ in range(10):
        r = rep_direct_sum(random_representation(B3, quiver, rng),
                           random_representation(B3, quiver, rng))
        blocks = coordinate_blocks(r)
        if blocks is None:  # a zero or one-part summand
            continue
        assert len(blocks) >= 2
        total = None
        for block in blocks:
            assert not block.is_zero() and coordinate_blocks(block) is None
            for m in block.modules.values():
                assert m == serial_module(B3, m.parts)
            total = block if total is None else rep_direct_sum(total, block)
        assert sum(b.total_length() for b in blocks) == r.total_length()
        assert is_iso_reps(total, r)
        checked += 1
    assert checked >= 5

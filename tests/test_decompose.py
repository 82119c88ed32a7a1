import random

import pytest

from monocat.base import chain_base, rad2nak_base, stable_base
from monocat.decompose import (
    BudgetExceeded,
    _injective_peel,
    _injective_tops,
    _stable_power,
    coordinate_blocks,
    decompose,
    is_indecomposable,
)
from monocat.exact import image, is_injective_map, kernel, solve_right
from monocat.mimo import injective_rep_recognize, mimo, mimo_from_stable
from monocat.quiver import builtin_quiver
from monocat.rep import (
    Representation,
    RepMorphism,
    f_shriek,
    hom_reps,
    is_iso_reps,
    is_mono,
    kopf_modules,
    random_representation,
    rep_morphism_compose,
    vertex_module,
)
from monocat.serialmod import mor_compose, morphism, serial_module
from oracles import random_automorphism, rep_direct_sum, rep_homs

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


def _conjugate(r, rng):
    """r moved by random vertex automorphisms (g_v): maps g_t o f_a o g_s^-1,
    with (g_v) checked to be an isomorphism r -> moved."""
    pairs = {v: random_automorphism(m, rng) for v, m in r.modules.items()}
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


def test_stable_power_matches_the_total_length_power():
    """Squaring up to the largest vertex-module length gives the kernels and
    images of the power at the total length."""
    quiver = builtin_quiver("A4-zigzag")
    rng = random.Random(4)
    checked = 0
    for _ in range(12):
        r = random_representation(B3, quiver, rng)
        if r.is_zero():
            continue
        phi = hom_reps(r, r).random(rng)
        ours = _stable_power(phi)
        total = phi
        for _ in range(r.total_length() - 1):
            total = rep_morphism_compose(total, phi)
        for f, g in zip(ours.components.values(), total.components.values()):
            # equal modules, and ker f inside ker g, im g inside im f
            (k, k_incl), (i, i_incl) = kernel(f), image(g)
            assert k == kernel(g)[0] and mor_compose(g, k_incl).is_zero()
            assert i == image(f)[0] and solve_right(image(f)[1], i_incl) is not None
        checked += max(m.length() for m in r.modules.values()) < r.total_length()
    assert checked >= 5


# -- the injective peel -------------------------------------------------------------------

PEEL_BASES = [chain_base("int", 2, 3), chain_base("poly", 3, 2), rad2nak_base(3, 2),
              chain_base("int", 3, 3)]
PEEL_IDS = ["chain:int:2:3", "chain:poly:3:2", "rad2nak:3:2", "chain:int:3:3"]


def _injective_at(base, quiver, rng):
    """f_!(I at v) for a random injective part I and vertex v."""
    label = rng.choice(base.injective_labels())
    v = rng.choice(quiver.vertices)
    return f_shriek(base, quiver, vertex_module(base, quiver, v, serial_module(base, [label])))


def _peel_inputs(base, seed, count=6):
    """Monic representations over linear A3 and the A4 zigzag: minimal monic
    approximations of random representations, and those plus an f_!(I at v)
    moved by random vertex automorphisms, which joins their coordinate
    blocks."""
    rng = random.Random(seed)
    for quiver in (builtin_quiver("An-linear:3"), builtin_quiver("A4-zigzag")):
        for _ in range(count):
            m = mimo(random_representation(base, quiver, rng))[0]
            yield m
            yield _conjugate(rep_direct_sum(m, _injective_at(base, quiver, rng)), rng)


@pytest.mark.parametrize("base", PEEL_BASES, ids=PEEL_IDS)
def test_injective_peel_splits_off_the_injective_tops(base):
    """iota: f_!(J) -> M is monic, M' = coker iota is monic with no injective
    part in its top, and M is isomorphic to M' (+) f_!(J) (checked where
    the residue scan fits a small budget)."""
    peeled = summed = 0
    for m in _peel_inputs(base, 3):
        for piece in coordinate_blocks(m) or [m]:
            assert is_mono(piece)
            split = _injective_peel(piece)
            tops = kopf_modules(piece)
            if split is None:
                assert not any(base.is_injective(p) for t in tops.values() for p in t.parts)
                continue
            rest, injective, iota = split
            assert injective_rep_recognize(injective) == {
                v: serial_module(base, [p for p in t.parts if base.is_injective(p)])
                for v, t in tops.items()}
            RepMorphism(injective, piece, iota.components)  # raises unless natural
            assert all(is_injective_map(f) for f in iota.components.values())
            assert is_mono(rest)
            assert not any(base.is_injective(p) for t in kopf_modules(rest).values() for p in t.parts)
            peeled += 1
            try:  # a residue space of 3^12 elements takes seconds to scan
                assert is_iso_reps(rep_direct_sum(rest, injective), piece, budget=1 << 12)
                summed += 1
            except BudgetExceeded:
                pass
    assert peeled >= 8 and summed >= 6, (peeled, summed)


@pytest.mark.parametrize("base", PEEL_BASES, ids=PEEL_IDS)
def test_injective_tops_agree_with_the_tops(base):
    """``_injective_tops`` is None exactly on the representations that are
    not monic, and otherwise lists the vertices whose top (``kopf_modules``)
    has an injective part; on the peel inputs and their coordinate blocks,
    and on random representations."""
    rng = random.Random(13)
    monic = [piece for m in _peel_inputs(base, 11) for piece in coordinate_blocks(m) or [m]]
    randoms = [random_representation(base, quiver, rng) for quiver in
               (builtin_quiver("An-linear:3"), builtin_quiver("A4-zigzag")) for _ in range(12)]
    seen = {None: 0, False: 0, True: 0}
    for r in monic + randoms:
        tops = _injective_tops(r)
        if not is_mono(r):
            assert tops is None
            seen[None] += 1
            continue
        assert tops == [v for v, t in kopf_modules(r).items()
                        if any(base.is_injective(p) for p in t.parts)]
        seen[bool(tops)] += 1
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("base", PEEL_BASES, ids=PEEL_IDS)
def test_decompose_with_and_without_the_peel_agree(base, monkeypatch):
    import monocat.decompose as dec

    inputs = list(_peel_inputs(base, 8))
    peels = _counting(monkeypatch, "_injective_peel")
    with_peel = [decompose(m) for m in inputs]
    assert sum(_injective_peel(r) is not None for r, in peels) >= 6
    monkeypatch.setattr(dec, "_injective_peel", lambda r: None)
    for m, ours in zip(inputs, with_peel):
        _same_factors(ours, decompose(m))


@pytest.mark.parametrize("base", PEEL_BASES, ids=PEEL_IDS)
def test_connected_sum_with_an_injective_needs_no_fitting_split(base, monkeypatch):
    """M' (+) f_!(I at v), M' indecomposable and not injective, moved by
    vertex automorphisms until it is connected, is split by the peel alone."""
    quiver = builtin_quiver("An-linear:3")
    rng = random.Random(5)
    rest = None
    while rest is None:
        for factor, _, _ in decompose(mimo(random_representation(base, quiver, rng))[0]):
            if injective_rep_recognize(factor) is None:
                rest = factor
    injective = _injective_at(base, quiver, rng)
    moved = _conjugate(rep_direct_sum(rest, injective), rng)
    while coordinate_blocks(moved) is not None:
        moved = _conjugate(rep_direct_sum(rest, injective), rng)
    splits = _counting(monkeypatch, "fitting_split")
    factors = decompose(moved)
    assert not splits
    _same_factors(factors, [(rest, 1, "exhaustive"), (injective, 1, "exhaustive")])

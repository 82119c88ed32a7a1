import itertools
import math
import random

import pytest

from monocat.base import chain_base, rad2nak_base, stable_base
from monocat.decompose import BudgetExceeded
from monocat.exact import is_injective_map
from monocat.quiver import Quiver, builtin_quiver
from monocat.rep import (
    Representation,
    RepMorphism,
    ResidueSpace,
    f_shriek,
    find_iso_reps,
    hom_reps,
    in_map,
    is_iso_reps,
    is_mono,
    kopf,
    kopf_modules,
    kopf_morphism,
    l1_kopf,
    partition_vector,
    random_representation,
    rep_direct_sum,
    rep_identity,
    vertex_module,
)
from monocat.serialmod import (
    automorphism_generators,
    direct_sum,
    hom_space,
    identity_morphism,
    mor_block,
    mor_compose,
    mor_equal,
    morphism,
    serial_module,
)
from oracles import list_solutions, random_automorphism, rep_homs

B2 = chain_base("poly", 2, 2)
B3 = chain_base("int", 2, 3)
A2 = builtin_quiver("An-linear:2")
A3 = builtin_quiver("An-linear:3")
KR = builtin_quiver("kronecker")


def test_in_map_sink_and_source():
    m1 = serial_module(B2, ["M1"])
    r = Representation(A2, B2, {"1": m1, "2": m1},
                       {"a1": morphism(m1, m1, [[1]])})
    assert mor_equal(in_map(r, "2"), r.maps["a1"])
    f = in_map(r, "1")
    assert f.source.is_zero()


def test_in_map_kronecker_block_row():
    m = serial_module(B2, ["M1"])
    mm = serial_module(B2, ["M1", "M1"])
    r = Representation(KR, B2, {"1": m, "2": mm},
                       {"a": morphism(m, mm, [[1], [0]]),
                        "b": morphism(m, mm, [[0], [1]])})
    f = in_map(r, "2")
    assert f.source.parts == ("M1", "M1")
    assert is_injective_map(f)
    assert is_mono(r)


@pytest.mark.parametrize("base", [B3, chain_base("poly", 3, 2), rad2nak_base(2, 3), stable_base(B3)],
                         ids=["chain-int", "chain-poly", "rad2nak", "stable"])
def test_in_map_restricts_to_each_arrow_map(base):
    rng = random.Random(17)
    for quiver in (KR, builtin_quiver("A4-zigzag"), builtin_quiver("D4")):
        for _ in range(15):
            r = random_representation(base, quiver, rng)
            for v in quiver.vertices:
                f, arrows = in_map(r, v), quiver.arrows_into(v)
                total, positions = direct_sum(base, [r.modules[a.source] for a in arrows])
                assert total == f.source == serial_module(
                    base, [p for a in arrows for p in r.modules[a.source].parts])
                for a, pos in zip(arrows, positions):
                    block = mor_block(f, range(r.modules[v].rank), pos)
                    assert mor_equal(block, r.maps[a.name])


def test_mono_iff_l1_vanishes_spec_examples():
    iota = Representation(A2, B2, {"1": serial_module(B2, ["M1"]),
                                   "2": serial_module(B2, ["M2"])},
                          {"a1": morphism(serial_module(B2, ["M1"]),
                                          serial_module(B2, ["M2"]), [[1]])})
    assert is_mono(iota)
    assert kopf_modules(iota) == {"1": serial_module(B2, ["M1"]),
                                  "2": serial_module(B2, ["M1"])}
    dead = Representation(A2, B2, {"1": serial_module(B2, ["M1"])}, {})
    assert not is_mono(dead)
    k, _ = l1_kopf(dead)["2"]
    assert k == serial_module(B2, ["M1"])


def test_is_mono_stops_at_first_failing_vertex(monkeypatch):
    import monocat.rep as rep_mod

    quiver = builtin_quiver("An-linear:3")
    # vertex 2 receives M1 by the zero map, so the check never reaches vertex 3
    dead = Representation(quiver, B2, {"1": serial_module(B2, ["M1"]),
                                       "2": serial_module(B2, ["M1"]),
                                       "3": serial_module(B2, ["M1"])},
                          {"a2": morphism(serial_module(B2, ["M1"]),
                                          serial_module(B2, ["M1"]), [[1]])})
    calls = []
    injective = rep_mod.is_injective_map
    monkeypatch.setattr(rep_mod, "is_injective_map", lambda *fs: calls.append(fs) or injective(*fs))
    assert not is_mono(dead)
    assert len(calls) == 2
    assert not l1_kopf(dead)["2"][0].is_zero()


def test_f_shriek_kronecker_injective():
    fs = f_shriek(B2, KR, vertex_module(B2, KR, "1", serial_module(B2, ["M2"])))
    assert fs.modules["1"].parts == ("M2",)
    assert fs.modules["2"].parts == ("M2", "M2")
    assert is_mono(fs)
    # the two arrow maps are the coordinate inclusions
    cols = {tuple(not e.is_zero() for row in fs.maps[a].entries for e in row) for a in ("a", "b")}
    assert cols == {(True, False), (False, True)}


def test_f_shriek_sink_vertex():
    fs = f_shriek(B2, A2, vertex_module(B2, A2, "2", serial_module(B2, ["M2"])))
    assert fs.modules["1"].is_zero()
    assert fs.modules["2"].parts == ("M2",)


def test_f_shriek_no_arrows_is_identity():
    q = Quiver(["1", "2"], [])
    mods = {"1": serial_module(B2, ["M2"]), "2": serial_module(B2, ["M1"])}
    fs = f_shriek(B2, q, mods)
    assert fs.modules == mods


def test_kopf_of_f_shriek_and_nakayama():
    rng = random.Random(1)
    for _ in range(25):
        mods = {v: serial_module(B3, [rng.choice(B3.labels) for _ in range(rng.randrange(3))])
                for v in A3.vertices}
        fs = f_shriek(B3, A3, mods)
        assert kopf_modules(fs) == {v: mods[v] for v in A3.vertices}
        assert all(k.is_zero() for k, _ in l1_kopf(fs).values())
        r = random_representation(B3, A3, rng)
        if not r.is_zero():
            assert not all(c.is_zero() for c, _ in kopf(r).values())


def test_hom_reps_contains_identity():
    rng = random.Random(0)
    r = random_representation(B3, A2, rng)
    space = hom_reps(r, r)
    sols = rep_homs(space, 1 << 16)
    ident = rep_identity(r)
    assert any(all(mor_equal(phi.components[v], ident.components[v]) for v in r.quiver.vertices)
               for phi in sols)


@pytest.mark.parametrize("base", [B2, B3, rad2nak_base(2, 2)], ids=["poly-2-2", "int-2-3", "rad2nak"])
def test_hom_reps_matches_brute_force_natural_tuples(base):
    """rep_homs(hom_reps(r, s)) is the set of vertexwise tuples (phi_v) in
    prod_v Hom(R_v, S_v) with phi_t o R_a = S_a o phi_s for every arrow a."""
    rng = random.Random(8)
    checked = 0
    for quiver in (A2, KR):
        for _ in range(12):
            r, s = (random_representation(base, quiver, rng) for _ in range(2))
            spaces = [list(hom_space(r.modules[v], s.modules[v])) for v in quiver.vertices]
            if math.prod(map(len, spaces)) > 4096:
                continue
            natural = set()
            for phis in itertools.product(*spaces):
                phi = dict(zip(quiver.vertices, phis))
                if all(mor_equal(mor_compose(phi[a.target], r.maps[a.name]),
                                 mor_compose(s.maps[a.name], phi[a.source])) for a in quiver.arrows):
                    natural.add(tuple(f.entries for f in phis))
            found = [tuple(phi.components[v].entries for v in quiver.vertices)
                     for phi in rep_homs(hom_reps(r, s), 1 << 13)]
            assert len(found) == len(set(found)) and set(found) == natural
            checked += len(natural) > 1
    assert checked >= 5


def test_lift_rows_stay_out_of_the_hom_space():
    """The rows of p o h = g solve a copy of the naturality system: the hom
    space _lift_through returns still solves to all of Hom(g.source, p.source)."""
    from monocat.mimo import mimo
    from monocat.suites import _lift_through

    rng = random.Random(4)
    for _ in range(10):
        r = random_representation(B2, A2, rng)
        m, p = mimo(r)
        g = hom_reps(m, r).random(rng)
        space, sol = _lift_through(p, g)
        assert sol is not None
        full = hom_reps(g.source, p.source)
        assert len(space.system.rows) == len(full.system.rows)
        assert sorted(map(repr, list_solutions(space.solution, 1 << 12))) == \
            sorted(map(repr, list_solutions(full.solution, 1 << 12)))
        h = space._to_rep_morphism(sol._trunc(sol.particular))
        for v in A2.vertices:
            assert mor_equal(mor_compose(p.components[v], h.components[v]), g.components[v])


def test_hom_reps_zero_space_between_opposite_simples():
    s1 = Representation(A2, B2, {"1": serial_module(B2, ["M1"])}, {})
    s2 = Representation(A2, B2, {"2": serial_module(B2, ["M1"])}, {})
    sols = rep_homs(hom_reps(s1, s2), 1 << 10)
    assert len(sols) == 1  # only zero


def test_end_of_induced_matches_end_of_module():
    # En(f_!(M1 at source)) has exactly |End(M1)| = p elements
    fs = f_shriek(B2, A2, vertex_module(B2, A2, "1", serial_module(B2, ["M1"])))
    sols = rep_homs(hom_reps(fs, fs), 1 << 12)
    assert len(sols) == 2


def test_naturality_enforced():
    m1 = serial_module(B2, ["M1"])
    r = Representation(A2, B2, {"1": m1, "2": m1}, {"a1": morphism(m1, m1, [[1]])})
    s = Representation(A2, B2, {"1": m1, "2": m1}, {"a1": morphism(m1, m1, [[0]])})
    with pytest.raises(ValueError):
        RepMorphism(r, s, {"1": identity_morphism(m1), "2": identity_morphism(m1)})


def test_kopf_detects_isos_on_mono():
    rng = random.Random(3)
    found = 0
    for _ in range(200):
        r = random_representation(B2, A2, rng)
        if not is_mono(r):
            continue
        space = hom_reps(r, r)
        phi = space.random(rng)
        tops = kopf_morphism(phi)
        from monocat.exact import is_iso
        if all(is_iso(t) for t in tops.values()):
            assert phi.is_iso()
            found += 1
        else:
            assert not phi.is_iso()
    assert found > 5


def _conjugate_at(r, v, g, g_inv):
    """r moved by the automorphism g of its module at v: g o f on the arrows
    into v, f o g^-1 on the arrows out of it."""
    maps = {}
    for a in r.quiver.arrows:
        f = r.maps[a.name]
        if a.target == v:
            f = mor_compose(g, f)
        if a.source == v:
            f = mor_compose(f, g_inv)
        maps[a.name] = f
    return Representation(r.quiver, r.base, r.modules, maps)


def test_is_iso_reps_positive_and_negative():
    rng = random.Random(5)
    r = random_representation(B3, A2, rng)
    s = rep_direct_sum(r, r)
    assert is_iso_reps(r, r)
    assert not is_iso_reps(r, s)
    ok, witness, cert = find_iso_reps(s, rep_direct_sum(r, r))
    assert ok and witness.is_iso()
    # isomorphic but not equal: the residue scan, not the identity, decides
    # this decomposable pair
    moved = (_conjugate_at(s, "2", g, g_inv) for g, g_inv in automorphism_generators(s.modules["2"]))
    t = next(t for t in moved if t != s)
    ok, witness, cert = find_iso_reps(s, t, budget=1 << 10)
    assert ok and cert == "exhaustive" and witness.is_iso()
    RepMorphism(s, t, witness.components, check=True)
    assert any(not mor_equal(f, identity_morphism(f.source)) for f in witness.components.values())


def test_equal_representations_answer_with_the_identity():
    """An equal pair needs no hom space: the identity is the witness, even at
    a budget that could not scan any residue space."""
    rng = random.Random(8)
    for base in (B3, rad2nak_base(2, 2), stable_base(B3)):
        r = random_representation(base, A3, rng)
        copy = Representation(r.quiver, r.base, dict(r.modules), dict(r.maps))
        ok, witness, cert = find_iso_reps(r, copy, budget=1)
        assert ok and cert == "exhaustive"
        RepMorphism(r, copy, witness.components, check=True)
        assert all(mor_equal(f, identity_morphism(r.modules[v]))
                   for v, f in witness.components.items())


def test_undecided_iso_raises_budget_exceeded():
    """Above the budget a basis witness decides, but no basis witness is no
    verdict: equal vertex modules, an identity and a zero arrow."""
    m1 = serial_module(B2, ["M1"])
    modules = {"1": m1, "2": m1}
    ident = Representation(A2, B2, modules, {"a1": identity_morphism(m1)})
    zero = Representation(A2, B2, modules, {"a1": morphism(m1, m1, [[0]])})
    with pytest.raises(BudgetExceeded):
        find_iso_reps(ident, zero, budget=1)
    with pytest.raises(BudgetExceeded):
        is_iso_reps(zero, ident, budget=1)
    ok, witness, cert = find_iso_reps(ident, ident, budget=1)
    assert ok and cert == "exhaustive" and witness.is_iso()
    assert find_iso_reps(ident, zero) == (False, None, "exhaustive")


@pytest.mark.parametrize("base", [B3, chain_base("poly", 2, 3), rad2nak_base(2, 2)],
                         ids=["int-2-3", "poly-2-3", "rad2nak"])
def test_iso_matches_hom_listing(base):
    """is_iso_reps(r, s) holds exactly when some listed morphism r -> s is an
    isomorphism.  s is r conjugated at each vertex by an automorphism drawn
    uniformly from Aut(R_v) (isomorphic), or r with one arrow map redrawn
    (mostly not isomorphic).  Most drawn r are the only representation in
    their class on their modules (a zero map, say), so s often equals r;
    only the s that differ from r are checked and counted."""
    rng = random.Random(6)
    verdicts = {True: 0, False: 0}
    for quiver in (A2, builtin_quiver("A4-zigzag")):
        for _ in range(16):
            r = random_representation(base, quiver, rng)
            conj = {v: random_automorphism(r.modules[v], rng) for v in quiver.vertices}
            conjugated = Representation(quiver, base, r.modules, {
                a.name: mor_compose(conj[a.target][0], mor_compose(r.maps[a.name], conj[a.source][1]))
                for a in quiver.arrows})
            arrow = rng.choice(quiver.arrows)
            maps = dict(r.maps)
            maps[arrow.name] = hom_space(r.modules[arrow.source], r.modules[arrow.target]).random(rng)
            redrawn = Representation(quiver, base, r.modules, maps)
            for s in (conjugated, redrawn):
                if s == r:  # answered by the identity, with no hom space
                    continue
                homs = rep_homs(hom_reps(r, s), 1 << 10)
                if homs is None:
                    continue
                listed = any(phi.is_iso() for phi in homs)
                assert is_iso_reps(r, s) == listed
                ok, witness, cert = find_iso_reps(r, s)
                assert ok == listed and cert == "exhaustive"
                if ok:
                    assert witness.is_iso()
                    RepMorphism(r, s, witness.components, check=True)
                verdicts[listed] += 1
    assert verdicts[True] >= 5 and verdicts[False] >= 5, verdicts


@pytest.mark.parametrize("arith", ["int", "poly"])
def test_residue_space_lifts(arith):
    """Every lift has the residue it stands for and is a natural
    transformation, for basis vectors and random combinations."""
    base = chain_base(arith, 2, 3)
    rng = random.Random(3)
    for quiver in (A2, A3, KR):
        for _ in range(4):
            r = random_representation(base, quiver, rng)
            # same vertex modules, other arrow maps: a space find_iso_reps searches
            maps = {a.name: hom_space(r.modules[a.source], r.modules[a.target]).random(rng)
                    for a in quiver.arrows}
            s = Representation(quiver, base, r.modules, maps)
            for space in (hom_reps(r, r), hom_reps(r, s)):
                res = ResidueSpace(space)
                combos = [tuple(int(i == k) for i in range(res.rank)) for k in range(res.rank)]
                combos += [tuple(rng.randrange(res.p) for _ in range(res.rank)) for _ in range(3)]
                for combo in combos:
                    lift = res.lift_of(combo)
                    assert [lift[c].digits[0] for c in res.coord_slots] == res.residue_of(combo)
                    phi = space._to_rep_morphism(space.solution._trunc(lift))
                    RepMorphism(space.r, space.s, phi.components, check=True)


def test_rank_zero_residue_space_gives_zero_residues():
    """Kronecker r = (id, 0) and s = (0, id) on simples: naturality forces
    both components to vanish, so the residue space has rank 0."""
    m1 = serial_module(B2, ["M1"])
    modules = {"1": m1, "2": m1}
    zero = morphism(m1, m1, [[0]])
    r = Representation(KR, B2, modules, {"a": identity_morphism(m1), "b": zero})
    s = Representation(KR, B2, modules, {"a": zero, "b": identity_morphism(m1)})
    res = ResidueSpace(hom_reps(r, s))
    assert res.rank == 0 and len(res.coord_slots) == 2
    assert res.residue_of(()) == [0, 0]
    assert all(x.is_zero() for x in res.lift_of(()))
    assert find_iso_reps(r, s) == (False, None, "exhaustive")


def test_partition_and_length_vectors():
    m = Representation(A2, B3, {"1": serial_module(B3, ["M2"]),
                                "2": serial_module(B3, ["M3", "M1"])}, {})
    assert partition_vector(m) == {"1": (2,), "2": (3, 1)}
    assert m.length_vector() == {"1": 2, "2": 4}
    fs = f_shriek(B3, A2, vertex_module(B3, A2, "1", serial_module(B3, ["M3"])))
    assert fs.length_vector() == {"1": 3, "2": 3}
    z = Representation(A2, B3, {}, {})
    assert partition_vector(z) == {"1": (), "2": ()}
    assert z.length_vector() == {"1": 0, "2": 0}


def test_partition_vector_needs_chain():
    st = stable_base(B3)
    z = Representation(A2, st, {}, {})
    with pytest.raises(ValueError):
        partition_vector(z)

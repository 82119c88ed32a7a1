import random

import pytest

from monocat import io as mio
from monocat.base import chain_base, rad2nak_base, stable_base
from monocat.decompose import _residue_witness, is_indecomposable
from monocat.exact import is_injective_map, kernel
from monocat.mimo import (
    injective_rep_recognize,
    injective_split,
    mimo,
    mimo_from_stable,
    minimal_envelope_data,
    mo,
    stable_lift,
    stable_reduce,
    strip_injective_summands,
    transfer,
)
from monocat.quiver import builtin_quiver
from monocat.rep import (
    DEFAULT_BUDGET,
    Representation,
    RepMorphism,
    f_shriek,
    hom_reps,
    in_map,
    is_iso_reps,
    is_mono,
    random_representation,
    rep_direct_sum,
    rep_identity,
    vertex_module,
)
from monocat.serialmod import (
    MEMO_SIZE,
    assemble,
    hom_space,
    identity_morphism,
    mor_compose,
    mor_equal,
    morphism,
    serial_module,
    zero_module,
    zero_morphism,
)
from oracles import injective_envelope, kernel_envelope_data, rep_homs

B2 = chain_base("poly", 2, 2)
B3P = chain_base("poly", 2, 3)
B3I = chain_base("int", 2, 3)
A2 = builtin_quiver("An-linear:2")


def simple_at(base, quiver, v, label="M1"):
    return Representation(quiver, base, {v: serial_module(base, [label])}, {})


def test_mimo_of_dead_end_simple():
    r = simple_at(B2, A2, "1")
    m, p = mimo(r)
    assert m.modules["1"].parts == ("M1",)
    assert m.modules["2"].parts == ("M2",)
    assert is_mono(m)
    # projection hits the original representation
    assert p.components["1"].entries[0][0] == B2.ring.one


def test_mimo_identity_on_mono():
    r = simple_at(B2, A2, "2")
    m, p = mimo(r)
    assert m == r
    assert all(mor_equal(p.components[v],
                         rep_identity(r).components[v]) for v in A2.vertices)


def test_mimo_of_projection_inclusion_object_is_itself():
    m2 = serial_module(B3P, "M2".split())
    m13 = serial_module(B3P, ["M1", "M3"])
    r = Representation(A2, B3P, {"1": m2, "2": m13},
                       {"a1": morphism(m2, m13, [[1], [1]])})
    assert is_mono(r)
    m, _ = mimo(r)
    assert m == r
    assert is_indecomposable(r)


def test_mo_with_minimal_data_equals_mimo():
    rng = random.Random(0)
    for _ in range(20):
        r = random_representation(B2, A2, rng)
        m1, _ = mimo(r)
        m2, _ = mo(r, minimal_envelope_data(r))
        assert m1 == m2


def test_mimo_makes_no_smith_form_call(monkeypatch):
    """The envelope data, the injective tops and the injective split come
    from the socle matrices and the theorem alone: with every cache of the
    exact layer and of mimo emptied, approximating non-monic
    representations never reaches ``exact.snf_free``; ``mimo``, ``mo`` and
    ``injective_rep_recognize`` assemble no in-map (``rep.in_map``); and
    ``injective_split`` on each approximation's peelable coordinate blocks
    makes no ``cokernel``, ``solve_left``, ``solve_right``, ``snf_free`` or
    ``in_map`` call."""
    import monocat.decompose as dec
    import monocat.exact as exact
    import monocat.mimo as mimo_mod
    import monocat.rep as rep_mod

    caches = (mimo, exact.kernel, exact.cokernel, exact.image, exact.solve_left, exact.solve_right)
    calls = {name: [] for name in ("snf_free", "cokernel", "solve_left", "solve_right", "in_map")}
    for name in calls:
        for module in (exact, rep_mod, mimo_mod, dec):
            real = getattr(module, name, None)
            if real is not None:
                monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                                    calls[name].append(args) or real(*args))
    rng = random.Random(3)
    non_monic = peeled = recognized = 0
    for base in (B3P, B3I, rad2nak_base(3, 2)):
        for quiver in (A2, builtin_quiver("A4-zigzag")):
            for _ in range(6):
                r = random_representation(base, quiver, rng)
                if is_mono(r):
                    continue
                for fn in caches:
                    fn.cache_clear()
                m, _ = mimo(r)
                assert is_mono(m) and m != r
                assert mo(r, minimal_envelope_data(r))[0] == m
                non_monic += 1
                for piece in dec.coordinate_blocks(m) or [m]:
                    recognized += injective_rep_recognize(piece) is not None
                assert not calls["snf_free"] and not calls["in_map"]
                for piece in dec.coordinate_blocks(m) or [m]:
                    tops = dec._peelable(piece)
                    if tops:
                        for fn in caches:
                            fn.cache_clear()
                        injective = injective_split(piece, tops)[1]
                        assert injective_rep_recognize(injective) is not None
                        peeled += 1
                assert not any(calls.values()), {name: len(c) for name, c in calls.items()}
    assert non_monic >= 20 and peeled >= 5 and recognized >= 5, (non_monic, peeled, recognized)


def test_mo_with_padded_injective_adds_induced_summand():
    r = simple_at(B2, A2, "1")
    data = dict(minimal_envelope_data(r))
    # pad the envelope at vertex 2 with an extra injective
    J, e = data["2"]
    big_e, _, _ = assemble(B2, [r.modules["1"]], [J, serial_module(B2, ["M2"])], {(0, 0): e["a1"]})
    data["2"] = (big_e.target, {"a1": big_e})
    padded, _ = mo(r, data)
    extra = f_shriek(B2, A2, vertex_module(B2, A2, "2", serial_module(B2, ["M2"])))
    m, _ = mimo(r)
    assert is_iso_reps(padded, rep_direct_sum(m, extra))


def test_mo_mono_with_zero_envelopes():
    r = simple_at(B2, A2, "2")
    zero = zero_module(B2)
    data = {v: (zero, {a.name: zero_morphism(r.modules[a.source], zero) for a in A2.arrows_into(v)})
            for v in A2.vertices}
    m, _ = mo(r, data)
    assert m == r


def test_mo_rejects_non_monic_envelope_map():
    """And data of the wrong shape, or into a module that is not injective."""
    r = simple_at(B2, A2, "1")
    m2 = serial_module(B2, ["M2"])
    bad = {"2": (m2, {"a1": zero_morphism(r.modules["1"], m2)})}
    with pytest.raises(ValueError, match="not monic on the in-map kernel"):
        mo(r, bad)
    with pytest.raises(ValueError, match="wrong shape"):
        mo(r, {"2": (m2, {})})
    with pytest.raises(ValueError, match="not injective"):
        mo(r, {"2": (r.modules["1"], {"a1": identity_morphism(r.modules["1"])})})


def test_mimo_approximation_property_exhaustive_small():
    """Every morphism from a sampled monic representation factors through the
    approximation (F_2 scale, exhaustive over the hom space)."""
    rng = random.Random(4)
    for _ in range(12):
        r = random_representation(B2, A2, rng, max_parts=1)
        m, p = mimo(r)
        n0 = random_representation(B2, A2, rng, max_parts=1)
        n, _ = mimo(n0)  # monic by construction
        targets = rep_homs(hom_reps(n, r), 1 << 12)
        lifts = rep_homs(hom_reps(n, m), 1 << 12)
        reachable = set()
        for h in lifts:
            comp = {v: None for v in A2.vertices}
            key = []
            for v in A2.vertices:
                from monocat.serialmod import mor_compose
                key.append(mor_compose(p.components[v], h.components[v]).entries)
            reachable.add(tuple(key))
        for g in targets:
            key = tuple(g.components[v].entries for v in A2.vertices)
            assert key in reachable


def test_strip_injective_summands():
    m = Representation(A2, B3P, {"1": serial_module(B3P, ["M3", "M1"]),
                                 "2": serial_module(B3P, ["M3"])}, {})
    hat, dropped = strip_injective_summands(m)
    assert hat.modules["1"].parts == ("M1",)
    assert hat.modules["2"].is_zero()
    assert dropped["1"].parts == ("M3",)
    fs = f_shriek(B3P, A2, vertex_module(B3P, A2, "1", serial_module(B3P, ["M3"])))
    hat2, _ = strip_injective_summands(fs)
    assert all(m.is_zero() for m in hat2.modules.values())
    r = simple_at(B3P, A2, "1")
    hat3, _ = strip_injective_summands(r)
    assert hat3 == r


def test_stable_reduce_kills_injectives():
    fs = f_shriek(B2, A2, vertex_module(B2, A2, "1", serial_module(B2, ["M2"])))
    s = stable_reduce(fs)
    assert s.is_zero()


def test_stable_reduce_n2_lands_in_semisimple():
    rng = random.Random(8)
    st = stable_base(B2)
    for _ in range(10):
        r = random_representation(B2, A2, rng)
        s = stable_reduce(r)
        assert s.base == st
        for v in A2.vertices:
            assert all(p == "M1" for p in s.modules[v].parts)


def test_stable_section_is_exact_section():
    rng = random.Random(12)
    st = stable_base(B3I)
    for _ in range(30):
        s = random_representation(st, A2, rng)
        assert stable_reduce(stable_lift(s)) == s
    z = Representation(A2, st, {}, {})
    assert stable_lift(z).is_zero()


def test_stable_lift_coefficient_convention():
    st = stable_base(B3I)
    m2 = serial_module(st, ["M2"])
    m1 = serial_module(st, ["M1"])
    s = Representation(A2, st, {"1": m2, "2": m1},
                       {"a1": morphism(m2, m1, [[1]])})
    lifted = stable_lift(s)
    # the generator of stable Hom(M2, M1) lifts to the canonical projection
    assert lifted.maps["a1"].entries[0][0] == B3I.ring.one


def test_mimo_from_stable_spec_examples():
    st2 = stable_base(B2)
    sink = Representation(A2, st2, {"2": serial_module(st2, ["M1"])}, {})
    assert mimo_from_stable(sink).modules["2"].parts == ("M1",)
    source = Representation(A2, st2, {"1": serial_module(st2, ["M1"])}, {})
    out = mimo_from_stable(source)
    assert out.modules["1"].parts == ("M1",) and out.modules["2"].parts == ("M2",)
    a3 = builtin_quiver("An-linear:3")
    stm = serial_module(st2, ["M1"])
    interval = Representation(a3, st2, {"1": stm, "2": stm},
                              {"a1": morphism(stm, stm, [[1]])})
    out3 = mimo_from_stable(interval)
    assert [out3.modules[v].parts for v in a3.vertices] == [("M1",), ("M1",), ("M2",)]
    assert is_mono(out3)


def test_mimo_from_stable_lift_independent():
    rng = random.Random(3)
    st = stable_base(B3I)
    for _ in range(15):
        s = random_representation(st, A2, rng)
        canonical = mimo_from_stable(s)
        lifted = stable_lift(s)
        # a different lift: perturb entries by elements of the reduction kernel
        maps = {}
        from monocat.serialmod import mor_add
        for a in A2.arrows:
            src, tgt = lifted.modules[a.source], lifted.modules[a.target]
            pert = [[hom_space(src, tgt).random(rng).entries[i][j].shift_up(
                        max(1, B3I.ring.n - 1))
                     for j in range(src.rank)] for i in range(tgt.rank)]
            maps[a.name] = mor_add(lifted.maps[a.name], morphism(src, tgt, pert))
        other = Representation(A2, B3I, dict(lifted.modules), maps)
        if stable_reduce(other) != s:
            continue  # perturbation left the section image; skip
        m2, _ = mimo(other)
        assert is_iso_reps(canonical, m2)


def test_injective_rep_recognize():
    fs = f_shriek(B2, A2, vertex_module(B2, A2, "1", serial_module(B2, ["M2"])))
    j = injective_rep_recognize(fs)
    assert j == {"1": serial_module(B2, ["M2"]), "2": zero_module(B2)}
    assert is_iso_reps(f_shriek(B2, A2, j), fs)
    mono_but_not_inj = Representation(
        A2, B2, {"1": serial_module(B2, ["M1"]), "2": serial_module(B2, ["M2"])},
        {"a1": morphism(serial_module(B2, ["M1"]), serial_module(B2, ["M2"]), [[1]])})
    assert injective_rep_recognize(mono_but_not_inj) is None
    z = Representation(A2, B2, {}, {})
    assert injective_rep_recognize(z) == {"1": zero_module(B2), "2": zero_module(B2)}


def test_mimo_over_rad2nak():
    b = rad2nak_base(2, 2)
    r = Representation(A2, b, {"1": serial_module(b, ["S1"])}, {})
    m, _ = mimo(r)
    assert is_mono(m)
    # the kernel S1 at the sink is enveloped by the projective with socle S1
    assert m.modules["2"].parts == ("P2",)


def test_stable_reduce_is_functorial():
    rng = random.Random(17)
    st = stable_base(B3I)
    for _ in range(25):
        r = random_representation(B3I, A2, rng)
        s = random_representation(B3I, A2, rng)
        phi = hom_reps(r, s).random(rng)
        rr, sr = stable_reduce(r), stable_reduce(s)
        from monocat.mimo import stable_reduce_morphism
        from monocat.serialmod import mor_compose
        red = stable_reduce_morphism(phi, rr, sr)
        for a in A2.arrows:
            assert mor_equal(mor_compose(red.components[a.target], rr.maps[a.name]),
                             mor_compose(sr.maps[a.name], red.components[a.source]))


# -- memoized by representation value ----------------------------------------------

REP_MEMO_BASES = [B3I, B3P, rad2nak_base(2, 3)]
REP_MEMO_IDS = ["chain-int", "chain-poly", "rad2nak"]


def _components(phi):
    return None if phi is None else phi.components


@pytest.mark.parametrize("base", REP_MEMO_BASES, ids=REP_MEMO_IDS)
def test_rep_memos_equal_their_uncached_results(base):
    """mimo and _residue_witness equal what the undecorated functions build,
    on a first call and on a repeat."""
    rng = random.Random(23)
    for quiver in (A2, builtin_quiver("A4-zigzag"), builtin_quiver("D4")):
        for _ in range(8):
            r = random_representation(base, quiver, rng)
            m, p = mimo.__wrapped__(r)
            for _ in range(2):
                m_memo, p_memo = mimo(r)
                assert m_memo == m and p_memo.source == m and p_memo.target == r
                assert p_memo.components == p.components
            for s in (r, m):
                fresh = _components(_residue_witness.__wrapped__(s, DEFAULT_BUDGET))
                for _ in range(2):
                    assert _components(_residue_witness(s, DEFAULT_BUDGET)) == fresh


@pytest.mark.parametrize("base", REP_MEMO_BASES, ids=REP_MEMO_IDS)
def test_equal_representations_hash_equal(base):
    rng = random.Random(29)
    for quiver in (A2, builtin_quiver("kronecker")):
        for _ in range(6):
            r = random_representation(base, quiver, rng)
            copy = Representation(r.quiver, r.base, dict(r.modules), dict(r.maps))
            back = mio.representation_from_json(mio.representation_to_json(r))
            assert back.quiver is not r.quiver
            for s in (copy, back):
                assert s == r and hash(s) == hash(r)
            assert mimo(back) is mimo(r)


def test_mimo_over_a_stable_backing_raises_on_every_call():
    st = stable_base(B3I)
    r = Representation(A2, st, {"1": serial_module(st, [st.labels[0]])}, {})
    for _ in range(2):
        with pytest.raises(ValueError, match="self-injective"):
            mimo(r)


TRANSFER_PAIRS = [(B3I, B3P), (B3P, B3I)]


@pytest.mark.parametrize("base,partner", TRANSFER_PAIRS, ids=["chain-int", "chain-poly"])
def test_transfer_memo_equals_its_uncached_result(base, partner):
    """transfer equals what the undecorated function builds, on a first call
    and on a repeat, for injective and non-injective monic inputs."""
    rng = random.Random(31)
    for quiver in (A2, builtin_quiver("A4-zigzag"), builtin_quiver("D4")):
        for _ in range(6):
            m = mimo(random_representation(base, quiver, rng))[0]
            for r in (m, strip_injective_summands(m)[0]):
                if not is_mono(r):
                    continue
                fresh = transfer.__wrapped__(r, partner)
                for _ in range(2):
                    out = transfer(r, partner)
                    assert out == fresh and out.base is partner


def test_transfer_raises_on_every_call():
    r = simple_at(B3P, A2, "2")  # 0 -> M1 is monic
    not_mono = simple_at(B3P, A2, "1")  # M1 -> 0 is not
    for _ in range(2):
        with pytest.raises(ValueError, match="monic representations"):
            transfer(not_mono, B3I)
        with pytest.raises(ValueError, match="residue characteristic"):
            transfer(r, chain_base("int", 3, 3))


@pytest.mark.parametrize("fn", [mimo, _residue_witness, transfer], ids=lambda fn: fn.__name__)
def test_rep_memos_share_the_module_memo_size(fn):
    assert fn.cache_info().maxsize == MEMO_SIZE


# -- the envelope data from socles, against the kernel construction -----------------

ENVELOPE_BASES = [chain_base(kind, p, n) for kind in ("int", "poly") for p in (2, 3)
                  for n in (2, 3, 4)] + [rad2nak_base(3, 2), rad2nak_base(3, 3)]
ENVELOPE_IDS = [f"chain:{b.ring.kind}:{b.ring.p}:{b.ring.n}" for b in ENVELOPE_BASES[:-2]] + [
    "rad2nak:3:2", "rad2nak:3:3"]
ENVELOPE_QUIVERS = [builtin_quiver(name)
                    for name in ("An-linear:2", "An-linear:3", "A4-zigzag", "D4", "kronecker")]


def _envelope_inputs(base, seed, count=3):
    """Random representations over A2, linear A3, the A4 zigzag, D4 and the
    Kronecker quiver (two arrows with one source, so one e_a per arrow)."""
    rng = random.Random(seed)
    for quiver in ENVELOPE_QUIVERS:
        for _ in range(count):
            yield random_representation(base, quiver, rng)


@pytest.mark.parametrize("base", ENVELOPE_BASES, ids=ENVELOPE_IDS)
def test_mimo_agrees_with_the_kernel_envelope_construction(base):
    """mimo(r) is monic, J_v is the injective envelope of the kernel of the
    in-map (as many parts), mo on the minimal envelope data is mimo(r), and
    mimo(r) is isomorphic to mo on the data of the kernel, its canonical
    envelope and a solve_left lift (``oracles.kernel_envelope_data``)."""
    for r in _envelope_inputs(base, 37):
        m, p = mimo(r)
        assert is_mono(m)
        RepMorphism(m, r, p.components)  # raises unless natural
        data = minimal_envelope_data(r)
        for v in r.quiver.vertices:
            K, _ = kernel(in_map(r, v))
            assert data[v][0].rank == K.rank and data[v][0] == injective_envelope(K)[0]
        m2, p2 = mo(r, data)
        assert m2 == m and all(p2.components[v] == p.components[v] for v in r.quiver.vertices)
        assert is_iso_reps(m, mo(r, kernel_envelope_data(r))[0])


@pytest.mark.parametrize("base", ENVELOPE_BASES, ids=ENVELOPE_IDS)
def test_mo_socle_check_agrees_with_the_kernel_check(base):
    """``mo`` accepts (J_v, e_v) iff e_v is monic on the in-map kernel K,
    decided by composing with the inclusion of K, for random maps e_v into
    the envelope of K or into a random injective module of at most as many
    parts, at every vertex where K is not zero; the minimal e_v is one of
    the random maps into the envelope."""
    rng = random.Random(41)
    verdicts = {True: 0, False: 0}
    for r in _envelope_inputs(base, 43, count=6):
        data = minimal_envelope_data(r)
        for v in r.quiver.vertices:
            K, incl = kernel(in_map(r, v))
            if K.is_zero():
                continue
            kind = rng.randrange(3)
            J = data[v][0] if kind < 2 else serial_module(
                base, rng.choices(base.injective_labels(), k=rng.randrange(K.rank + 1)))
            arrows = r.quiver.arrows_into(v)
            e = data[v][1] if kind == 0 else {
                a.name: hom_space(r.modules[a.source], J).random(rng) for a in arrows}
            joint = assemble(base, [r.modules[a.source] for a in arrows], [J],
                             {(0, t): e[a.name] for t, a in enumerate(arrows)})[0]
            monic_on_k = is_injective_map(mor_compose(joint, incl))
            try:
                mo(r, {**data, v: (J, e)})
                accepted = True
            except ValueError as err:
                assert "not monic on the in-map kernel" in str(err)
                accepted = False
            assert accepted == monic_on_k
            verdicts[monic_on_k] += 1
    assert min(verdicts.values()) >= 5, verdicts

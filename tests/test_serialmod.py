import itertools
import random

import pytest

from monocat.base import chain_base, rad2nak_base, stable_base
from monocat.exact import (
    _pull_back,
    cokernel,
    dual_morphism,
    image,
    is_injective_map,
    is_iso,
    kernel,
    solve_left,
    solve_right,
)
from monocat import io as mio
from monocat.decompose import coordinate_blocks, nonzero_entries
from monocat.enumerate import modules_up_to_length
from monocat.quiver import builtin_quiver
from monocat.rep import Representation, random_representation
from monocat.serialmod import (
    MEMO_SIZE,
    SerialModule,
    _direct_sum,
    _unit_generators,
    assemble,
    automorphism_generators,
    direct_sum,
    hom_space,
    identity_morphism,
    mor_block,
    mor_compose,
    mor_equal,
    morphism,
    serial_module,
    zero_module,
    zero_morphism,
)

from oracles import (
    apply_morphism,
    injective_envelope,
    invert,
    is_surjective_map,
    module_elements,
    mor_direct_sum,
    socle,
    socle_inclusion,
)

B2I = chain_base("int", 2, 2)
B3I = chain_base("int", 2, 3)
B2P = chain_base("poly", 2, 2)
B3P = chain_base("poly", 2, 3)


def M(base, *parts):
    return serial_module(base, parts)


def test_normal_form_sorting():
    m = M(B3I, "M1", "M3", "M2")
    assert m.parts == ("M3", "M2", "M1")
    assert m.partition() == (3, 2, 1)
    assert m.length() == 6


def test_compose_identity_and_pi_square():
    m2 = M(B2I, "M2")
    f = morphism(m2, m2, [[2]])   # multiplication by pi on Z/4
    assert mor_equal(mor_compose(identity_morphism(m2), f), f)
    assert mor_compose(f, f).is_zero()  # pi^2 = 0


def test_direct_sum_of_morphisms():
    # (f (+) g) o (u (+) v) = (f o u) (+) (g o v)
    u = morphism(M(B2I, "M1"), M(B2I, "M2"), [[1]])
    v = morphism(M(B2I, "M2"), M(B2I, "M1"), [[1]])
    f = morphism(M(B2I, "M2"), M(B2I, "M1"), [[1]])
    g = morphism(M(B2I, "M1"), M(B2I, "M2"), [[1]])
    lhs = mor_compose(mor_direct_sum(B2I, [f, g]), mor_direct_sum(B2I, [u, v]))
    rhs = mor_direct_sum(B2I, [mor_compose(f, u), mor_compose(g, v)])
    assert mor_equal(lhs, rhs)
    s = mor_direct_sum(B2I, [u, v])
    assert s.source.parts == ("M2", "M1") and s.target.parts == ("M2", "M1")
    _, src_pos = direct_sum(B2I, [u.source, v.source])
    _, tgt_pos = direct_sum(B2I, [u.target, v.target])
    assert src_pos == ((1,), (0,)) and tgt_pos == ((0,), (1,))
    assert mor_equal(mor_block(s, tgt_pos[0], src_pos[0]), u)
    assert mor_equal(mor_block(s, tgt_pos[1], src_pos[1]), v)
    assert mor_block(s, tgt_pos[0], src_pos[1]).is_zero()


@pytest.mark.parametrize("base", [B3I, B3P, rad2nak_base(2, 3), stable_base(B3I)],
                         ids=["chain-int", "chain-poly", "rad2nak", "stable"])
def test_assemble_places_blocks_by_index(base):
    rng = random.Random(13)
    labels = list(base.labels)
    for _ in range(40):
        sources = [M(base, *rng.choices(labels, k=rng.randrange(3))) for _ in range(rng.randrange(1, 4))]
        targets = [M(base, *rng.choices(labels, k=rng.randrange(3))) for _ in range(rng.randrange(1, 4))]
        blocks = {
            (ti, si): hom_space(s, t).random(rng)
            for ti, t in enumerate(targets) for si, s in enumerate(sources) if rng.random() < 0.6
        }
        f, src_pos, tgt_pos = assemble(base, sources, targets, blocks)
        assert f.source == M(base, *[p for s in sources for p in s.parts])
        assert f.target == M(base, *[p for t in targets for p in t.parts])
        assert sorted(j for pos in src_pos for j in pos) == list(range(f.source.rank))
        assert sorted(i for pos in tgt_pos for i in pos) == list(range(f.target.rank))
        for ti, t in enumerate(targets):
            for si, s in enumerate(sources):
                block = mor_block(f, tgt_pos[ti], src_pos[si])
                if (ti, si) in blocks:
                    assert mor_equal(block, blocks[(ti, si)])
                else:
                    assert block.source == s and block.target == t and block.is_zero()


def test_function_model_oracle_random_composites():
    """Matrix composition agrees with honest function composition on elements."""
    rng = random.Random(3)
    for base in (B3I, B3P):
        labels = list(base.labels)
        for _ in range(40):
            a = M(base, *[rng.choice(labels) for _ in range(rng.randrange(3))])
            b = M(base, *[rng.choice(labels) for _ in range(rng.randrange(3))])
            c = M(base, *[rng.choice(labels) for _ in range(rng.randrange(3))])
            f = hom_space(a, b).random(rng)
            g = hom_space(b, c).random(rng)
            gf = mor_compose(g, f)
            for x in itertools.islice(module_elements(a), 16):
                assert apply_morphism(gf, x) == apply_morphism(g, apply_morphism(f, x))


# -- inverses -----------------------------------------------------------------------


def test_invert_roundtrip_random():
    rng = random.Random(7)
    found = 0
    for base in (B3I, B3P, B2P, chain_base("int", 3, 6), chain_base("poly", 2, 9)):
        labels = list(base.labels)
        for _ in range(30):
            a = M(base, *[rng.choice(labels) for _ in range(rng.randrange(1, 4))])
            f = hom_space(a, a).random(rng)
            if not is_iso(f):
                continue
            found += 1
            inv = invert(f)
            assert mor_equal(mor_compose(inv, f), identity_morphism(a))
            assert mor_equal(mor_compose(f, inv), identity_morphism(a))
            assert mor_equal(invert(inv), f)
    assert found >= 20


# -- kernels, cokernels, images ------------------------------------------------------


def test_kernel_multiplication_by_p():
    m = M(B2I, "M2")
    K, incl = kernel(morphism(m, m, [[2]]))
    assert K.parts == ("M1",)
    assert is_injective_map(incl)
    # inclusion is multiplication by pi
    assert apply_morphism(incl, (B2I.ring.one,)) == (B2I.ring.pi,)


def test_kernel_projection_m3_to_m1():
    f = morphism(M(B3P, "M3"), M(B3P, "M1"), [[1]])
    K, incl = kernel(f)
    assert K.parts == ("M2",)
    one = B3P.ring.one
    assert apply_morphism(incl, (one,)) == (B3P.ring.pi,)


def test_kernel_cokernel_zero_map():
    m, n = M(B3I, "M2"), M(B3I, "M3", "M1")
    f = zero_morphism(m, n)
    K, _ = kernel(f)
    C, _ = cokernel(f)
    assert K == m and C == n


def test_exactness_random():
    rng = random.Random(11)
    for base in (B3I, B3P, chain_base("int", 3, 6), chain_base("poly", 2, 9)):
        labels = list(base.labels)
        for _ in range(40):
            a = M(base, *[rng.choice(labels) for _ in range(rng.randrange(4))])
            b = M(base, *[rng.choice(labels) for _ in range(rng.randrange(4))])
            f = hom_space(a, b).random(rng)
            K, incl = kernel(f)
            C, proj = cokernel(f)
            I, iincl = image(f)
            assert mor_compose(f, incl).is_zero()
            assert mor_compose(proj, f).is_zero()
            assert is_injective_map(incl)
            assert is_surjective_map(proj)
            # image = kernel of the cokernel, and lengths are additive
            KC, _ = kernel(proj)
            assert KC == I
            assert a.length() == K.length() + I.length()
            assert solve_right(iincl, f) is not None


def test_injective_surjective_iso_flags():
    up = morphism(M(B2I, "M1"), M(B2I, "M2"), [[1]])
    down = morphism(M(B2I, "M2"), M(B2I, "M1"), [[1]])
    assert is_injective_map(up) and not is_surjective_map(up)
    assert is_surjective_map(down) and not is_injective_map(down)
    unit = morphism(M(B2I, "M2"), M(B2I, "M2"), [[3]])
    assert is_iso(unit)
    assert mor_equal(mor_compose(invert(unit), unit), identity_morphism(M(B2I, "M2")))


def test_rad2nak_kernel_cokernel():
    b = rad2nak_base(2, 2)
    P1 = serial_module(b, ["P1"])
    S1 = serial_module(b, ["S1"])
    S2 = serial_module(b, ["S2"])
    proj = morphism(P1, S1, [[1]])
    K, incl = kernel(proj)
    assert K.parts == ("S2",)
    assert mor_compose(proj, incl).is_zero()
    C, q = cokernel(morphism(S2, P1, [[1]]))
    assert C.parts == ("S1",)
    assert is_surjective_map(q)
    # radical map P2 -> P1: kernel and cokernel are the outer simples
    P2 = serial_module(b, ["P2"])
    rad = morphism(P2, P1, [[1]])
    K2, _ = kernel(rad)
    C2, _ = cokernel(rad)
    assert K2.parts == ("S1",) and C2.parts == ("S1",)


def test_rad2nak_exactness_random():
    b = rad2nak_base(2, 3)
    rng = random.Random(5)
    labels = list(b.labels)
    for _ in range(40):
        a = M(b, *[rng.choice(labels) for _ in range(rng.randrange(3))])
        c = M(b, *[rng.choice(labels) for _ in range(rng.randrange(3))])
        f = hom_space(a, c).random(rng)
        K, incl = kernel(f)
        C, proj = cokernel(f)
        assert mor_compose(f, incl).is_zero()
        assert mor_compose(proj, f).is_zero()
        I, _ = image(f)
        assert a.length() == K.length() + I.length()
        KC, _ = kernel(proj)
        assert KC == I


def test_rad2nak_pull_back_rejects_inhomogeneous_chain_maps():
    """A chain map whose entries fix no consistent grades, or mix two
    layers in one entry, has no rad2nak map behind it."""
    b = rad2nak_base(3, 2)
    dual = chain_base("poly", 2, 2)
    P1 = serial_module(b, ["P1"])
    # 1 + pi on M2 -> M2 would be the identity plus a radical map
    with pytest.raises(AssertionError):
        _pull_back(morphism(M(dual, "M2"), M(dual, "M2"), [[3]]), source=P1)
    # the top of P1 lands in layer 0 of one M2 and layer 1 of the other
    with pytest.raises(AssertionError):
        _pull_back(morphism(M(dual, "M2"), M(dual, "M2", "M2"), [[1], [2]]),
                   target=serial_module(b, ["P1", "P2"]))
    # homogeneous: the top of P1 lands in the socle of the new part, P3
    q = _pull_back(morphism(M(dual, "M2"), M(dual, "M2"), [[2]]), source=P1)
    assert q.target.parts == ("P3",) and q.entries[0][0] == b.ring.one


# -- socle and envelopes ---------------------------------------------------------------


def test_socle_examples():
    assert socle(M(B3I, "M3", "M1")).parts == ("M1", "M1")
    b = rad2nak_base(2, 2)
    assert socle(serial_module(b, ["P1"])).parts == ("S2",)
    assert socle(zero_module(B3I)).is_zero()
    incl = socle_inclusion(M(B3I, "M3", "M1"))
    assert is_injective_map(incl)


def test_injective_envelope_z8():
    J, j = injective_envelope(M(B3I, "M1"))
    assert J.parts == ("M3",)
    assert is_injective_map(j)
    assert apply_morphism(j, (B3I.ring.one,)) == (B3I.ring.from_int(4),)


def test_injective_envelope_mixed():
    J, j = injective_envelope(M(B3P, "M2", "M1"))
    assert J.parts == ("M3", "M3")
    assert is_injective_map(j)


def test_injective_envelope_rad2nak_socle_match():
    b = rad2nak_base(2, 2)
    J, j = injective_envelope(serial_module(b, ["S1"]))
    # the envelope is the length-2 indecomposable whose socle is S1
    assert J.parts == ("P2",)
    assert b.socle_label("P2") == "S1"
    assert is_injective_map(j)


def test_injective_envelope_left_minimal_exhaustive():
    """Every endomorphism of the envelope fixing the inclusion is invertible."""
    for base in (B2P, B2I):
        m = M(base, "M1", "M1")
        J, j = injective_envelope(m)
        for k in hom_space(J, J):
            if mor_equal(mor_compose(k, j), j):
                assert is_iso(k)


def test_socle_of_envelope_is_socle_iso():
    for base in (B3I, B3P):
        m = M(base, "M2", "M1")
        J, j = injective_envelope(m)
        soc_m, soc_j = socle(m), socle(J)
        incl_m = socle_inclusion(m)
        incl_j = socle_inclusion(J)
        restricted = solve_right(incl_j, mor_compose(j, incl_m))
        assert restricted is not None and is_iso(restricted)


def test_envelope_unavailable_on_stable():
    st = stable_base(B3I)
    with pytest.raises(ValueError):
        injective_envelope(serial_module(st, ["M1"]))


# -- solving ---------------------------------------------------------------------------


def test_solve_no_section_of_projection():
    # R/pi^2 -> R/pi never splits: the identity does not lift
    down = morphism(M(B2I, "M2"), M(B2I, "M1"), [[1]])
    assert solve_right(down, identity_morphism(M(B2I, "M1"))) is None


def test_solve_extension_into_injective_always_exists():
    # extend K -> J along a monomorphism K -> S (J injective)
    for base in (B3I, B3P):
        rng = random.Random(2)
        K = M(base, "M2")
        S = M(base, "M3", "M1")
        emb = morphism(K, S, [[1], [1]])
        assert is_injective_map(emb)
        J, j = injective_envelope(K)
        e = solve_left(emb, j)
        assert e is not None
        assert mor_equal(mor_compose(e, emb), j)


def test_solve_unsolvable_unit_through_pi():
    up = morphism(M(B2I, "M1"), M(B2I, "M2"), [[1]])
    assert solve_left(up, identity_morphism(M(B2I, "M1"))) is None


# (base, length cap) of the modules M, N of f: M -> N in the solving tests
SOLVE_CASES = [(chain_base("poly", 2, 3), 3), (chain_base("int", 2, 3), 3), (rad2nak_base(2, 2), 2)]
SOLVE_IDS = ["poly-2-3", "int-2-3", "rad2nak-2-2"]


def _solve_partners(base):
    """The modules P of g: every indecomposable and a sum of two simples."""
    return [M(base, label) for label in base.labels] + [M(base, base.labels[-1], base.labels[-1])]


def _some_maps(m, n, rng, count=4):
    maps = list(hom_space(m, n))
    return maps if len(maps) <= count else rng.sample(maps, count)


@pytest.mark.parametrize("base,cap", SOLVE_CASES, ids=SOLVE_IDS)
def test_solve_right_finds_h_exactly_when_one_exists(base, cap):
    """For f: M -> N over every pair of modules (up to 4 maps f per pair) and
    every g: P -> N, solve_right(f, g) is None exactly when no h: P -> M in
    the hom space has f o h = g, and otherwise gives such an h."""
    rng = random.Random(11)
    modules = modules_up_to_length(base, cap)
    solved = unsolvable = 0
    for m in modules:
        for n in modules:
            for f in _some_maps(m, n, rng):
                for p in _solve_partners(base):
                    reachable = {mor_compose(f, h).entries for h in hom_space(p, m)}
                    for g in hom_space(p, n):
                        h = solve_right(f, g)
                        if g.entries in reachable:
                            assert h is not None and mor_equal(mor_compose(f, h), g), (f, g)
                            solved += 1
                        else:
                            assert h is None, (f, g)
                            unsolvable += 1
    assert solved and unsolvable


@pytest.mark.parametrize("base,cap", SOLVE_CASES, ids=SOLVE_IDS)
def test_solve_left_finds_h_exactly_when_one_exists(base, cap):
    """For f: M -> N over every pair of modules (up to 4 maps f per pair) and
    every g: M -> P, solve_left(f, g) is None exactly when no h: N -> P in
    the hom space has h o f = g, and otherwise gives such an h."""
    rng = random.Random(12)
    modules = modules_up_to_length(base, cap)
    solved = unsolvable = 0
    for m in modules:
        for n in modules:
            for f in _some_maps(m, n, rng):
                for p in _solve_partners(base):
                    reachable = {mor_compose(h, f).entries for h in hom_space(n, p)}
                    for g in hom_space(m, p):
                        h = solve_left(f, g)
                        if g.entries in reachable:
                            assert h is not None and mor_equal(mor_compose(h, f), g), (f, g)
                            solved += 1
                        else:
                            assert h is None, (f, g)
                            unsolvable += 1
    assert solved and unsolvable


def test_hom_space_sizes():
    assert hom_space(M(B2I, "M1"), M(B2I, "M2")).size == 2
    assert hom_space(M(B3I, "M2"), M(B3I, "M2")).size == 4
    assert hom_space(M(B3I, "M2"), zero_module(B3I)).size == 1
    assert len(list(hom_space(M(B2P, "M1"), M(B2P, "M2")))) == 2


HOM_ORDER_CASES = [
    (B3I, ("M3", "M1"), ("M2", "M2", "M1")),
    (B2P, ("M2", "M1"), ("M2",)),
    (chain_base("int", 3, 2), ("M2",), ("M2", "M1")),
    # rank-0 source or target: the one zero map
    (B3P, (), ("M3", "M1")),
    (B3P, ("M2", "M1"), ()),
    (B3P, (), ()),
    # zero-length entries: Hom(S1, S2) = Hom(P1, P1 -> S2) = 0 over rad2nak
    (rad2nak_base(2, 2), ("P1", "S1"), ("P2", "S2", "S1")),
    (rad2nak_base(3, 3), ("S1", "P2"), ("P1", "S3")),
    (stable_base(B3I), ("M2", "M1"), ("M2", "M1")),
]


@pytest.mark.parametrize("base,source,target", HOM_ORDER_CASES)
def test_hom_space_lists_each_map_once_in_mixed_radix_order(base, source, target):
    """Iteration gives ``size`` maps, each once, in mixed-radix order of the
    entries' numbers (row-major, the last entry fastest): the brute-force
    product of every entry's values, each the truncation of every ring
    element, sorted by number, which is also ``hom_elements``."""
    m, n = serial_module(base, source), serial_module(base, target)
    values = [sorted({base.coeff(a, b, c) for c in base.ring.elements()}, key=lambda c: c.num)
              for b in n.parts for a in m.parts]
    assert values == [list(base.hom_elements(a, b)) for b in n.parts for a in m.parts]
    expected = [tuple(tuple(entries[i * m.rank:(i + 1) * m.rank]) for i in range(n.rank))
                for entries in itertools.product(*values)]
    space = hom_space(m, n)
    maps = list(space)
    assert [f.entries for f in maps] == expected
    assert len(maps) == len(set(maps)) == space.size
    assert all(f.source is m and f.target is n for f in maps)
    # the map numbered k is the k-th, its nonzero entries read from the digits
    assert [space[k] for k in range(space.size)] == maps
    assert [space.support(k) for k in range(space.size)] == [nonzero_entries(f) for f in maps]
    for k in (-1, space.size):
        with pytest.raises(IndexError):
            space[k]


def test_dual_morphism_involution():
    rng = random.Random(4)
    a = M(B3I, "M3", "M1")
    b = M(B3I, "M2")
    f = hom_space(a, b).random(rng)
    assert mor_equal(dual_morphism(dual_morphism(f)), f)


def test_zero_module_everywhere():
    z = zero_module(B3I)
    m = M(B3I, "M2")
    f = zero_morphism(z, m)
    K, _ = kernel(f)
    C, _ = cokernel(f)
    assert K.is_zero() and C == m
    g = zero_morphism(m, z)
    K2, _ = kernel(g)
    assert K2 == m
    assert is_injective_map(f) and is_surjective_map(g)


@pytest.mark.parametrize("base", [B3I, B2P, rad2nak_base(2, 3), rad2nak_base(3, 2)],
                         ids=["chain-int", "chain-poly", "rad2nak-2-3", "rad2nak-3-2"])
def test_kernel_cokernel_image_at_the_zero_module(base):
    """Maps to and from the zero module go through the one Smith path: the
    zero side gives the zero module and the empty map, the other side the
    module itself up to an isomorphism."""
    z = zero_module(base)
    zz = zero_morphism(z, z)
    for m in modules_up_to_length(base, 3):
        into, out = zero_morphism(z, m), zero_morphism(m, z)
        assert kernel(into) == (z, zz) and image(into) == (z, into)
        C, q = cokernel(into)
        assert C == m and is_iso(q)
        K, incl = kernel(out)
        assert K == m and is_iso(incl)
        assert cokernel(out) == (z, zz) and image(out) == (z, zz)


@pytest.mark.parametrize("base", [B3I, rad2nak_base(2, 3), stable_base(B3I)],
                         ids=["chain", "rad2nak", "stable"])
def test_direct_sum_of_one_summand_is_the_summand(base):
    for m in modules_up_to_length(base, 3):
        total, positions = direct_sum(base, [m])
        assert total is m and positions == (tuple(range(m.rank)),)


# (base, length cap): every morphism between modules up to the cap is tried
SOCLE_CASES = [
    (chain_base("poly", 2, 3), 3), (chain_base("int", 2, 3), 3), (rad2nak_base(2, 2), 3),
    (chain_base("poly", 3, 2), 2), (chain_base("int", 3, 2), 2),
    (rad2nak_base(3, 2), 2), (rad2nak_base(2, 3), 2),
]


SOCLE_IDS = ["poly-2-3", "int-2-3", "rad2nak-2-2", "poly-3-2", "int-3-2", "rad2nak-3-2",
             "rad2nak-2-3"]


@pytest.mark.parametrize("base,cap", SOCLE_CASES, ids=SOCLE_IDS)
def test_socle_injectivity_test_matches_kernel(base, cap):
    modules = modules_up_to_length(base, cap)
    tried = monic = 0
    for m in modules:
        for n in modules:
            for f in hom_space(m, n):
                verdict = is_injective_map(f)
                assert verdict == kernel(f)[0].is_zero(), f
                tried += 1
                monic += verdict
    assert 0 < monic < tried
    # two maps into one module are jointly monic exactly when the map they
    # induce from the sum of their sources has zero kernel; sources of one or
    # two parts, 4 pairs per shape
    rng = random.Random(5)
    small = [m for m in modules if 0 < m.rank <= 2 and m.length() <= 2]
    tried = monic = 0
    for n in modules:
        for m1, m2 in itertools.combinations_with_replacement(small, 2):
            pairs = list(itertools.product(hom_space(m1, n), hom_space(m2, n)))
            for f1, f2 in rng.sample(pairs, min(4, len(pairs))):
                joint, _, _ = assemble(base, [m1, m2], [n], {(0, 0): f1, (0, 1): f2})
                verdict = is_injective_map(f1, f2)
                assert verdict == kernel(joint)[0].is_zero() == is_injective_map(joint), (f1, f2)
                tried += 1
                monic += verdict
    assert 0 < monic < tried
    assert is_injective_map()


def _units(m):
    return {f.entries for f in hom_space(m, m) if is_iso(f)}


AUT_CASES = [
    M(B2P, "M1", "M1"), M(B2P, "M2", "M1"), M(B3I, "M3", "M1"), M(B3P, "M2", "M1", "M1"),
    M(chain_base("poly", 3, 2), "M1", "M1"), M(chain_base("int", 3, 2), "M2", "M1"),
    M(rad2nak_base(2, 2), "P1", "P1"), M(rad2nak_base(2, 2), "P1", "P2", "S2"),
    M(rad2nak_base(3, 2), "P1", "P2", "S2", "S2"), M(rad2nak_base(2, 3), "P1", "S1"),
    # the swap of equal parts from transvections and s_j(-1), p odd
    M(chain_base("int", 3, 2), "M2", "M2"), M(chain_base("poly", 3, 2), "M2", "M2"),
    M(rad2nak_base(2, 3), "P2", "P2"), M(rad2nak_base(2, 3), "S1", "S1", "P2"),
    # unit groups that are not cyclic
    M(B3I, "M3", "M3"), M(chain_base("int", 2, 4), "M4", "M2"),
    # t_ij(x^e), e >= 1, from commutators with s_i(1 + x)
    M(B3P, "M3", "M3"), M(chain_base("poly", 2, 4), "M4", "M3"),
    M(rad2nak_base(2, 2), "S1", "S1", "P2"),
    # blocks of three and four equal parts: one transvection and the cycle
    M(B2P, "M1", "M1", "M1"), M(B2P, "M1", "M1", "M1", "M1"),
    M(chain_base("int", 3, 2), "M1", "M1", "M1"), M(rad2nak_base(2, 2), "P1", "P1", "P1", "S2"),
]


@pytest.mark.parametrize("m", AUT_CASES, ids=repr)
def test_automorphism_generators_generate_the_units_of_end(m):
    pairs = automorphism_generators(m)
    ident = identity_morphism(m)
    for g, g_inv in pairs:
        assert mor_equal(mor_compose(g, g_inv), ident)
        assert mor_equal(mor_compose(g_inv, g), ident)
        assert not mor_equal(g, ident)
    group = {ident.entries}
    frontier = [ident]
    while frontier:
        h = frontier.pop()
        for g, _ in pairs:
            gh = mor_compose(g, h)
            if gh.entries not in group:
                group.add(gh.entries)
                frontier.append(gh)
    assert group == _units(m)


def _generated(units, length):
    """The subgroup of the units of R/pi^length generated by ``units``."""
    group = {units[0].ring.one} if units else set()
    frontier = list(group)
    while frontier:
        h = frontier.pop()
        for u in units:
            uh = (u * h).truncate(length)
            if uh not in group:
                group.add(uh)
                frontier.append(uh)
    return group


def _blocks(m):
    """(first, end) of each block of equal parts of m, in part order."""
    firsts = [f for f, a in enumerate(m.parts) if f == 0 or m.parts[f - 1] != a]
    return list(zip(firsts, firsts[1:] + [m.rank]))


@pytest.mark.parametrize("m", AUT_CASES, ids=repr)
def test_automorphism_generators_are_scalings_and_one_transvection_per_pair(m):
    # per block P^k at f: scalings on part f, then t_{f,f+1} and t_{f+1,f}
    # (k = 2) or t_{f,f+1} and the cycle (k >= 3), then one transvection
    # t_{f,f'} per other block f' with Hom(P', P) != 0
    base, parts = m.base, m.parts
    one, zero = base.one_coeff(), base.zero_coeff()
    ident = identity_morphism(m)
    scalings = {i: [] for i in range(m.rank)}
    transvections, cycles = [], []
    for g, g_inv in automorphism_generators(m):
        moved = [(i, j) for i in range(m.rank) for j in range(m.rank)
                 if g.entries[i][j] != ident.entries[i][j]]
        if len(moved) == 1 and moved[0][0] == moved[0][1]:
            scalings[moved[0][0]].append(g.entries[moved[0][0]][moved[0][0]])
        elif len(moved) == 1:
            (i, j), = moved
            assert g.entries[i][j] == base.coeff(parts[j], parts[i], one)
            transvections.append((i, j))
        else:
            # a cycle of a block: part f + k onto part f + k + 1, mod its size
            f, end = next(b for b in _blocks(m) if b[0] == moved[0][0])
            image = {j: f + (j - f + 1) % (end - f) for j in range(f, end)}
            assert sorted(moved) == sorted({(i, i) for i in image} | {(i, j) for j, i in image.items()})
            assert all(g.entries[i][j] == (one if image[j] == i else zero) for i, j in moved)
            assert all(g_inv.entries[j][i] == g.entries[i][j] for i, j in moved)
            cycles.append(f)
    blocks = _blocks(m)
    firsts = [f for f, _ in blocks]
    within = [(f, f + 1) for f, end in blocks if end - f >= 2] + \
        [(f + 1, f) for f, end in blocks if end - f == 2]
    across = [(f, g) for f in firsts for g in firsts
              if g != f and base.hom_length(parts[g], parts[f])]
    assert sorted(transvections) == sorted(within + across)
    assert cycles == [f for f, end in blocks if end - f >= 3]
    for i, a in enumerate(parts):
        if i not in firsts:
            assert not scalings[i]
            continue
        length = base.hom_length(a, a)
        units = [u for u in base.hom_elements(a, a) if u.digits[0]]
        assert scalings[i] == _unit_generators(base, a)
        assert _generated(scalings[i], length) | {one} == set(units)
        # greedy: none is generated by the ones before it
        assert all(u not in _generated(scalings[i][:k], length) | {one}
                   for k, u in enumerate(scalings[i]))


# -- memoized operations ----------------------------------------------------------

MEMOIZED = [kernel, cokernel, image, solve_right, solve_left, mor_compose, _direct_sum,
            identity_morphism, coordinate_blocks]
MEMO_BASES = [B3I, B3P, rad2nak_base(2, 3), stable_base(B3I)]
MEMO_IDS = ["chain-int", "chain-poly", "rad2nak", "stable"]


def _random_module(base, rng, most=3):
    return M(base, *rng.choices(base.labels, k=rng.randrange(most + 1)))


def _same_as_uncached(fn, *args):
    """fn(*args) equals what the undecorated function builds, on a first call
    and on a repeat."""
    fresh = fn.__wrapped__(*args)
    assert fn(*args) == fresh
    assert fn(*args) == fresh
    return fresh


@pytest.mark.parametrize("base", MEMO_BASES, ids=MEMO_IDS)
def test_memoized_operations_equal_their_uncached_results(base):
    rng = random.Random(17)
    solvable = 0
    for _ in range(30):
        a, b, c = (_random_module(base, rng) for _ in range(3))
        f, g = hom_space(a, b).random(rng), hom_space(b, c).random(rng)
        _same_as_uncached(mor_compose, g, f)
        summands = [_random_module(base, rng) for _ in range(rng.randrange(1, 4))]
        total, positions = direct_sum(base, summands)
        assert (total, positions) == _direct_sum.__wrapped__(base, tuple(summands))
        assert type(positions) is tuple and all(type(pos) is tuple for pos in positions)
        if not base.is_abelian:
            continue
        _same_as_uncached(kernel, f)
        _same_as_uncached(cokernel, f)
        _same_as_uncached(image, f)
        # per side, one equation with a solution (g = f o h, g = h o f) and a random one
        h = hom_space(c, a).random(rng)
        solvable += _same_as_uncached(solve_right, f, mor_compose(f, h)) is not None
        _same_as_uncached(solve_right, f, hom_space(c, b).random(rng))
        h = hom_space(b, c).random(rng)
        solvable += _same_as_uncached(solve_left, f, mor_compose(h, f)) is not None
        _same_as_uncached(solve_left, f, hom_space(a, c).random(rng))
    assert solvable == (60 if base.is_abelian else 0)


@pytest.mark.parametrize("base", MEMO_BASES, ids=MEMO_IDS)
def test_memoized_constructors_equal_their_uncached_results(base):
    rng = random.Random(19)
    for _ in range(20):
        m = _random_module(base, rng)
        _same_as_uncached(identity_morphism, m)
    for quiver in (builtin_quiver("A4-zigzag"), builtin_quiver("D4")):
        for _ in range(10):
            blocks = _same_as_uncached(coordinate_blocks, random_representation(base, quiver, rng))
            assert blocks is None or type(blocks) is tuple


def test_memoized_operations_raise_on_every_call():
    stable = stable_base(B3I)
    m = M(stable, *stable.labels)
    n = M(B3I, "M2")
    for _ in range(2):
        with pytest.raises(ValueError, match="stable"):
            kernel(identity_morphism(m))
        with pytest.raises(ValueError, match="shape mismatch"):
            mor_compose(identity_morphism(n), identity_morphism(M(B3I, "M1")))
        with pytest.raises(ValueError, match="base mismatch"):
            direct_sum(B3I, [n, m])


@pytest.mark.parametrize("fn", MEMOIZED, ids=lambda fn: fn.__name__)
def test_memoized_operations_share_one_cache_size(fn):
    assert fn.cache_info().maxsize == MEMO_SIZE


# -- the value layer ----------------------------------------------------------------


def test_modules_are_one_object_per_base_and_parts():
    assert serial_module(B3I, ["M1", "M2"]) is serial_module(B3I, ["M2", "M1"])
    assert SerialModule(B3I, ("M2", "M1")) is M(B3I, "M1", "M2")
    assert zero_module(B3I) is zero_module(B3I) is M(B3I)
    assert zero_module(B3I) is not zero_module(B3P)
    assert M(B3I, "M2") is not M(B3P, "M2") and M(B3I, "M2") != M(B3P, "M2")
    assert M(B3I, "M2").rank == 1 and zero_module(B3I).rank == 0


@pytest.mark.parametrize("attr", ["base", "parts", "rank", "other"])
def test_module_attributes_cannot_be_assigned(attr):
    m = M(B3I, "M2", "M1")
    with pytest.raises(AttributeError):
        setattr(m, attr, zero_module(B3I))
    with pytest.raises(AttributeError):
        delattr(m, attr)
    assert m.parts == ("M2", "M1") and m.rank == 2 and m.base is B3I


@pytest.mark.parametrize("attr", ["source", "target", "entries", "base", "other"])
def test_map_attributes_cannot_be_assigned(attr):
    f = morphism(M(B3I, "M1"), M(B3I, "M2"), [[1]])
    with pytest.raises(AttributeError):
        setattr(f, attr, None)
    with pytest.raises(AttributeError):
        delattr(f, attr)
    assert f == morphism(M(B3I, "M1"), M(B3I, "M2"), [[1]])


def test_equal_maps_built_apart_compare_and_hash_equal():
    a, b = M(B3I, "M2", "M1"), M(B3I, "M3")
    f = morphism(a, b, [[2, 1]])
    for g in (morphism(a, b, [[2, 1]]), mor_compose(identity_morphism(b), f),
              mor_compose(f, identity_morphism(a))):
        assert g is not f and g == f and hash(g) == hash(f) and {f: 0}[g] == 0
    assert morphism(a, b, [[0, 1]]) != f
    assert morphism(b, b, [[2]]) != morphism(b, b, [[2]]).entries


def test_representation_hash_is_kept_and_equal_for_equal_values():
    rng = random.Random(31)
    for base in (B3I, rad2nak_base(2, 3), stable_base(B3I)):
        for quiver in (builtin_quiver("A4-zigzag"), builtin_quiver("kronecker")):
            r = random_representation(base, quiver, rng)
            value = hash((r.quiver, r.base, tuple(r.modules[v] for v in quiver.vertices),
                          tuple(r.maps[a.name] for a in quiver.arrows)))
            assert hash(r) == value and hash(r) == value
            copy = Representation(r.quiver, r.base, dict(r.modules), dict(r.maps))
            assert copy == r and hash(copy) == hash(r)
            if base.is_abelian:
                back = mio.representation_from_json(mio.representation_to_json(r))
                assert back == r and hash(back) == hash(r)

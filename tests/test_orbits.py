"""The orbit classifications: the Aut(V) generators of ``ConcreteModule`` and
the linear sweep against the isomorphism-filtered generic search; the orbits
of the block-by-block generators against those of the part-by-part
transvections; the generic
search's per-in-arrow mono pruning against the filtered product of all arrow
maps; the generic sweep's prod_v Aut(M_v)-orbits, walked on hom-space
indices, against ``IsoClassifier`` over that filtered product; each orbit's
split verdict against ``is_indecomposable``; the walk over the stable
quotient of F_2[x]/(x^5) against the one whose permutations compose maps."""

import functools
import itertools
import os

import pytest

import monocat.enumerate as enumerate_module
from monocat.base import chain_base, rad2nak_base, stable_base
from monocat.concrete import ConcreteModule
from monocat.decompose import coordinate_components, is_indecomposable, nonzero_entries
from monocat.enumerate import (
    DEFAULT_ENUM_BUDGET,
    IsoClassifier,
    _HomActions,
    _generic_candidates,
    _chain_representation,
    _generic_orbit_classes,
    _indexed_rep,
    _linear_mono_candidates,
    _linear_orbits,
    _orbit_representatives,
    enumerate_bounded,
    modules_up_to_length,
)
from monocat.exact import is_iso
from monocat.quiver import Quiver, builtin_quiver
from monocat.rep import Representation, RepMorphism, is_iso_reps, is_mono, rep_direct_sum
from monocat.serialmod import (
    SerialMorphism,
    automorphism_generators,
    hom_space,
    identity_morphism,
    morphism,
    serial_module,
)

from oracles import (
    apply_morphism,
    chain_splits,
    composition_perm,
    element_number,
    module_elements,
    submodule_mask,
    transvection_generators,
)


def _closure(gens, size):
    identity = tuple(range(size))
    group = {identity}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for h in gens:
            gh = tuple(h[i] for i in g)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return group


def _full_generators(m):
    """A redundant list of generator pairs of Aut(m): a scaling by every
    unit != 1, every transvection 1 + pi^e g_{i<-j} with e below the hom
    length, and every swap of two equal parts."""
    base, parts = m.base, m.parts
    ident = identity_morphism(m)

    def elementary(changes):
        rows = [list(r) for r in ident.entries]
        for (i, j), c in changes.items():
            rows[i][j] = base.coeff(parts[j], parts[i], c)
        return SerialMorphism(m, m, tuple(tuple(r) for r in rows))

    out = []
    for i, a in enumerate(parts):
        for u in base.hom_elements(a, a):
            if u.digits[0] and u != base.one_coeff():
                out.append((elementary({(i, i): u}), elementary({(i, i): u.inverse()})))
    for i, a in enumerate(parts):
        for j, b in enumerate(parts):
            if i != j:
                for e in range(base.hom_length(b, a)):
                    c = base.ring.pi_pow(e)
                    out.append((elementary({(i, j): c}), elementary({(i, j): -c})))
    for i, a in enumerate(parts):
        for j in range(i + 1, len(parts)):
            if parts[j] == a:
                swap = elementary({(i, i): 0, (j, j): 0, (i, j): 1, (j, i): 1})
                out.append((swap, swap))
    return out


def _permutation(conc, g):
    """The automorphism g on the element numbers of conc, each column by
    ``apply_morphism`` on a basis tuple."""
    conc.build_tables()
    add, scalar, ring, m = conc._add_table, conc._scalar_table, conc.ring, conc.module
    columns = [element_number(m, apply_morphism(g, tuple(ring.one if k == j else ring.zero
                                                         for k in range(m.rank))))
               for j in range(m.rank)]
    perm = []
    for x in module_elements(m):
        acc = conc.zero
        for xj, col in zip(x, columns):
            acc = add[acc][scalar[xj.num][col]]
        perm.append(acc)
    return tuple(perm)


def _move_chain(conc, perm, chain):
    """A chain of submodule masks moved by the element permutation perm."""
    return tuple(sum(1 << perm[i] for i in conc.mask_elements(m)) for m in chain)


@pytest.mark.parametrize("arith,p,n,parts", [
    ("poly", 2, 2, ["M1", "M1"]),
    ("poly", 2, 2, ["M2", "M1"]),
    ("int", 2, 3, ["M3", "M1"]),
    # the swap of equal parts from transvections and s_j(-1), p odd
    ("int", 3, 2, ["M2", "M2"]),
    ("poly", 3, 2, ["M2", "M2"]),
    # unit groups that are not cyclic
    ("int", 2, 3, ["M3", "M3"]),
    ("int", 2, 4, ["M4", "M2"]),
    # t_ij(x^e), e >= 1, from commutators with s_i(1 + x)
    ("poly", 2, 3, ["M3", "M3"]),
    ("poly", 2, 4, ["M4", "M3"]),
    # blocks of three and four equal parts: one transvection and the cycle
    ("poly", 2, 2, ["M1"] * 3),
    ("poly", 2, 2, ["M1"] * 4),
    ("int", 3, 2, ["M1"] * 3),
])
def test_automorphism_generators_generate_aut(arith, p, n, parts):
    conc = ConcreteModule(serial_module(chain_base(arith, p, n), parts))
    gens = conc.automorphism_generators()
    conc.build_tables()
    add, scalar = conc._add_table, conc._scalar_table
    assert gens
    # each permutation is the one apply_morphism gives for its generator
    expected = {_permutation(conc, g) for g, _ in automorphism_generators(conc.module)}
    assert set(gens) == expected - {tuple(range(conc.size))}
    for g in gens:
        assert sorted(g) == list(range(conc.size))
        for i in range(conc.size):
            for j in range(conc.size):
                assert g[add[i][j]] == add[g[i]][g[j]]
            for table in scalar:
                assert g[table[i]] == table[g[i]]
    units = sum(1 for f in hom_space(conc.module, conc.module) if is_iso(f))
    assert len(_closure(gens, conc.size)) == units


# (quiver, base, caps): one per arithmetic and one on three vertices
ORACLE_CONFIGS = [
    ("An-linear:2", ("poly", 2, 2), (2, 2)),
    ("An-linear:2", ("int", 2, 2), (2, 2)),
    ("An-linear:3", ("poly", 2, 2), (2, 2, 2)),
    ("An-linear:3", ("int", 2, 2), (2, 2, 2)),
]


@pytest.mark.parametrize("qname,base_args,caps", ORACLE_CONFIGS)
def test_orbit_sweep_matches_iso_filtered_oracle(qname, base_args, caps):
    quiver = builtin_quiver(qname)
    base = chain_base(*base_args)
    cap_dict = dict(zip(quiver.vertices, caps))
    classifier = IsoClassifier()
    for rep in _candidate_reps(quiver, base, cap_dict, True):
        classifier.add(rep)
    oracle = classifier.classes()

    # every orbit representative, split or not, is its own class: it
    # matches exactly one oracle class, and no two of them match the same one
    walked = list(_linear_orbits(quiver, base, cap_dict))
    orbits = [(_chain_representation(quiver, base, conc, chain), splits)
              for conc, chain, splits in walked]
    hits = []
    for rep, _ in orbits:
        matches = [k for k, s in enumerate(oracle) if is_iso_reps(rep, s)]
        assert len(matches) == 1
        hits.append(matches[0])
    assert len(set(hits)) == len(hits)

    # the walk's verdict is decomposability, on split and unsplit orbits;
    # a sink with one part has no decomposable chain
    for rep, splits in orbits:
        assert splits == (not rep.is_zero() and not is_indecomposable(rep))
    assert any(splits for _, splits in orbits)
    assert not any(splits for conc, _, splits in walked if conc.module.rank == 1)
    assert list(_linear_mono_candidates(quiver, base, cap_dict)) == \
        [rep for rep, splits in orbits if not splits]

    # the indecomposable classes agree, one to one
    expected = [s for s in oracle if not s.is_zero() and is_indecomposable(s)]
    found = [r for r, _ in enumerate_bounded(quiver, base, caps, mono_only=True).classes]
    assert len(found) == len(expected)
    remaining = list(expected)
    for r in found:
        k = next(k for k, s in enumerate(remaining) if is_iso_reps(r, s))
        remaining.pop(k)
    assert not remaining


def _candidate_reps(quiver, base, caps, mono_only):
    """Every candidate of ``_generic_candidates``, in order, as a representation."""
    return [_indexed_rep(quiver, base, modules, spaces, indices)
            for modules, spaces, tuples in
            _generic_candidates(quiver, base, caps, mono_only, DEFAULT_ENUM_BUDGET)
            for indices in tuples]


def _orbit_reps(quiver, base, caps, mono_only):
    """(representation, splits) for every orbit of ``_generic_orbit_classes``,
    split or not, each built from its map numbers."""
    return [(_indexed_rep(quiver, base, modules, spaces, indices), splits)
            for modules, spaces, indices, splits in
            _generic_orbit_classes(quiver, base, caps, mono_only, DEFAULT_ENUM_BUDGET)]


def _filtered_product(quiver, base, caps, mono_only):
    """Every vertex-module and arrow-map tuple in product order, kept when
    the whole representation is monic (or always, without ``mono_only``)."""
    inventories = [modules_up_to_length(base, caps[v]) for v in quiver.vertices]
    names = [a.name for a in quiver.arrows]
    out = []
    for assignment in itertools.product(*inventories):
        modules = dict(zip(quiver.vertices, assignment))
        spaces = [list(hom_space(modules[a.source], modules[a.target])) for a in quiver.arrows]
        for combo in itertools.product(*spaces):
            rep = Representation(quiver, base, modules, dict(zip(names, combo)))
            if not mono_only or is_mono(rep):
                out.append(rep)
    return out


# arrows into 2, 3, 2: the check at vertex 3 falls between the two arrows into 2
INTERLEAVED = Quiver(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "1", "3"), ("c", "4", "2")])

# (quiver, base, caps)
GENERIC_CONFIGS = [
    (builtin_quiver("A4-zigzag"), chain_base("poly", 2, 2), (1, 1, 1, 1)),
    (builtin_quiver("A4-zigzag"), chain_base("poly", 2, 2), (2, 1, 2, 1)),
    (builtin_quiver("kronecker"), chain_base("int", 2, 2), (2, 2)),
    (builtin_quiver("D4"), chain_base("poly", 3, 2), (1, 1, 1, 1)),
    (INTERLEAVED, chain_base("poly", 2, 2), (1, 2, 1, 1)),
    (builtin_quiver("An-linear:2"), rad2nak_base(2, 2), (2, 2)),
    # M1^3 at both ends: the cycle of a block of three fills rows and columns
    (builtin_quiver("An-linear:2"), chain_base("poly", 2, 1), (3, 3)),
]
GENERIC_IDS = ["zigzag-1111", "zigzag-2121", "kronecker-22", "d4-1111", "interleaved",
               "rad2nak-a2", "a2-field-33"]


@pytest.mark.parametrize("quiver,base,caps", GENERIC_CONFIGS, ids=GENERIC_IDS)
def test_generic_mono_candidates_match_filtered_product(quiver, base, caps):
    cap_dict = dict(zip(quiver.vertices, caps))
    found = _candidate_reps(quiver, base, cap_dict, True)
    expected = _filtered_product(quiver, base, cap_dict, mono_only=True)
    assert found
    assert found == expected
    assert all(is_mono(rep) for rep in found)


@pytest.mark.parametrize("quiver,base,caps", [GENERIC_CONFIGS[0], GENERIC_CONFIGS[4]],
                         ids=[GENERIC_IDS[0], GENERIC_IDS[4]])
def test_generic_candidates_without_mono_is_the_full_product(quiver, base, caps):
    cap_dict = dict(zip(quiver.vertices, caps))
    found = _candidate_reps(quiver, base, cap_dict, False)
    expected = _filtered_product(quiver, base, cap_dict, mono_only=False)
    assert found == expected
    assert not all(is_mono(rep) for rep in found)


# (quiver, base, caps, mono_only)
ORBIT_CONFIGS = [
    (builtin_quiver("A4-zigzag"), chain_base("poly", 2, 2), (1, 1, 1, 1), True),
    (builtin_quiver("A4-zigzag"), chain_base("poly", 2, 2), (2, 1, 2, 1), True),
    (builtin_quiver("D4"), chain_base("poly", 3, 2), (1, 1, 1, 1), True),
    (INTERLEAVED, chain_base("poly", 2, 2), (1, 2, 1, 1), True),
    (builtin_quiver("kronecker"), chain_base("int", 2, 2), (2, 2), True),
    (builtin_quiver("kronecker"), chain_base("poly", 2, 2), (2, 2), False),
    (builtin_quiver("An-linear:2"), rad2nak_base(2, 2), (2, 2), True),
    (builtin_quiver("An-linear:2"), rad2nak_base(2, 2), (2, 2), False),
    (builtin_quiver("An-linear:3"), rad2nak_base(3, 2), (2, 2, 2), True),
    (builtin_quiver("An-linear:2"), chain_base("int", 3, 2), (2, 2), False),
    # the middle vertex has arrows in and out, and g^-1 != g for some generators
    (builtin_quiver("An-linear:3"), chain_base("poly", 3, 2), (1, 2, 1), False),
    # M1^3 at both ends: the cycle of a block of three fills rows and columns
    (builtin_quiver("An-linear:2"), chain_base("poly", 2, 1), (3, 3), True),
]
ORBIT_IDS = ["zigzag-1111", "zigzag-2121", "d4-1111", "interleaved", "kronecker-int-22",
             "kronecker-poly-22-all", "rad2nak-a2", "rad2nak-a2-all", "rad2nak-a3",
             "a2-int-3-2-all", "a3-poly-3-2-all", "a2-field-33"]


@pytest.mark.parametrize("quiver,base,caps,mono_only", ORBIT_CONFIGS, ids=ORBIT_IDS)
def test_generic_orbit_classes_match_iso_filtered_product(quiver, base, caps, mono_only):
    cap_dict = dict(zip(quiver.vertices, caps))
    classifier = IsoClassifier()
    for rep in _filtered_product(quiver, base, cap_dict, mono_only):
        classifier.add(rep)
    oracle = classifier.classes()
    found = _orbit_reps(quiver, base, cap_dict, mono_only)
    assert len(found) == len(oracle)
    # each orbit representative is isomorphic to exactly one oracle class,
    # and no two representatives to the same one
    hits = []
    for rep, _ in found:
        matches = [k for k, s in enumerate(oracle) if is_iso_reps(rep, s)]
        assert len(matches) == 1
        hits.append(matches[0])
    assert sorted(hits) == list(range(len(oracle)))
    # the walk's verdict is decomposability, on split and unsplit orbits
    for rep, splits in found:
        assert splits == (not rep.is_zero() and not is_indecomposable(rep))


def test_generic_sweep_builds_representations_only_for_its_classes(monkeypatch):
    # the zigzag sweep of the benchmark: of its 50 orbits 37 split and one is
    # zero, and only the other 12 become representations
    built = []

    class Counting(Representation):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(enumerate_module, "Representation", Counting)
    quiver, base = builtin_quiver("A4-zigzag"), chain_base("poly", 2, 2)
    caps = dict(zip(quiver.vertices, (2, 2, 2, 2)))
    orbits = list(_generic_orbit_classes(quiver, base, caps, True, DEFAULT_ENUM_BUDGET))
    assert (len(orbits), sum(splits for *_, splits in orbits)) == (50, 37)
    assert not built
    report = enumerate_bounded(quiver, base, caps, mono_only=True)
    assert [rep for rep, _ in report.classes] == built
    assert len(built) == 12


# every cap tuple of {0, 1, 2}^k, k = 1..3, of sum at most 5; with a zero
# cap before the sink the walk must still find the sink-only classes M_l
LINEAR_GRID_CAPS = [caps for k in (1, 2, 3) for caps in itertools.product(range(3), repeat=k)
                    if sum(caps) <= 5]
LINEAR_GRID_BASES = [("poly", 2, 1), ("poly", 3, 1), ("poly", 2, 2), ("int", 2, 2),
                     ("poly", 3, 2), ("int", 2, 3), ("poly", 2, 3)]


@pytest.mark.parametrize("base_args", LINEAR_GRID_BASES,
                         ids=["-".join(map(str, b)) for b in LINEAR_GRID_BASES])
def test_linear_walk_matches_the_generic_walk_on_small_caps(base_args):
    base = chain_base(*base_args)
    for caps in LINEAR_GRID_CAPS:
        quiver = builtin_quiver(f"An-linear:{len(caps)}")
        cap_dict = dict(zip(quiver.vertices, caps))
        found = [rep for rep in _linear_mono_candidates(quiver, base, cap_dict)
                 if not rep.is_zero()]
        remaining = [rep for rep, splits in _orbit_reps(quiver, base, cap_dict, True)
                     if not splits and not rep.is_zero()]
        assert len(found) == len(remaining), caps
        for rep in found:
            matches = [k for k, s in enumerate(remaining) if is_iso_reps(rep, s)]
            assert matches, caps
            remaining.pop(matches[0])


def test_linear_verdicts_where_first_members_are_off_diagonal():
    # the sweep behind A4/A5: some decomposable orbits are first reached at
    # a member that is not block diagonal, so the verdict needs the walk
    quiver = builtin_quiver("An-linear:3")
    base = chain_base("poly", 2, 3)
    off_diagonal = 0
    for conc, chain, splits in _linear_orbits(quiver, base, dict(zip(quiver.vertices, (3, 4, 5)))):
        rep = _chain_representation(quiver, base, conc, chain)
        assert splits == (not rep.is_zero() and not is_indecomposable(rep))
        off_diagonal += splits and not chain_splits(conc, chain)
    assert off_diagonal


def _record_linear_walk(monkeypatch):
    """(lattices, walked): lists that ``_linear_orbits`` fills, for each sink
    it walks, with its (``ConcreteModule``, lattice masks) and its candidate
    chains of lattice indices."""
    lattices, walked = [], []
    real_lattice = enumerate_module._concrete_with_submodules
    real_walk = enumerate_module._orbit_representatives

    def lattice(*args):
        lattices.append(real_lattice(*args))
        return lattices[-1]

    def walk(candidates, moves, splits):
        walked.append(candidates)
        return real_walk(candidates, moves, splits)

    monkeypatch.setattr(enumerate_module, "_concrete_with_submodules", lattice)
    monkeypatch.setattr(enumerate_module, "_orbit_representatives", walk)
    return lattices, walked


@pytest.mark.parametrize("base_args", [("poly", 2, 3), ("int", 2, 3)])
def test_linear_orbits_match_the_full_generator_walk(base_args, monkeypatch):
    # the lattice-index walk, with the generators that move a candidate index
    # and the per-index split masks, against the walk of mask chains under
    # every generator of _full_generators with chain_splits, on the same
    # candidates of every sink module; on A4 the chains have three members
    base = chain_base(*base_args)
    lattices, walked = _record_linear_walk(monkeypatch)
    for qname, caps in (("An-linear:3", (3, 4, 5)), ("An-linear:4", (2, 3, 4, 5))):
        lattices.clear()
        walked.clear()
        quiver = builtin_quiver(qname)
        found = [(conc.module.parts, chain, splits) for conc, chain, splits
                 in _linear_orbits(quiver, base, dict(zip(quiver.vertices, caps)))]
        assert len(lattices) == len(walked)
        assert {conc.module.parts for conc, _ in lattices} == \
            {m.parts for m in modules_up_to_length(base, 5) if len(m.parts) <= 4}
        expected = []
        for (conc, subs), candidates in zip(lattices, walked):
            moves = [functools.partial(_move_chain, conc, _permutation(conc, g))
                     for g, _ in _full_generators(conc.module)]
            masks = [tuple(subs[i] for i in chain) for chain in candidates]
            expected += [(conc.module.parts, chain, splits) for chain, splits in
                         _orbit_representatives(masks, moves,
                                                functools.partial(chain_splits, conc))]
        assert found == expected
        # orbits of more than one chain, of decomposables and of indecomposables
        assert 100 < len(found) < sum(map(len, walked))
        assert {splits for *_, splits in found} == {True, False}


def _orbit_partition(items, moves) -> set:
    """The orbits of the group that the moves generate on ``items``, a set
    that each move maps into itself (a finite group: the components of the
    moves' graph), as a set of frozensets."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for move in moves:
        for x in items:
            parent[find(x)] = find(move(x))
    orbits = {}
    for x in items:
        orbits.setdefault(find(x), set()).add(x)
    return {frozenset(orbit) for orbit in orbits.values()}


def _lattice_orbits(conc, subs, candidates, generators, permutations):
    """The orbits of the used lattice indices and those of the candidate
    chains under the group that the pairs (g, g^-1) of ``generators``
    generate; each g acts through its element permutation, kept in the
    dict ``permutations`` by g."""
    position = {m: i for i, m in enumerate(subs)}
    used = sorted(set().union(*candidates))
    images = []
    for g, _ in generators:
        if g not in permutations:
            permutations[g] = _permutation(conc, g)
        perm = permutations[g]
        images.append({i: position[sum(1 << perm[x] for x in conc.mask_elements(subs[i]))]
                       for i in used})
    chain_moves = [lambda chain, get=image.__getitem__: tuple(map(get, chain)) for image in images]
    return (_orbit_partition(used, [image.__getitem__ for image in images]),
            _orbit_partition(candidates, chain_moves))


def _assert_block_and_transvection_orbits_agree(quiver, base, caps, monkeypatch, permutations):
    """On every sink that ``_linear_orbits`` walks, the block-by-block
    generators and the part-by-part transvection generators give the same
    orbits of the used lattice indices and of the candidate chains; returns
    the numbers of generators of the two sets over those sinks."""
    lattices, walked = _record_linear_walk(monkeypatch)
    list(_linear_orbits(quiver, base, dict(zip(quiver.vertices, caps))))
    assert len(lattices) == len(walked)
    counts = [0, 0]
    for (conc, subs), candidates in zip(lattices, walked):
        if not candidates:
            continue
        blocks = automorphism_generators(conc.module)
        transvections = transvection_generators(conc.module)
        assert _lattice_orbits(conc, subs, candidates, blocks, permutations) == \
            _lattice_orbits(conc, subs, candidates, transvections, permutations), conc.module
        counts[0] += len(blocks)
        counts[1] += len(transvections)
    return counts


def test_block_generators_give_the_transvection_orbits_on_linear_a3(monkeypatch):
    # the benchmark's sweep: every sink of An-linear:3 over F_2[x]/(x^3) at
    # caps (3, 4, 5); of its 71 transvection generators 41 remain
    quiver = builtin_quiver("An-linear:3")
    counts = _assert_block_and_transvection_orbits_agree(
        quiver, chain_base("poly", 2, 3), (3, 4, 5), monkeypatch, {})
    assert counts == [41, 71]


@pytest.mark.parametrize("base_args", LINEAR_GRID_BASES,
                         ids=["-".join(map(str, b)) for b in LINEAR_GRID_BASES])
def test_block_generators_give_the_transvection_orbits_on_small_caps(base_args, monkeypatch):
    base, permutations = chain_base(*base_args), {}
    for caps in LINEAR_GRID_CAPS:
        quiver = builtin_quiver(f"An-linear:{len(caps)}")
        _assert_block_and_transvection_orbits_agree(quiver, base, caps, monkeypatch,
                                                    permutations)


def test_generic_verdicts_where_first_members_are_off_diagonal():
    quiver = builtin_quiver("An-linear:2")
    base = chain_base("int", 2, 3)
    cap_dict = dict(zip(quiver.vertices, (3, 3)))
    off_diagonal = 0
    for rep, splits in _orbit_reps(quiver, base, cap_dict, False):
        assert splits == (not rep.is_zero() and not is_indecomposable(rep))
        offsets = {"1": 0, "2": rep.modules["1"].rank}
        supports = [nonzero_entries(rep.maps[a.name]) for a in quiver.arrows]
        size = offsets["2"] + rep.modules["2"].rank
        diagonal = coordinate_components(quiver.arrows, offsets, size, supports) is not None
        off_diagonal += splits and not diagonal
    assert off_diagonal


@pytest.mark.parametrize("index", [2, 6, 10, 11], ids=[ORBIT_IDS[k] for k in (2, 6, 10, 11)])
def test_each_orbit_move_is_an_isomorphism(index):
    # g at v and the identity elsewhere must be natural from a candidate to
    # its image; RepMorphism checks every naturality square
    quiver, base, caps, mono_only = ORBIT_CONFIGS[index]
    cap_dict = dict(zip(quiver.vertices, caps))
    actions = _HomActions(quiver)
    moved = 0
    for modules, spaces, tuples in _generic_candidates(quiver, base, cap_dict, mono_only,
                                                       DEFAULT_ENUM_BUDGET):
        moves = actions.moves(modules, spaces)
        # one move per vertex touched by an arrow and generator of its Aut
        assert [(v, g) for v, g, _ in moves] == [
            (v, g) for v in quiver.vertices for g, _ in automorphism_generators(modules[v])
            if any(v in (a.source, a.target) for a in quiver.arrows)]
        for v, g, move in moves:
            components = {u: g if u == v else identity_morphism(modules[u])
                          for u in quiver.vertices}
            for indices in tuples:
                image = move(indices)
                RepMorphism(_indexed_rep(quiver, base, modules, spaces, indices),
                            _indexed_rep(quiver, base, modules, spaces, image), components)
                moved += image != indices
    assert moved


@pytest.mark.parametrize("quiver,base,caps", GENERIC_CONFIGS, ids=GENERIC_IDS)
def test_filled_hom_permutations_are_bijections(quiver, base, caps, monkeypatch):
    # each permutation the orbit walk filled agrees, entry by entry, with
    # composition by the generator (the oracle lists each map of the space
    # once), and completed it permutes the map numbers of its whole space
    made = []

    class Recording(_HomActions):
        def __init__(self, quiver):
            super().__init__(quiver)
            made.append(self)

    monkeypatch.setattr(enumerate_module, "_HomActions", Recording)
    list(_generic_orbit_classes(quiver, base, dict(zip(quiver.vertices, caps)), True,
                                DEFAULT_ENUM_BUDGET))
    (actions,) = made
    # the caps of zigzag-1111 and zigzag-2121 leave only modules whose Aut is trivial
    assert bool(actions.perms) == any(actions.generators.values())
    for (source, target, into_v, n), perm in actions.perms.items():
        space = hom_space(serial_module(base, source), serial_module(base, target))
        size = space.size
        g, g_inv = automorphism_generators(space.target if into_v else space.source)[n]
        oracle = composition_perm(space, into_v, g if into_v else g_inv)
        assert perm and all(x == oracle[k] for k, x in perm.items())
        assert all(0 <= k < size and 0 <= x < size for k, x in perm.items())
        assert sorted(perm[k] for k in range(size)) == list(range(size))


def _stable_s5_walk(cap):
    """``_generic_orbit_classes`` over the stable quotient of F_2[x]/(x^5) on
    A2 at caps (cap, cap): the objects of rep(A2, the stable category), whose
    classes Mimo takes to the non-injective classes of S(5)."""
    quiver = builtin_quiver("An-linear:2")
    base = stable_base(chain_base("poly", 2, 5))
    return _orbit_reps(quiver, base, dict(zip(quiver.vertices, (cap, cap))), False)


def _unsplit(found):
    return sum(not splits and not rep.is_zero() for rep, splits in found)


def test_stable_s5_walk_matches_the_composition_walk(monkeypatch):
    found = _stable_s5_walk(3)
    assert _unsplit(found) == 19
    monkeypatch.setattr(_HomActions, "_perm", staticmethod(composition_perm))
    assert _stable_s5_walk(3) == found


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("MONOCAT_FULL") != "1", reason="caps (4,4); set MONOCAT_FULL=1")
def test_stable_s5_walk_at_caps_4():
    assert _unsplit(_stable_s5_walk(4)) == 33


def _orbit(start, moves):
    orbit, frontier = [start], [start]
    while frontier:
        current = frontier.pop()
        for move in moves:
            moved = move(current)
            if moved not in orbit:
                orbit.append(moved)
                frontier.append(moved)
    return orbit


def _index_walk(rep):
    """(moves, splits, start) of the index walk on rep's vertex modules, as
    ``_generic_orbit_classes`` makes them: start indexes rep's own maps."""
    quiver = rep.quiver
    spaces = [hom_space(rep.modules[a.source], rep.modules[a.target]) for a in quiver.arrows]
    moves = [move for _, _, move in _HomActions(quiver).moves(rep.modules, spaces)]
    ranks = [rep.modules[v].rank for v in quiver.vertices]
    offsets = dict(zip(quiver.vertices, itertools.accumulate([0] + ranks)))
    size = sum(ranks)

    def splits(indices):
        supports = [space.support(k) for space, k in zip(spaces, indices)]
        return coordinate_components(quiver.arrows, offsets, size, supports) is not None

    return moves, splits, tuple(list(space).index(rep.maps[a.name])
                                for space, a in zip(spaces, quiver.arrows))


def test_off_diagonal_direct_sum_is_reported_split():
    # (M1 -pi-> M2) (+) (M2 -id-> M2) over Z/4 is block diagonal; some
    # member of its orbit is not, and the walk started there still splits
    quiver = builtin_quiver("An-linear:2")
    base = chain_base("int", 2, 2)
    m1, m2 = serial_module(base, ["M1"]), serial_module(base, ["M2"])
    socle = Representation(quiver, base, {"1": m1, "2": m2}, {"a1": morphism(m1, m2, [[1]])})
    injective = Representation(quiver, base, {"1": m2, "2": m2},
                               {"a1": identity_morphism(m2)})
    assert is_indecomposable(socle) and is_indecomposable(injective)
    total = rep_direct_sum(socle, injective)
    moves, splits, diagonal = _index_walk(total)
    assert splits(diagonal)
    orbit = _orbit(diagonal, moves)
    off = [indices for indices in orbit if not splits(indices)]
    assert off
    for start in off:
        candidates = [start] + [indices for indices in orbit if indices != start]
        assert list(_orbit_representatives(candidates, moves, splits)) == [(start, True)]
    # an indecomposable's orbit never splits
    moves, splits, alone = _index_walk(socle)
    assert list(_orbit_representatives(_orbit(alone, moves), moves, splits)) == [(alone, False)]


def test_off_diagonal_submodule_chain_is_reported_split():
    # S = 0 (+) M1 in V = M2 (+) M1 over F_2[x]/(x^2) is kept by the
    # projections; its image S' = <(pi, 1)> under a transvection is not
    conc = ConcreteModule(serial_module(chain_base("poly", 2, 2), ["M2", "M1"]))
    ring = conc.ring
    diagonal = submodule_mask(conc.module, [(ring.zero, ring.one)])
    tilted = submodule_mask(conc.module, [(ring.pi, ring.one)])
    assert {diagonal, tilted} <= set(conc.submodules())
    assert chain_splits(conc, (diagonal,))
    assert not chain_splits(conc, (tilted,))
    moves = [functools.partial(_move_chain, conc, perm) for perm in conc.automorphism_generators()]
    orbit = _orbit((tilted,), moves)
    assert (diagonal,) in orbit
    candidates = [(tilted,)] + [c for c in orbit if c != (tilted,)]
    splits = functools.partial(chain_splits, conc)
    assert list(_orbit_representatives(candidates, moves, splits)) == [((tilted,), True)]

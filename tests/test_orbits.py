"""The orbit classification of linear sweeps: the Aut(V) generators of
``ConcreteModule`` and the bounded sweep against the isomorphism-filtered
generic search; the generic search's per-vertex mono pruning against the
filtered product of all arrow maps."""

import itertools

import pytest

from monocat.base import chain_base, rad2nak_base
from monocat.concrete import ConcreteModule
from monocat.decompose import is_indecomposable
from monocat.enumerate import (
    DEFAULT_ENUM_BUDGET,
    IsoClassifier,
    _generic_candidates,
    _linear_mono_candidates,
    enumerate_bounded,
    modules_up_to_length,
)
from monocat.exact import is_iso
from monocat.quiver import Quiver, builtin_quiver
from monocat.rep import Representation, is_iso_reps, is_mono
from monocat.serialmod import hom_space, serial_module


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


@pytest.mark.parametrize("arith,p,n,parts", [
    ("poly", 2, 2, ["M1", "M1"]),
    ("poly", 2, 2, ["M2", "M1"]),
    ("int", 2, 3, ["M3", "M1"]),
])
def test_automorphism_generators_generate_aut(arith, p, n, parts):
    conc = ConcreteModule(serial_module(chain_base(arith, p, n), parts))
    gens = conc.automorphism_generators()
    conc.build_tables()
    add, scalar = conc._add_table, conc._scalar_table
    assert gens
    for g in gens:
        assert sorted(g) == list(range(conc.size))
        for i in range(conc.size):
            for j in range(conc.size):
                assert g[add[i][j]] == add[g[i]][g[j]]
            for table in scalar.values():
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
    for rep in _generic_candidates(quiver, base, cap_dict, True, DEFAULT_ENUM_BUDGET):
        classifier.add(rep)
    oracle = classifier.classes()

    # every orbit representative is its own class: it matches exactly one
    # oracle class, and no two representatives match the same one
    hits = []
    for rep in _linear_mono_candidates(quiver, base, cap_dict):
        matches = [k for k, s in enumerate(oracle) if is_iso_reps(rep, s)]
        assert len(matches) == 1
        hits.append(matches[0])
    assert len(set(hits)) == len(hits)

    # the indecomposable classes agree, one to one
    expected = [s for s in oracle if not s.is_zero() and is_indecomposable(s)]
    found = [r for r, _ in enumerate_bounded(quiver, base, caps, mono_only=True).classes]
    assert len(found) == len(expected)
    remaining = list(expected)
    for r in found:
        k = next(k for k, s in enumerate(remaining) if is_iso_reps(r, s))
        remaining.pop(k)
    assert not remaining


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
]
GENERIC_IDS = ["zigzag-1111", "zigzag-2121", "kronecker-22", "d4-1111", "interleaved",
               "rad2nak-a2"]


@pytest.mark.parametrize("quiver,base,caps", GENERIC_CONFIGS, ids=GENERIC_IDS)
def test_generic_mono_candidates_match_filtered_product(quiver, base, caps):
    cap_dict = dict(zip(quiver.vertices, caps))
    found = list(_generic_candidates(quiver, base, cap_dict, True, DEFAULT_ENUM_BUDGET))
    expected = _filtered_product(quiver, base, cap_dict, mono_only=True)
    assert found
    assert found == expected
    assert all(is_mono(rep) for rep in found)


@pytest.mark.parametrize("quiver,base,caps", [GENERIC_CONFIGS[0], GENERIC_CONFIGS[4]],
                         ids=[GENERIC_IDS[0], GENERIC_IDS[4]])
def test_generic_candidates_without_mono_is_the_full_product(quiver, base, caps):
    cap_dict = dict(zip(quiver.vertices, caps))
    found = list(_generic_candidates(quiver, base, cap_dict, False, DEFAULT_ENUM_BUDGET))
    expected = _filtered_product(quiver, base, cap_dict, mono_only=False)
    assert found == expected
    assert not all(is_mono(rep) for rep in found)

"""The orbit classification of linear sweeps: the Aut(V) generators of
``ConcreteModule`` and the bounded sweep against the isomorphism-filtered
generic search."""

import pytest

from monocat.base import chain_base
from monocat.concrete import ConcreteModule
from monocat.decompose import is_indecomposable
from monocat.enumerate import (
    DEFAULT_ENUM_BUDGET,
    IsoClassifier,
    _generic_candidates,
    _linear_mono_candidates,
    enumerate_bounded,
)
from monocat.exact import is_iso
from monocat.quiver import builtin_quiver
from monocat.rep import is_iso_reps
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

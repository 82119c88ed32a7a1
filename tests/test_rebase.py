"""The change of base ``rep.rebase``: the stable reduction, its section and
the relabelling of ``transfer`` checked against their entrywise definitions."""

import random

import pytest

from monocat.base import chain_base, rad2nak_base, stable_base
from monocat.mimo import (
    injective_rep_recognize,
    mimo,
    stable_lift,
    stable_reduce,
    stable_reduce_morphism,
    transfer,
)
from monocat.quiver import builtin_quiver
from monocat.rep import hom_reps, random_representation, rebase

BASES = [chain_base(arith, 2, n) for arith in ("int", "poly") for n in (2, 3)] + [
    rad2nak_base(2, 2), rad2nak_base(3, 2)]
QUIVERS = [builtin_quiver(name) for name in ("An-linear:3", "A4-zigzag")]


def _cases(base, count=12):
    rng = random.Random(f"{base.descriptor()}")
    for q in QUIVERS:
        for _ in range(count):
            yield rng, random_representation(base, q, rng, max_parts=3)


def _kept(m):
    return [i for i, p in enumerate(m.parts) if not m.base.is_injective(p)]


def _digits(f):
    return [[e.digits for e in row] for row in f.entries]


@pytest.mark.parametrize("base", BASES, ids=lambda b: str(b.descriptor()))
def test_stable_reduce_is_the_entrywise_quotient(base):
    st = stable_base(base)
    for rng, r in _cases(base):
        s = stable_reduce(r)
        assert s.base is st
        keep = {v: _kept(m) for v, m in r.modules.items()}
        for v, m in r.modules.items():
            assert s.modules[v].parts == tuple(m.parts[i] for i in keep[v])
        for a in r.quiver.arrows:
            f, g = r.maps[a.name], s.maps[a.name]
            assert g.entries == tuple(
                tuple(st.coeff(f.source.parts[j], f.target.parts[i], f.entries[i][j])
                      for j in keep[a.source])
                for i in keep[a.target])
        # the morphism action reduces the components entry by entry too
        r2 = random_representation(base, r.quiver, rng, max_parts=3)
        phi = hom_reps(r, r2).random(rng)
        keep2 = {v: _kept(m) for v, m in r2.modules.items()}
        red = stable_reduce_morphism(phi, s, stable_reduce(r2))
        for v, f in phi.components.items():
            assert red.components[v].entries == tuple(
                tuple(st.coeff(f.source.parts[j], f.target.parts[i], f.entries[i][j])
                      for j in keep[v])
                for i in keep2[v])


@pytest.mark.parametrize("base", BASES, ids=lambda b: str(b.descriptor()))
def test_section_and_identity(base):
    for _, r in _cases(base):
        assert rebase(r, r.base) == r
        s = stable_reduce(r)
        lifted = stable_lift(s)
        assert lifted.base is base
        # the section is of.coeff: digits kept, truncated to the hom length in base
        for a in s.quiver.arrows:
            f, g = s.maps[a.name], lifted.maps[a.name]
            assert g.entries == tuple(
                tuple(base.coeff(f.source.parts[j], f.target.parts[i], e) for j, e in enumerate(row))
                for i, row in enumerate(f.entries))
        assert stable_reduce(lifted) == s


@pytest.mark.parametrize("n", [2, 3])
def test_transfer_keeps_every_digit(n):
    pairs = [(chain_base("int", 2, n), chain_base("poly", 2, n)),
             (chain_base("poly", 2, n), chain_base("int", 2, n))]
    checked = 0
    for source, target in pairs:
        for _, r in _cases(source, 6):
            m = mimo(r)[0]
            if injective_rep_recognize(m) is not None:
                continue
            s, t = stable_reduce(m), stable_reduce(transfer(m, target))
            assert t.base is stable_base(target)
            assert all(t.modules[v].parts == x.parts for v, x in s.modules.items())
            assert all(_digits(t.maps[a]) == _digits(s.maps[a]) for a in s.maps)
            checked += 1
    assert checked

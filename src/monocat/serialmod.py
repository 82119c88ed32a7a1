"""Finitely generated modules over a serial base, in normal form, and their
morphisms as block matrices of hom coefficients.

A module is an ordered multiset of indecomposable labels, always kept sorted
(descending length, then label index); constructors re-sort and all maps
built from blocks go through explicit injections/projections so the sorting
permutation never leaks.  A morphism stores one canonical coefficient per
(target part, source part) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .base import SerialBase


@dataclass(frozen=True)
class SerialModule:
    base: SerialBase
    parts: tuple

    def length(self) -> int:
        return sum(self.base.length(p) for p in self.parts)

    def partition(self) -> tuple:
        """Multiset of part lengths, descending (partitions over chain rings)."""
        return tuple(sorted((self.base.length(p) for p in self.parts), reverse=True))

    def is_zero(self) -> bool:
        return not self.parts

    @property
    def rank(self) -> int:
        return len(self.parts)

    def __repr__(self):
        return "0" if not self.parts else "+".join(self.parts)


def serial_module(base: SerialBase, parts: Iterable[str]) -> SerialModule:
    parts = tuple(parts)
    for p in parts:
        base.check_label(p)
    return SerialModule(base, tuple(sorted(parts, key=base.label_sort_key)))


def zero_module(base: SerialBase) -> SerialModule:
    return SerialModule(base, ())


@dataclass(frozen=True)
class SerialMorphism:
    source: SerialModule
    target: SerialModule
    entries: tuple  # rows = target parts, cols = source parts

    @property
    def base(self) -> SerialBase:
        return self.source.base

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __repr__(self):
        rows = ["[" + " ".join(repr(e) for e in row) + "]" for row in self.entries]
        return f"({self.source} -> {self.target}: {'; '.join(rows)})"


def morphism(source: SerialModule, target: SerialModule, entries: Sequence[Sequence]) -> SerialMorphism:
    if source.base != target.base:
        raise ValueError("base mismatch between source and target")
    base = source.base
    if len(entries) != target.rank or any(len(r) != source.rank for r in entries):
        raise ValueError(
            f"shape mismatch: expected {target.rank}x{source.rank}, "
            f"got {len(entries)}x{[len(r) for r in entries]}"
        )
    rows = tuple(
        tuple(base.coeff(source.parts[j], target.parts[i], entries[i][j]) for j in range(source.rank))
        for i in range(target.rank)
    )
    return SerialMorphism(source, target, rows)


def zero_morphism(source: SerialModule, target: SerialModule) -> SerialMorphism:
    z = source.base.zero_coeff()
    return SerialMorphism(source, target, tuple(tuple(z for _ in source.parts) for _ in target.parts))


def identity_morphism(m: SerialModule) -> SerialMorphism:
    one, z = m.base.one_coeff(), m.base.zero_coeff()
    return SerialMorphism(
        m, m, tuple(tuple(one if i == j else z for j in range(m.rank)) for i in range(m.rank))
    )


def mor_add(f: SerialMorphism, g: SerialMorphism) -> SerialMorphism:
    if f.source != g.source or f.target != g.target:
        raise ValueError("shape mismatch in morphism addition")
    base = f.base
    rows = tuple(
        tuple(
            base.coeff(f.source.parts[j], f.target.parts[i], f.entries[i][j] + g.entries[i][j])
            for j in range(f.source.rank)
        )
        for i in range(f.target.rank)
    )
    return SerialMorphism(f.source, f.target, rows)


def mor_compose(g: SerialMorphism, f: SerialMorphism) -> SerialMorphism:
    """Matrix product g o f under the base's hom calculus."""
    if f.target != g.source:
        raise ValueError(f"shape mismatch: cannot compose {g.source} after {f.target}")
    base = f.base
    a, b, c = f.source.parts, f.target.parts, g.target.parts
    rows = []
    for k in range(len(c)):
        row = []
        for j in range(len(a)):
            acc = base.ring.zero
            for i in range(len(b)):
                u, v = f.entries[i][j], g.entries[k][i]
                if u.is_zero() or v.is_zero():
                    continue
                acc = acc + base.compose_coeff(a[j], b[i], c[k], v, u)
            row.append(base.coeff(a[j], c[k], acc))
        rows.append(tuple(row))
    return SerialMorphism(f.source, g.target, tuple(rows))


def mor_equal(f: SerialMorphism, g: SerialMorphism) -> bool:
    return f.source == g.source and f.target == g.target and f.entries == g.entries


# -- direct sums ---------------------------------------------------------------


def direct_sum(base: SerialBase, summands: Sequence[SerialModule]):
    """Direct sum with its canonical injections and projections.

    Parts are re-sorted into normal form; the returned injections/projections
    absorb the sorting permutation.
    """
    tagged = []
    for t, m in enumerate(summands):
        if m.base != base:
            raise ValueError("base mismatch among summands")
        for local, p in enumerate(m.parts):
            tagged.append((p, t, local))
    order = sorted(range(len(tagged)), key=lambda k: (base.label_sort_key(tagged[k][0]), k))
    total = SerialModule(base, tuple(tagged[k][0] for k in order))
    position = {(tagged[k][1], tagged[k][2]): pos for pos, k in enumerate(order)}

    one, z = base.one_coeff(), base.zero_coeff()
    injections, projections = [], []
    for t, m in enumerate(summands):
        inj = [[z] * m.rank for _ in range(total.rank)]
        for local in range(m.rank):
            inj[position[(t, local)]][local] = one
        injections.append(SerialMorphism(m, total, tuple(tuple(r) for r in inj)))
        proj = [[z] * total.rank for _ in range(m.rank)]
        for local in range(m.rank):
            proj[local][position[(t, local)]] = one
        projections.append(SerialMorphism(total, m, tuple(tuple(r) for r in proj)))
    return total, injections, projections


def mor_direct_sum(base: SerialBase, morphisms: Sequence[SerialMorphism]) -> SerialMorphism:
    """Block-diagonal sum f1 (+) f2 (+) ... on the sorted direct sums."""
    src, _, src_proj = direct_sum(base, [f.source for f in morphisms])
    tgt, tgt_inj, _ = direct_sum(base, [f.target for f in morphisms])
    total = zero_morphism(src, tgt)
    for f, p, i in zip(morphisms, src_proj, tgt_inj):
        total = mor_add(total, mor_compose(i, mor_compose(f, p)))
    return total


def assemble(base: SerialBase, sources: Sequence[SerialModule], targets: Sequence[SerialModule], blocks: dict):
    """Morphism (+)sources -> (+)targets from a sparse dict (t_idx, s_idx) -> block."""
    src, _, src_proj = direct_sum(base, sources)
    tgt, tgt_inj, _ = direct_sum(base, targets)
    total = zero_morphism(src, tgt)
    for (ti, si), f in blocks.items():
        if f.source != sources[si] or f.target != targets[ti]:
            raise ValueError(f"block ({ti},{si}) has wrong shape")
        total = mor_add(total, mor_compose(tgt_inj[ti], mor_compose(f, src_proj[si])))
    return total, src, tgt


# -- concrete elements (used by oracles and exhaustive checks) ------------------


def module_elements(m: SerialModule) -> Iterator[tuple]:
    """All elements of a chain-backed module as tuples of truncated ring values."""
    ring = m.base.ring

    def rec(i, prefix):
        if i == m.rank:
            yield tuple(prefix)
            return
        ln = m.base.length(m.parts[i])
        for digits in _digit_tuples(ring.p, ln):
            prefix.append(ring.elem(digits + (0,) * (ring.n - ln)))
            yield from rec(i + 1, prefix)
            prefix.pop()

    yield from rec(0, [])


def _digit_tuples(p: int, ln: int):
    if ln == 0:
        yield ()
        return
    for rest in _digit_tuples(p, ln - 1):
        for d in range(p):
            yield (d,) + rest


def apply_morphism(f: SerialMorphism, vector: tuple) -> tuple:
    """Evaluate a chain-backed morphism on a concrete element of its source."""
    base = f.base
    out = []
    for i, tp in enumerate(f.target.parts):
        b = base.length(tp)
        acc = base.ring.zero
        for j, sp in enumerate(f.source.parts):
            a = base.length(sp)
            c = f.entries[i][j]
            if c.is_zero():
                continue
            acc = acc + (c * vector[j]).shift_up(max(0, b - a))
        out.append(acc.truncate(b))
    return tuple(out)


def hom_moduli(m: SerialModule, n: SerialModule):
    """Per-entry lengths of the cyclic coefficient modules of Hom(m, n)."""
    base = m.base
    return [
        [base.hom_length(m.parts[j], n.parts[i]) for j in range(m.rank)]
        for i in range(n.rank)
    ]


class HomSpace:
    """Finite description of Hom(M, N): entrywise product of cyclic modules."""

    def __init__(self, source: SerialModule, target: SerialModule):
        if source.base != target.base:
            raise ValueError("base mismatch")
        self.source = source
        self.target = target
        self.base = source.base
        self.moduli = hom_moduli(source, target)

    @property
    def size(self) -> int:
        p = self.base.ring.p
        return p ** sum(sum(row) for row in self.moduli)

    def __iter__(self) -> Iterator[SerialMorphism]:
        slots = [
            (i, j, self.moduli[i][j])
            for i in range(self.target.rank)
            for j in range(self.source.rank)
            if self.moduli[i][j] > 0
        ]
        z = self.base.ring.zero

        def rec(idx, rows):
            if idx == len(slots):
                yield SerialMorphism(self.source, self.target, tuple(tuple(r) for r in rows))
                return
            i, j, ln = slots[idx]
            for digits in _digit_tuples(self.base.ring.p, ln):
                rows[i][j] = self.base.ring.elem(digits + (0,) * (self.base.ring.n - ln))
                yield from rec(idx + 1, rows)
            rows[i][j] = z

        start = [[z] * self.source.rank for _ in range(self.target.rank)]
        yield from rec(0, start)

    def random(self, rng) -> SerialMorphism:
        rows = []
        for i in range(self.target.rank):
            row = []
            for j in range(self.source.rank):
                ln = self.moduli[i][j]
                digits = tuple(rng.randrange(self.base.ring.p) if k < ln else 0 for k in range(self.base.ring.n))
                row.append(self.base.ring.elem(digits))
            rows.append(tuple(row))
        return SerialMorphism(self.source, self.target, tuple(rows))


def hom_space(m: SerialModule, n: SerialModule) -> HomSpace:
    return HomSpace(m, n)


# -- socle and injective envelope -----------------------------------------------


def socle(m: SerialModule) -> SerialModule:
    return serial_module(m.base, (m.base.socle_label(p) for p in m.parts))


def socle_inclusion(m: SerialModule) -> SerialMorphism:
    """The canonical monomorphism socle(M) -> M."""
    base = m.base
    socs = [serial_module(base, (base.socle_label(p),)) for p in m.parts]
    parts = [serial_module(base, (p,)) for p in m.parts]
    blocks = {}
    for i, p in enumerate(m.parts):
        blocks[(i, i)] = morphism(socs[i], parts[i], [[base.one_coeff()]])
    f, src, tgt = assemble(base, socs, parts, blocks)
    assert tgt == m and src == socle(m)
    return f


def injective_envelope(m: SerialModule):
    """Injective envelope (J, j) with j the canonical left-minimal inclusion."""
    base = m.base
    if not base.is_selfinjective:
        raise ValueError(f"base {base.descriptor()} has no injective envelopes")
    envs = [serial_module(base, (base.envelope_label(p),)) for p in m.parts]
    parts = [serial_module(base, (p,)) for p in m.parts]
    blocks = {}
    for i in range(m.rank):
        blocks[(i, i)] = morphism(parts[i], envs[i], [[base.one_coeff()]])
    j, src, tgt = assemble(base, parts, envs, blocks)
    assert src == m
    return tgt, j

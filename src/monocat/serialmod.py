"""Finitely generated modules over a serial base, in normal form, and their
morphisms as block matrices of hom coefficients.

A module is an ordered multiset of indecomposable labels, always kept sorted
(descending length, then label index); constructors re-sort.  A direct sum
records where each summand's parts land in the sorted sum, and maps built
from blocks copy each block's entries to those positions, so the sorting
permutation never leaks.  A morphism stores one canonical coefficient per
(target part, source part) pair; a copied entry keeps its pair of labels and
so stays canonical.

Modules are interned slotted values: one object per (base, parts), so
module equality and hashing are identity.  Morphisms are slotted values that
compare by entries (modules by identity) and compute their hash once, on
first use.  Neither accepts attribute assignment.  So pure operations on
them are memoized by value with ``memo``: ``identity_morphism``,
``mor_compose`` and ``direct_sum`` here, ``kernel``, ``cokernel``,
``image``, ``solve_right`` and ``solve_left`` in ``exact``.
``rep.Representation`` hashes by value too, keeping the hash once built, and
the same ``memo`` caches ``mimo.mimo``, ``mimo.transfer``,
``decompose.coordinate_blocks`` and ``decompose._residue_witness``.
This rests on one invariant: their arguments and results are immutable
values, and nothing mutates a returned module, map or position tuple, nor the
``modules``, ``maps`` or ``components`` of a representation or morphism once
built.  A call that raises is not cached and raises again.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .base import SerialBase

# Entries kept by each memoized operation: above the distinct calls one pass
# of the benchmark's approximation battery makes to any of them (at most 280,
# to _direct_sum, over seeds 1 and 7 and input sets 0-3; mimo gets at most
# 255, coordinate_blocks 213, mor_compose 169, transfer 105, kernel 105,
# solve_right 96, _residue_witness 88, cokernel 60, image 60 and
# identity_morphism 45, and solve_left none).
MEMO_SIZE = 2048
memo = lru_cache(maxsize=MEMO_SIZE)


def _immutable(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


class SerialModule:
    """A module in normal form: ``parts`` sorted by ``base.label_sort_key``.

    Interned: there is one object per (base, parts), so equality and hashing
    are the object defaults (identity).  Bases are interned too, and the table
    holds one entry per module value built, which the finitely many labels
    of a base and the ranks a computation reaches keep small.  Built only in
    normal form (``serial_module`` sorts; other constructors copy parts in
    order)."""

    __slots__ = ("base", "parts", "rank")

    def __new__(cls, base: SerialBase, parts: tuple):
        m = _MODULES.get((base, parts))
        if m is None:
            m = object.__new__(cls)
            _set_base(m, base)
            _set_parts(m, parts)
            _set_rank(m, len(parts))
            _MODULES[(base, parts)] = m
        return m

    __setattr__ = __delattr__ = _immutable

    def length(self) -> int:
        return sum(self.base.length(p) for p in self.parts)

    def partition(self) -> tuple:
        """Multiset of part lengths, descending (partitions over chain rings)."""
        return tuple(sorted((self.base.length(p) for p in self.parts), reverse=True))

    def is_zero(self) -> bool:
        return not self.parts

    def __repr__(self):
        return "0" if not self.parts else "+".join(self.parts)


_MODULES: dict = {}
_set_base = SerialModule.base.__set__
_set_parts = SerialModule.parts.__set__
_set_rank = SerialModule.rank.__set__


def serial_module(base: SerialBase, parts: Iterable[str]) -> SerialModule:
    parts = tuple(parts)
    for p in parts:
        base.check_label(p)
    return SerialModule(base, tuple(sorted(parts, key=base.label_sort_key)))


def zero_module(base: SerialBase) -> SerialModule:
    return SerialModule(base, ())


class SerialMorphism:
    """A map source -> target by its entries (rows = target parts, cols =
    source parts).  Compares by value, identity first, and computes its hash
    once, on first use.  Not interned: a long sweep builds maps without
    bound."""

    __slots__ = ("source", "target", "entries", "_hash")

    def __init__(self, source: SerialModule, target: SerialModule, entries: tuple):
        _set_source(self, source)
        _set_target(self, target)
        _set_entries(self, entries)

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not SerialMorphism:
            return NotImplemented
        return (self.source is other.source and self.target is other.target
                and self.entries == other.entries)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.source, self.target, self.entries))
            _set_hash(self, h)
            return h

    @property
    def base(self) -> SerialBase:
        return self.source.base

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __repr__(self):
        rows = ["[" + " ".join(repr(e) for e in row) + "]" for row in self.entries]
        return f"({self.source} -> {self.target}: {'; '.join(rows)})"


_set_source = SerialMorphism.source.__set__
_set_target = SerialMorphism.target.__set__
_set_entries = SerialMorphism.entries.__set__
_set_hash = SerialMorphism._hash.__set__


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


@memo
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


@memo
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
    return f == g


# -- direct sums ---------------------------------------------------------------


def direct_sum(base: SerialBase, summands: Sequence[SerialModule]):
    """(total, positions): the direct sum in normal form, and for each summand
    t the increasing indices in ``total.parts`` of its parts, as a tuple of
    tuples."""
    return _direct_sum(base, tuple(summands))


@memo
def _direct_sum(base: SerialBase, summands: tuple):
    for m in summands:
        if m.base != base:
            raise ValueError("base mismatch among summands")
    tagged = []
    for t, m in enumerate(summands):
        for local, p in enumerate(m.parts):
            tagged.append((p, t, local))
    order = sorted(range(len(tagged)), key=lambda k: (base.label_sort_key(tagged[k][0]), k))
    total = SerialModule(base, tuple(tagged[k][0] for k in order))
    positions = [[0] * m.rank for m in summands]
    for pos, k in enumerate(order):
        _, t, local = tagged[k]
        positions[t][local] = pos
    return total, tuple(map(tuple, positions))


def assemble(base: SerialBase, sources: Sequence[SerialModule], targets: Sequence[SerialModule], blocks: dict):
    """(f, source positions, target positions): the morphism (+)sources ->
    (+)targets whose block (t_idx, s_idx) is ``blocks[(t_idx, s_idx)]`` and
    whose other entries are zero."""
    src, src_pos = direct_sum(base, sources)
    tgt, tgt_pos = direct_sum(base, targets)
    z = base.zero_coeff()
    rows = [[z] * src.rank for _ in range(tgt.rank)]
    for (ti, si), f in blocks.items():
        if f.source != sources[si] or f.target != targets[ti]:
            raise ValueError(f"block ({ti},{si}) has wrong shape")
        for i, row in zip(tgt_pos[ti], f.entries):
            for j, e in zip(src_pos[si], row):
                rows[i][j] = e
    return SerialMorphism(src, tgt, tuple(tuple(r) for r in rows)), src_pos, tgt_pos


def mor_block(f: SerialMorphism, rows: Sequence[int], cols: Sequence[int]) -> SerialMorphism:
    """The block of f on the target parts at ``rows`` and the source parts at
    ``cols`` (increasing positions), as a map between those parts."""
    source = SerialModule(f.base, tuple(f.source.parts[j] for j in cols))
    target = SerialModule(f.base, tuple(f.target.parts[i] for i in rows))
    return SerialMorphism(source, target, tuple(tuple(f.entries[i][j] for j in cols) for i in rows))


def rebase_map(f: SerialMorphism, source: SerialModule, target: SerialModule,
               rows: Sequence[int], cols: Sequence[int]) -> SerialMorphism:
    """The block of f on ``rows`` x ``cols`` as a map source -> target over
    another base: each coefficient's digits are copied (its number read in
    the new coefficient ring) and ``morphism`` canonicalises the entry for
    the new hom length.  Over the same base ``mor_block`` is the copy."""
    elem = target.base.ring.from_int
    return morphism(source, target, [[elem(f.entries[i][j].num) for j in cols] for i in rows])


class HomSpace:
    """Finite description of Hom(M, N): entrywise product of cyclic modules.

    Its maps are numbered 0 .. size - 1 in the order of ``__iter__``; the
    number of a map is a mixed-radix number whose digit at entry (i, j) is
    that entry's ring number, of radix ``radices[i][j]`` and weight
    ``weights[i][j]``."""

    def __init__(self, source: SerialModule, target: SerialModule):
        if source.base != target.base:
            raise ValueError("base mismatch")
        self.source = source
        self.target = target
        self.base = source.base
        p = self.base.ring.p
        # per-entry lengths of the cyclic coefficient modules
        self.moduli = [[self.base.hom_length(a, b) for a in source.parts] for b in target.parts]
        self.radices = [[p ** ln for ln in row] for row in self.moduli]
        self.weights = [[0] * source.rank for _ in target.parts]
        size = 1
        for i in reversed(range(target.rank)):
            for j in reversed(range(source.rank)):
                self.weights[i][j] = size
                size *= self.radices[i][j]
        self.size = size

    def __iter__(self) -> Iterator[SerialMorphism]:
        """Every map once, in mixed-radix order of the entries' numbers:
        row-major, the last entry fastest, each entry over the ring elements
        numbered below p^length."""
        return map(self.__getitem__, range(self.size))

    def __getitem__(self, k: int) -> SerialMorphism:
        """The map numbered k, the k-th of ``__iter__``."""
        if not 0 <= k < self.size:
            raise IndexError(f"map number {k} out of range for a hom space of size {self.size}")
        elems = self.base.ring.tables.elems
        return SerialMorphism(self.source, self.target, tuple([
            tuple([elems[k // w % q] for w, q in zip(ws, qs)])
            for ws, qs in zip(self.weights, self.radices)]))

    def support(self, k: int) -> tuple:
        """The positions (i, j) of the nonzero entries of the map numbered k."""
        return tuple([(i, j) for i, (ws, qs) in enumerate(zip(self.weights, self.radices))
                      for j, (w, q) in enumerate(zip(ws, qs)) if k // w % q])

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


# -- automorphisms ----------------------------------------------------------------


def _unit_generators(base: SerialBase, a: str) -> list:
    """A greedy generating set of the units of End(a) = R/pi^L, L =
    hom_length(a, a): each unit, in number order, outside the subgroup H of
    the ones before it; the group is abelian, so <H, u> is the union of the u^k H."""
    length = base.hom_length(a, a)
    gens, group = [], {base.one_coeff()}
    for u in base.hom_elements(a, a):
        if u.digits[0] and u not in group:
            gens.append(u)
            grown, power = set(group), u
            while power not in group:
                grown.update((power * h).truncate(length) for h in group)
                power = (power * u).truncate(length)
            group = grown
    return gens


def automorphism_generators(m: SerialModule):
    """Pairs (g, g^-1) of automorphisms of M = (+) P_i that generate Aut(M),
    listed block by block.  Normal form makes equal parts contiguous: a
    block is P^m at the positions f .. f+m-1.  Write s_i(u) for part P_i
    scaled by u, and t_ij(c) = 1 + c g_{i<-j} for i != j, g_{i<-j} the
    canonical generator placed at (i, j).  For each block the list holds:

    * s_f(u) for each u of ``_unit_generators(P)``, on the block's first
      part only; inverse s_f(u^-1);
    * for m = 2, t_{f,f+1}(1) and t_{f+1,f}(1); inverses t(-1);
    * for m >= 3, t_{f,f+1}(1), and the cycle z of the block, which sends
      part f+k onto part f+k+1 (indices of the block mod m); inverse the
      reverse cycle;
    * t_{f,f'}(1) for each other block P'^{m'}, at f', with
      Hom(P', P) != 0; inverse t_{f,f'}(-1).

    The full set: s_i(u) on every part for the ``_unit_generators(P_i)``
    and t_ij(1) for each ordered pair i != j with Hom(P_j, P_i) != 0.
    Lemmas.  (1) t_ij(c) t_ij(c') = t_ij(c + c'): the matrix unit at (i, j)
    squares to zero.  (2) Every t_ij(c) is generated by the full set.  Over
    Z/p^n, pi = p and t_ij(pi^e) = t_ij(1)^(p^e) by (1).  Over
    F_p[x]/(x^n), s_i(u) t_ij(c) s_i(u)^-1 = t_ij(uc), so by (1) the
    commutator of s_i(1+x) and t_ij(x^(e-1)) is t_ij(x^e), and 1 + x is a
    unit of End(P_i) other than 1 as e < hom_length(P_j, P_i) <=
    hom_length(P_i, P_i).  Any c is a sum of digit multiples of the pi^e.
    (3) A permutation of equal parts is generated by the full set, which
    lists none: the swap of P_i = P_j is s_j(-1) t_ij(1) t_ji(-1) t_ij(1).
    The list above names the cycle z of each block of three or more, so
    that one transvection inside the block stands for all of them.  Every
    scaling is generated, since the ``_unit_generators`` generate the unit
    group.

    The full set generates Aut(M) because every End(P_i) is local.  Let phi
    be an automorphism with inverse psi.  Then 1 = sum_i psi_{1i} phi_{i1}
    in the local ring End(P_1), so some psi_{1i} phi_{i1} is a unit;
    phi_{i1} is then a split monomorphism into the indecomposable P_i, an
    isomorphism, so P_i = P_1 (labels name isomorphism classes) and phi_{i1}
    is a unit.  If phi_{11} is not, t_1i(1) phi has the unit
    phi_{11} + phi_{i1} at (1, 1).  Composing on the left with
    s_1(phi_{11}^-1) and the t_k1(-phi_{k1}), k != 1, turns column 1 into
    (1, 0, ..., 0); composing on the right with the t_1j(-phi_{1j}) clears
    row 1, leaving 1 (+) psi' with psi' an automorphism of the other parts,
    whose generators are among those of M; induction on the number of
    parts finishes.

    The list generates the full set, so it generates Aut(M).  For m = 2
    the signed swap w = t_{f,f+1}(1) t_{f+1,f}(-1) t_{f,f+1}(1), which
    sends e_f to -e_{f+1} and e_{f+1} to e_f, is in the group.  For
    m >= 3, z^k t_{f,f+1}(1) z^-k = t_{f+k,f+k+1}(1), and the commutator
    [t_ij(1), t_jk(1)] = t_ik(1), for i, j, k distinct, then gives every
    t_ij(1) inside the block.  Conjugating by w, or by the powers of z,
    moves s_f(u) onto every part of the block, and the t between the first
    parts of two blocks onto every pair of their parts, up to the sign of
    c: such a conjugation acts on one block's rows and columns alone.  A
    t(-1) is the inverse of t(1).  Aut(M) is finite, so a set closed under
    the g alone is closed under the group.
    """
    base, parts, one = m.base, m.parts, m.base.one_coeff()
    ident = identity_morphism(m)

    def placed(changes):
        rows = [list(r) for r in ident.entries]
        for (i, j), c in changes.items():
            rows[i][j] = base.coeff(parts[j], parts[i], c)
        return SerialMorphism(m, m, tuple(tuple(r) for r in rows))

    def transvection(i, j):
        return placed({(i, j): one}), placed({(i, j): -one})

    firsts = [f for f, a in enumerate(parts) if f == 0 or parts[f - 1] != a]
    out = []
    for f, end in zip(firsts, firsts[1:] + [len(parts)]):
        a, size = parts[f], end - f
        out += [(placed({(f, f): u}), placed({(f, f): u.inverse()}))
                for u in _unit_generators(base, a)]
        if size >= 2:
            out.append(transvection(f, f + 1))
        if size == 2:
            out.append(transvection(f + 1, f))
        elif size >= 3:  # z: part i onto part f + (i - f + 1) % size
            steps = [(f + (i - f + 1) % size, i) for i in range(f, end)]
            diagonal = {(i, i): base.ring.zero for i in range(f, end)}
            out.append((placed({**diagonal, **dict.fromkeys(steps, one)}),
                        placed({**diagonal, **dict.fromkeys([(j, i) for i, j in steps], one)})))
        out += [transvection(f, other) for other in firsts
                if other != f and base.hom_length(parts[other], a)]
    return out

"""Concrete element-level model of chain-backed modules.

Elements are interned to integer indices; submodules are bitmasks over the
element list, which makes subset tests and lattice walks cheap.  Used as the
independent oracle for exhaustive enumeration (monic chains of submodules)
and for validating the hom calculus against honest function composition.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .base import CHAIN
from .exact import image, solve_right
from .serialmod import (
    SerialModule,
    SerialMorphism,
    apply_morphism,
    automorphism_generators,
    module_elements,
    morphism,
    serial_module,
)


class ConcreteModule:
    """A chain-backed module with interned elements and precomputed tables."""

    def __init__(self, module: SerialModule):
        base = module.base
        if base.backing != CHAIN:
            raise ValueError("concrete model requires a chain-ring backing")
        self.base = base
        self.module = module
        self.ring = base.ring
        self.elements: List[tuple] = list(module_elements(module))
        self.index: Dict[tuple, int] = {e: i for i, e in enumerate(self.elements)}
        self.size = len(self.elements)
        self.zero = self.index[tuple(self.ring.zero for _ in module.parts)]
        self._add_table = None
        self._scalar_table = None
        self._inclusion_cache = {}
        self._aut_gens = None
        self._mask_images = None
        self._cyclics: Dict[int, List[int]] = {}
        self._idempotents = None
        self._kept = {}

    def _lengths(self):
        return [self.base.length(p) for p in self.module.parts]

    def build_tables(self):
        if self._add_table is not None:
            return
        lengths = self._lengths()
        self._add_table = [
            [
                self.index[tuple((x + y).truncate(l) for x, y, l in zip(self.elements[i], self.elements[j], lengths))]
                for j in range(self.size)
            ]
            for i in range(self.size)
        ]
        self._scalar_table = {}
        for c in self.ring.elements():
            self._scalar_table[c.digits] = [
                self.index[tuple((c * x).truncate(l) for x, l in zip(self.elements[i], lengths))]
                for i in range(self.size)
            ]

    def order_of(self, i: int) -> int:
        """Smallest d with pi^d * element = 0."""
        e = self.elements[i]
        lengths = self._lengths()
        d = 0
        for x, l in zip(e, lengths):
            if not x.is_zero():
                d = max(d, l - x.valuation())
        return d

    def mask_length(self, mask: int) -> int:
        """Composition length of a submodule given as a bitmask: log_p |S|."""
        cnt = bin(mask).count("1")
        p = self.ring.p
        out = 0
        while cnt > 1:
            cnt //= p
            out += 1
        return out

    def cyclic(self, gen: int) -> List[int]:
        """Element indices of the cyclic submodule R*gen, memoised per element."""
        out = self._cyclics.get(gen)
        if out is None:
            self.build_tables()
            out = self._cyclics[gen] = sorted({table[gen] for table in self._scalar_table.values()})
        return out

    def span(self, mask: int, gen: int) -> int:
        """Submodule mask S + R*gen for a submodule mask S and one element.

        It is the union of the cosets c + S over c in R*gen.  The mask built
        so far is a union of S-cosets, so a c already in it adds nothing and
        each coset is added once."""
        cyclic = self.cyclic(gen)
        add_t = self._add_table
        elements = None
        out = mask
        for c in cyclic:
            if out >> c & 1:
                continue
            if elements is None:
                elements = self.mask_elements(mask)
            row = add_t[c]
            for x in elements:
                out |= 1 << row[x]
        return out

    def submodules(self) -> List[int]:
        """All submodule bitmasks, by closure of joins with cyclic submodules."""
        self.build_tables()
        zero_mask = 1 << self.zero
        cyclics = set()
        for g in range(self.size):
            cyclics.add(self.span(zero_mask, g))
        subs = {zero_mask}
        frontier = [zero_mask]
        cyc_list = sorted(cyclics)
        while frontier:
            s = frontier.pop()
            for c in cyc_list:
                if c & ~s == 0:
                    continue
                gen = (c & ~s).bit_length() - 1
                joined = self.span(s, gen)
                if joined not in subs:
                    subs.add(joined)
                    frontier.append(joined)
        return sorted(subs)

    def mask_elements(self, mask: int) -> List[int]:
        out = []
        m = mask
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return out

    def radical_mask(self) -> int:
        """Bitmask of pi*V."""
        self.build_tables()
        pi = self.ring.pi
        table = self._scalar_table[pi.digits]
        out = 0
        for i in range(self.size):
            out |= 1 << table[i]
        return out

    def socle_mask(self) -> int:
        """Bitmask of the socle: elements killed by pi."""
        self.build_tables()
        pi = self.ring.pi
        table = self._scalar_table[pi.digits]
        out = 0
        for i in range(self.size):
            if table[i] == self.zero:
                out |= 1 << i
        return out

    def join(self, mask1: int, mask2: int) -> int:
        """Submodule sum of two submodule masks."""
        self.build_tables()
        out = mask1
        m = mask2
        while m:
            low = m & -m
            idx = low.bit_length() - 1
            m ^= low
            if not (out >> idx) & 1:
                out = self.span(out, idx)
        return out

    def automorphism_generators(self) -> List[tuple]:
        """Permutations of the element indices that generate Aut(V): the
        action of ``serialmod.automorphism_generators`` (unit scalings of one
        summand, transvections x_i <- x_i + pi^e x_j with
        max(0, a_i - a_j) <= e < a_i, swaps of equal summands) on elements;
        its docstring proves they generate."""
        if self._aut_gens is None:
            self.build_tables()
            add, scalar = self._add_table, self._scalar_table
            ring = self.ring
            rank = self.module.rank
            basis = [tuple(ring.one if k == j else ring.zero for k in range(rank))
                     for j in range(rank)]
            gens = set()
            for g, _ in automorphism_generators(self.module):
                # g is linear: x = sum x_j e_j goes to sum x_j g(e_j)
                columns = [self.index[apply_morphism(g, e)] for e in basis]
                perm = []
                for x in self.elements:
                    acc = self.zero
                    for xj, col in zip(x, columns):
                        acc = add[acc][scalar[xj.digits][col]]
                    perm.append(acc)
                gens.add(tuple(perm))
            gens.discard(tuple(range(self.size)))
            self._aut_gens = sorted(gens)
            self._mask_images = [{} for _ in self._aut_gens]
        return self._aut_gens

    def mask_image(self, g: int, mask: int) -> int:
        """Image of a submodule mask under automorphism generator number g."""
        if self._mask_images is None:
            self.automorphism_generators()
        memo = self._mask_images[g]
        out = memo.get(mask)
        if out is None:
            perm = self._aut_gens[g]
            out = 0
            for i in self.mask_elements(mask):
                out |= 1 << perm[i]
            memo[mask] = out
        return out

    def coordinate_idempotents(self) -> List[tuple]:
        """Element-index maps of the projections e_J onto the parts in J, for
        every proper nonempty set J of parts that contains part 0.  A
        submodule is kept by e_J exactly when it is kept by 1 - e_J, the
        projection onto the complement, so the complements are left out."""
        if self._idempotents is None:
            rank = self.module.rank
            zero = self.ring.zero
            self._idempotents = []
            # bits picks J - {0} among parts 1..rank-1; all of them is not proper
            for bits in range((1 << (rank - 1)) - 1 if rank > 1 else 0):
                J = [j == 0 or bits >> (j - 1) & 1 for j in range(rank)]
                self._idempotents.append(tuple(
                    self.index[tuple(x if keep else zero for x, keep in zip(e, J))]
                    for e in self.elements))
        return self._idempotents

    def kept_idempotents(self, mask: int) -> int:
        """Bitmask over ``coordinate_idempotents`` of the e_J with
        e_J(S) <= S for the submodule mask S."""
        kept = self._kept.get(mask)
        if kept is None:
            elements = self.mask_elements(mask)
            kept = 0
            for k, e in enumerate(self.coordinate_idempotents()):
                if all(mask >> e[i] & 1 for i in elements):
                    kept |= 1 << k
            self._kept[mask] = kept
        return kept

    def minimal_generators(self, mask: int) -> List[int]:
        """Greedy minimal generating set (large orders first)."""
        self.build_tables()
        elems = self.mask_elements(mask)
        elems.sort(key=lambda i: -self.order_of(i))
        covered = 1 << self.zero
        gens = []
        for i in elems:
            if (1 << i) & covered:
                continue
            gens.append(i)
            covered = self.span(covered, i)
            if covered == mask:
                break
        return gens

    def submodule_inclusion(self, mask: int) -> Tuple[SerialModule, SerialMorphism]:
        """(abstract submodule S, monic inclusion S -> ambient) for a mask."""
        cached = self._inclusion_cache.get(mask)
        if cached is not None:
            return cached
        base = self.base
        gens = self.minimal_generators(mask)
        labels = [f"M{self.order_of(g)}" for g in gens]
        if not gens:
            S = serial_module(base, [])
            result = S, morphism(S, self.module, [[] for _ in self.module.parts])
            self._inclusion_cache[mask] = result
            return result
        cover = serial_module(base, labels)
        order = sorted(range(len(gens)), key=lambda k: (base.label_sort_key(labels[k]), k))
        lengths = self._lengths()
        cols = []
        for k in order:
            g = self.elements[gens[k]]
            d = self.order_of(gens[k])
            col = []
            for x, l in zip(g, lengths):
                shift = max(0, l - d)
                if x.valuation() < shift:
                    raise AssertionError("generator component not divisible")
                col.append(x.shift_down(shift))
            cols.append(col)
        entries = [[cols[j][i] for j in range(len(cols))] for i in range(self.module.rank)]
        phi = morphism(cover, self.module, entries)
        S, incl = image(phi)
        self._inclusion_cache[mask] = (S, incl)
        return S, incl


def chain_of_inclusions(concrete: ConcreteModule, masks: List[int]):
    """Abstract modules and connecting monos for a chain S_1 <= ... <= S_k <= V.

    Returns ([S_1..S_k, V-as-module], [S_1 -> S_2, ..., S_k -> V])."""
    pieces = [concrete.submodule_inclusion(m) for m in masks]
    modules = [s for s, _ in pieces] + [concrete.module]
    maps = []
    for idx in range(len(pieces)):
        _, incl = pieces[idx]
        if idx + 1 < len(pieces):
            step = solve_right(pieces[idx + 1][1], incl)
            if step is None:
                raise AssertionError("nested submodules must factor")
            maps.append(step)
        else:
            maps.append(incl)
    return modules, maps

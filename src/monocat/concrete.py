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
        self._step_cache = {}
        self._aut_gens = None
        self._mask_images = None

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

    def span(self, mask: int, gen: int) -> int:
        """Submodule mask spanned by an existing submodule and one more element."""
        self.build_tables()
        cyc = set()
        for c_digits, table in self._scalar_table.items():
            cyc.add(table[gen])
        out = 0
        m = mask
        add_t = self._add_table
        while m:
            low = m & -m
            idx = low.bit_length() - 1
            m ^= low
            row = add_t[idx]
            for c in cyc:
                out |= 1 << row[c]
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
        """Permutations of the element indices that generate Aut(V).

        Write V = (+) R/pi^{a_i} and an element as (x_1, ..., x_r) with x_i in
        R/pi^{a_i}.  The generators are

        * scalings x_i <- u x_i by a unit u of R;
        * transvections x_i <- x_i + pi^e x_j for i != j and
          max(0, a_i - a_j) <= e < a_i (pi^e x_j is well defined in
          R/pi^{a_i} exactly when e >= a_i - a_j);
        * swaps of two summands of equal length.

        They generate Aut(V).  An endomorphism phi is a matrix whose entry
        phi_{ij}, a map from summand j to summand i, is multiplication by
        c pi^m with m = max(0, a_i - a_j).  Since c pi^m is a sum of digit
        multiples t pi^e (0 <= t < p, e >= m), every elementary map
        x_i <- x_i + phi_{ij} x_j is a product of transvections.  Let phi be
        an automorphism and let summand 1 have the maximal length a.  Some
        phi_{i1} with a_i = a is a unit: otherwise phi sends the nonzero
        element (pi^{a-1}, 0, ..., 0) to (pi^{a-1} phi_{i1})_i = 0 (for
        a_i < a because pi^{a-1} kills R/pi^{a_i}).  Composing on the left
        with a swap, a scaling and the elementary maps x_i <- x_i - phi_{i1} x_1
        turns column 1 into (1, 0, ..., 0).  Composing on the right with the
        elementary maps x_1 <- x_1 - phi_{1j} x_j then clears row 1 and keeps
        column 1, leaving 1 (+) psi with psi an automorphism of the other
        summands, whose generators are among those of V; induction on the
        number of summands finishes.  Aut(V) is finite, so a set closed under
        these permutations is closed under the whole group.
        """
        if self._aut_gens is None:
            ring = self.ring
            lengths = self._lengths()

            def permutation(i, value):
                # the map replacing component i of each element x by value(x)
                return tuple(self.index[x[:i] + (value(x).truncate(lengths[i]),) + x[i + 1:]]
                             for x in self.elements)

            gens = set()
            for i, a in enumerate(lengths):
                for u in ring.units():
                    gens.add(permutation(i, lambda x: u * x[i]))
                for j, b in enumerate(lengths):
                    if j == i:
                        continue
                    for e in range(max(0, a - b), a):
                        c = ring.pi_pow(e)
                        gens.add(permutation(i, lambda x: x[i] + c * x[j]))
                    if j > i and b == a:
                        gens.add(tuple(self.index[x[:i] + (x[j],) + x[i + 1:j] + (x[i],) + x[j + 1:]]
                                       for x in self.elements))
            gens.discard(tuple(range(self.size)))
            self._aut_gens = sorted(gens)
            self._mask_images = [{} for _ in self._aut_gens]
        return self._aut_gens

    def mask_image(self, g: int, mask: int) -> int:
        """Image of a submodule mask under automorphism generator number g."""
        perm = self.automorphism_generators()[g]
        memo = self._mask_images[g]
        out = memo.get(mask)
        if out is None:
            out = 0
            for i in self.mask_elements(mask):
                out |= 1 << perm[i]
            memo[mask] = out
        return out

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
        S, incl, _ = image(phi)
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
            key = (masks[idx], masks[idx + 1])
            step = concrete._step_cache.get(key)
            if step is None:
                _, nxt_incl = pieces[idx + 1]
                step = solve_right(nxt_incl, incl)
                if step is None:
                    raise AssertionError("nested submodules must factor")
                concrete._step_cache[key] = step
            maps.append(step)
        else:
            maps.append(incl)
    return modules, maps

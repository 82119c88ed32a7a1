"""Concrete element-level model of chain-backed modules.

Elements are numbered; submodules are bitmasks over the element numbers,
which makes subset tests and lattice walks cheap.  It is the engine of the
linear monic sweep (Aut(V)-orbits of submodule chains of the sink V).

An element of V = (+)_i Lambda/pi^{l_i} is numbered by mixed radix: part 0
is the most significant digit, each part's digit its ring number
``to_int()``, so the tables are built part by part from the ring's tables,
and the digit of part i of element x is x // width_i % p^{l_i}, width_i the
number of elements of the parts after i.
Submodules come by Goursat's lemma, each built once.  Write V = M (+) V',
M = Lambda/pi^l the first part and V' the later ones, whose elements are the
numbers below widths[0].  A submodule T meets V' in a submodule B, and its
image in M is pi^k M, of length a = l - k.  If a = 0 then T = B; otherwise
T = B + R(pi^k e + y) for e the generator of M and some y in
Y_a = {y in V' : pi^a y in B}, and y is fixed by T up to its coset y + B.
Conversely each such B, a and coset give a submodule with these B and a, so
the submodules of V are in bijection with the triples (B, a, y + B), and
the lattice of V' gives that of V.
The same step read top down gives a submodule's generators: at most one per
part, one of least valuation in the part's digit among the elements whose
earlier digits are zero (``generators``), and they are the columns of its
inclusion.  Its image in V/rad V is read off the digits mod p, so whether
soc V <= S + rad V is one mask test per part of length 1 (``top_cosets``).
The generators g_i, of orders o_i, are independent exactly when
prod_i p^{o_i} = |S|: the map (+)_i R/pi^{o_i} -> S, generator i to g_i, is
onto, so it is a bijection exactly when the sizes agree.  Then
S = (+)_i M_{o_i} with basis (g_i), and each element of S is sum_i c_i g_i
for one tuple of ring numbers c_i < p^{o_i} (``coordinates``).  A map into
S is read off these coordinates, as one into V is off the digits, which
are the coordinates over V's unit vectors: g of order o with coordinate
c_i over a basis element of order o_i has pi^o c_i in pi^{o_i} R, so the
hom entry c_i / pi^(o_i - o) is an exact division.  Inclusions and the
steps of a chain of such submodules come from these tables alone; a
submodule whose generators are redundant (R(pi, 1) in M2 (+) M2) takes its
inclusion from the Smith-form ``image`` and its steps from ``solve_right``
(``submodule_inclusion``, ``chain_of_inclusions``).
The coordinate masks are those of the sums V_J of the parts in a set J; a
submodule is split by the coordinate idempotent e_J exactly when its
intersections with V_J and with the complementary sum have sizes whose
product is its own (``kept_idempotents``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .base import CHAIN
from .exact import image, solve_right
from .serialmod import (
    SerialModule,
    SerialMorphism,
    automorphism_generators,
    morphism,
    serial_module,
)


class ConcreteModule:
    """A chain-backed module with numbered elements and precomputed tables."""

    def __init__(self, module: SerialModule):
        base = module.base
        if base.backing != CHAIN:
            raise ValueError("concrete model requires a chain-ring backing")
        self.base = base
        self.module = module
        self.ring = base.ring
        self.part_lengths = [base.length(p) for p in module.parts]
        p = self.ring.p
        self.widths = [p ** sum(self.part_lengths[i + 1:]) for i in range(module.rank)]
        self.size = p ** sum(self.part_lengths)
        self.zero = 0
        self._add_table = None
        self._scalar_table = None
        self._orders = None
        self._inclusion_cache = {}
        self._coordinate_cache = {}
        self._aut_gens = None
        self._coordinate_masks = None

    def build_tables(self):
        """``_add_table[i][j]``: the number of element i + element j;
        ``_scalar_table[c][i]``: of c * element i, c a ring number;
        ``_orders[i]``: the order of element i (``order_of``)."""
        if self._add_table is not None:
            return
        tab, numbers = self.ring.tables, range(self.ring.size)
        add, scalar, orders = [[0]], [[0] for _ in numbers], [0]
        for l, width in zip(reversed(self.part_lengths), reversed(self.widths)):
            # (a, r), a in this part and r in the later ones, has number a * width + r
            part, trunc = range(self.ring.p ** l), tab.trunc[l]
            add = [[u + y for u in shifts for y in row]
                   for shifts in ([trunc[tab.add[a][b]] * width for b in part] for a in part)
                   for row in add]
            scalar = [[trunc[tab.mul[c][a]] * width + y for a in part for y in scalar[c]]
                      for c in numbers]
            orders = [max(d, y) for d in [0] + [l - tab.val[a] for a in part[1:]] for y in orders]
        self._add_table = add
        self._scalar_table = scalar
        self._orders = orders

    def order_of(self, i: int) -> int:
        """Smallest d with pi^d * element = 0."""
        self.build_tables()
        return self._orders[i]

    def mask_length(self, mask: int) -> int:
        """Composition length of a submodule given as a bitmask: log_p |S|."""
        cnt = bin(mask).count("1")
        p = self.ring.p
        out = 0
        while cnt > 1:
            cnt //= p
            out += 1
        return out

    def submodules(self) -> List[int]:
        """All submodule bitmasks, sorted, each built once by Goursat's lemma
        (module docstring), applied from the last part up: the lattice of
        the parts from i on comes from that of the parts from i + 1 on.  For
        B and a, one scan of V' finds the cosets of B in Y_a, kept as masks
        per element; Y_1 <= Y_2 <= ..., so a coset found for a is one for
        every larger a.  T for the coset of y is the union over the p^a ring
        numbers c < p^a, one per class of R mod pi^a, of the coset of c*y
        shifted by the number of c*pi^k*e, where e, the generator of M, has
        the number |V'|."""
        self.build_tables()
        add, scalar, ring = self._add_table, self._scalar_table, self.ring
        bits = [1 << x for x in range(self.size)]
        lattice = [bits[self.zero]]  # the submodules of the empty sum
        for l, w in zip(reversed(self.part_lengths), reversed(self.widths)):
            out = []
            for b in lattice:
                out.append(b)  # a = 0
                elements = self.mask_elements(b)
                coset_of = [0] * w  # element of V' -> its coset mask, once found
                reps = []
                for a in range(1, l + 1):
                    into_b = scalar[ring.pi_pow(a).num]
                    for y in range(w):
                        if not coset_of[y] and b >> into_b[y] & 1:
                            reps.append(y)
                            coset = [add[y][x] for x in elements]
                            mask = sum([bits[z] for z in coset])
                            for z in coset:
                                coset_of[z] = mask
                    top = scalar[ring.pi_pow(l - a).num][w]  # pi^k * e
                    times = scalar[:ring.p ** a]
                    out += [sum([coset_of[c[y]] << c[top] for c in times]) for y in reps]
            lattice = out
        return sorted(lattice)

    def mask_elements(self, mask: int) -> List[int]:
        out = []
        m = mask
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return out

    def automorphism_generators(self) -> List[tuple]:
        """Permutations of the element indices that generate Aut(V): the
        action of ``serialmod.automorphism_generators``, whose docstring
        proves they generate.  Column j of g, g(e_j), is read from its
        entries; g(x) = sum_j x_j g(e_j) is built part by part in the
        mixed-radix order, one addition per element."""
        if self._aut_gens is None:
            self.build_tables()
            add, scalar, tab = self._add_table, self._scalar_table, self.ring.tables
            lengths, widths = self.part_lengths, self.widths
            gens = set()
            for g, _ in automorphism_generators(self.module):
                perm = [self.zero]
                for j in reversed(range(len(lengths))):
                    col = sum(tab.trunc[l][tab.shift_up[max(0, l - lengths[j])][row[j].num]] * w
                              for row, l, w in zip(g.entries, lengths, widths))
                    multiples = [scalar[a][col] for a in range(self.ring.p ** lengths[j])]
                    perm = [add[c][y] for c in multiples for y in perm]
                gens.add(tuple(perm))
            gens.discard(tuple(range(self.size)))
            self._aut_gens = sorted(gens)
        return self._aut_gens

    def mask_images(self, mask: int) -> List[int]:
        """Images of a submodule mask under each automorphism generator."""
        elements = self.mask_elements(mask)
        # a permutation sends distinct elements to distinct bits
        return [sum([1 << perm[i] for i in elements]) for perm in self.automorphism_generators()]

    def coordinate_masks(self) -> List[Tuple[int, int]]:
        """(mask of V_J, mask of V_J') for every proper nonempty set J of
        parts that contains part 0, in the order of J as a bitmask over the
        parts, J' its complement; V_J is the sum of the parts in J, the
        elements whose digits outside J are zero.  The sets with part 0
        suffice: e_J keeps a submodule exactly when 1 - e_J does."""
        if self._coordinate_masks is None:
            p, full = self.ring.p, (1 << self.module.rank) - 1
            sums = {0: 1}  # J -> mask of V_J
            for j, (l, width) in enumerate(zip(self.part_lengths, self.widths)):
                # digit j is zero on V_J, so adding a * width sets it to a
                sums.update({J | 1 << j: sum(m << a * width for a in range(p ** l))
                             for J, m in sums.items()})
            self._coordinate_masks = [(sums[J], sums[full ^ J]) for J in range(1, full, 2)]
        return self._coordinate_masks

    def kept_idempotents(self, mask: int) -> int:
        """Bitmask over ``coordinate_masks`` of the e_J with e_J(S) <= S for
        the submodule mask S.  That holds exactly when S is the direct sum
        of S & V_J and S & V_J'; the two meet in 0, so their sum, inside S,
        has |S & V_J| * |S & V_J'| elements and is S when that is |S|."""
        size = mask.bit_count()
        kept = 0
        for k, (inside, outside) in enumerate(self.coordinate_masks()):
            if (mask & inside).bit_count() * (mask & outside).bit_count() == size:
                kept |= 1 << k
        return kept

    def top_cosets(self) -> List[int]:
        """One mask per part of length 1, in part order: the coset of rad V
        whose image in V/rad V is that part's unit vector.  The image of an
        element is its digits mod p, and digit i mod p is x // width_i % p."""
        p, widths = self.ring.p, self.widths
        return [sum(1 << x for x in range(self.size)
                    if all(x // w % p == (i == j) for i, w in enumerate(widths)))
                for j, l in enumerate(self.part_lengths) if l == 1]

    def generators(self, mask: int) -> List[int]:
        """Echelon generators of the submodule mask S, at most one per part.
        For each part i in turn, level_i is the submodule of the elements of
        S whose digits before part i are zero, those below ``widths[i - 1]``
        (all of S for i = 0); its element with a nonzero part-i digit of
        least valuation, when there is one, is the generator of part i.  Its
        multiples have every part-i digit of level_i, so level_i is its span
        plus level_{i + 1}, as in the Goursat step T = B + R(pi^k e + y).
        The set need not be minimal: R(pi, 1) in M2 (+) M2 gets two."""
        val = self.ring.tables.val
        gens = []
        for width in self.widths:
            # the elements of level_i below width have part-i digit zero
            nonzero = self.mask_elements(mask >> width << width)
            if nonzero:
                gens.append(min(nonzero, key=lambda x: val[x // width]))
            mask &= (1 << width) - 1
        return gens

    def submodule_inclusion(self, mask: int) -> Tuple[SerialModule, SerialMorphism, Optional[list]]:
        """(abstract submodule S, monic inclusion S -> ambient, basis) for a
        mask, cached.  Let g_i be the ``generators`` of S, of orders o_i.
        The sum map (+)_i R/pi^{o_i} -> S, generator i to g_i, is onto, so
        when prod_i p^{o_i} = |S| it is a bijection: the g_i are then an
        independent basis and S is (+)_i M_{o_i}, its parts in normal form
        (descending length, stable among equal ones).  ``basis`` lists
        (g, o) in S's part order, and the inclusion's column for g has in
        part j of V, of length l_j, g's part-j digit divided by
        pi^(l_j - o) when l_j > o, a division that is exact because
        pi^o g = 0 (``_entries``).  Otherwise ``basis`` is None and S is the
        image of the free module R^m -> V that sends generator k to g_k,
        its entries their digits: R(pi, 1) in M2 (+) M2, of 4 elements, gets
        (pi, 1) and (0, pi), of orders 2 and 1."""
        cached = self._inclusion_cache.get(mask)
        if cached is None:
            gens = self.generators(mask)
            orders = [self.order_of(g) for g in gens]
            p, lengths, widths = self.ring.p, self.part_lengths, self.widths
            if p ** sum(orders) == mask.bit_count():
                basis = sorted(zip(gens, orders), key=lambda b: -b[1])
                S = serial_module(self.base, [self.base.labels[o - 1] for _, o in basis])
                digits = [[g // w % p ** l for l, w in zip(lengths, widths)] for g, _ in basis]
                cached = S, morphism(S, self.module, _entries(self.ring, basis, lengths, digits)), basis
            else:
                free = serial_module(self.base, [self.base.labels[-1]] * len(gens))
                entries = [[g // w % p ** l for g in gens] for l, w in zip(lengths, widths)]
                cached = *image(morphism(free, self.module, entries)), None
            self._inclusion_cache[mask] = cached
        return cached

    def coordinates(self, mask: int) -> dict:
        """For a submodule mask S with an independent basis (h_i, o_i)
        (``submodule_inclusion``): element number -> its coordinates
        (c_i), ring numbers c_i < p^{o_i}, with the element sum_i c_i h_i.
        The numbers below p^o are one per class of R mod pi^o, so each
        element of S = (+)_i R h_i comes once; built by the add and scalar
        tables, one basis element at a time."""
        coords = self._coordinate_cache.get(mask)
        if coords is None:
            self.build_tables()
            add, scalar, p = self._add_table, self._scalar_table, self.ring.p
            coords = {self.zero: ()}
            for h, o in self.submodule_inclusion(mask)[2]:
                multiples = [scalar[c][h] for c in range(p ** o)]
                coords = {add[x][y]: cs + (c,)
                          for x, cs in coords.items() for c, y in enumerate(multiples)}
            self._coordinate_cache[mask] = coords
        return coords


def _entries(ring, basis: list, orders: list, coordinates: list) -> list:
    """Entries of the map (+)_k M_{o_k} -> (+)_i M_{o_i} that sends
    generator k, (g, o_k) of ``basis``, to the element with the
    ``coordinates[k]`` (c_i) over an independent basis of the target, of
    the ``orders`` o_i.  The entry at (i, k) is c_i divided by
    pi^(o_i - o_k) when o_i > o_k: pi^{o_k} g = 0 gives pi^{o_k} c_i in
    pi^{o_i} R by independence, so the division is exact."""
    down = ring.tables.shift_down
    return [[down[max(0, o_i - o)][cs[i]] for (_, o), cs in zip(basis, coordinates)]
            for i, o_i in enumerate(orders)]


def chain_of_inclusions(concrete: ConcreteModule, masks: List[int]):
    """Abstract modules and connecting monos for a chain S_1 <= ... <= S_k <= V.

    Returns ([S_1..S_k, V-as-module], [S_1 -> S_2, ..., S_k -> V]).  A step
    S_j -> S_{j+1} between submodules with independent bases
    (``submodule_inclusion``) is read off the ``coordinates`` of S_j's
    basis over S_{j+1}'s (``_entries``); any other is solved for through
    S_{j+1}'s inclusion."""
    pieces = [concrete.submodule_inclusion(m) for m in masks]
    modules = [s for s, _, _ in pieces] + [concrete.module]
    maps = []
    for (S, incl, basis), (upper, upper_incl, upper_basis), upper_mask in zip(
            pieces, pieces[1:], masks[1:]):
        if basis is not None and upper_basis is not None:
            coords = concrete.coordinates(upper_mask)
            orders = [o for _, o in upper_basis]
            maps.append(morphism(S, upper, _entries(concrete.ring, basis, orders,
                                                    [coords[g] for g, _ in basis])))
        else:
            step = solve_right(upper_incl, incl)
            if step is None:
                raise AssertionError("nested submodules must factor")
            maps.append(step)
    if pieces:
        maps.append(pieces[-1][1])
    return modules, maps

"""Representations of a finite acyclic quiver over a serial base, and the
basic functor toolkit: direct sums, in-maps, top and its first derived
functor, the mono test (the maps into each vertex, jointly monic on the
socle), the one socle elimination of those maps per vertex (``in_socle``)
that ``mimo``'s envelopes and the injective tops (``injective_tops``) read,
the left adjoint of the forgetful functor, hom spaces (the kernel of
phi -> (phi_t o R_a - S_a o phi_s)_a, built as an ``exact.HomSystem``),
partition vectors, and the residue scan ``ResidueSpace.first``: the one
place where isomorphism here and locality of End(R) in ``decompose`` are
decided, under the one default budget ``DEFAULT_BUDGET``.  Equal
representations are isomorphic through the identity, which ``find_iso_reps``
returns without building a hom space.

A ``Representation`` compares and hashes by value (quiver, base, vertex
modules and arrow maps), so ``serialmod.memo`` caches functions of it.
Nothing mutates the ``modules`` or ``maps`` of a representation, or the
``components`` of a morphism, once built.

Matrix conventions: columns index source parts and composition g o f is the
matrix product g * f.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, Optional, Tuple

from .base import SerialBase
from .exact import (
    HomSystem,
    LinearSolution,
    _combine,
    _fp_invertible,
    _Rref,
    cokernel,
    is_injective_map,
    is_iso,
    kernel,
    socle_columns,
    solve_left,
)
from .quiver import Quiver
from .serialmod import (
    SerialModule,
    SerialMorphism,
    assemble,
    direct_sum,
    hom_space,
    identity_morphism,
    mor_block,
    mor_compose,
    mor_equal,
    rebase_map,
    serial_module,
    zero_module,
    zero_morphism,
)

DEFAULT_BUDGET = 1 << 20


class BudgetExceeded(RuntimeError):
    """A search could not decide within its budget; never a negative verdict."""


class Representation:
    """Vertex modules plus one morphism per arrow (source module -> target module)."""

    def __init__(self, quiver: Quiver, base: SerialBase, modules: Dict[str, SerialModule],
                 maps: Dict[str, SerialMorphism]):
        self.quiver = quiver
        self.base = base
        self.modules = {v: modules.get(v, zero_module(base)) for v in quiver.vertices}
        self.maps = {}
        for a in quiver.arrows:
            f = maps.get(a.name)
            if f is None:
                f = zero_morphism(self.modules[a.source], self.modules[a.target])
            if f.source != self.modules[a.source] or f.target != self.modules[a.target]:
                raise ValueError(f"map for arrow {a.name} has wrong shape")
            self.maps[a.name] = f
        self._hash = None

    def length_vector(self) -> Dict[str, int]:
        return {v: m.length() for v, m in self.modules.items()}

    def total_length(self) -> int:
        return sum(m.length() for m in self.modules.values())

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.modules.values())

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and self.quiver == other.quiver
            and self.base == other.base
            and self.modules == other.modules
            and all(mor_equal(self.maps[a], other.maps[a]) for a in self.maps)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.quiver, self.base,
                               tuple(self.modules[v] for v in self.quiver.vertices),
                               tuple(self.maps[a.name] for a in self.quiver.arrows)))
        return self._hash

    def __repr__(self):
        mods = ", ".join(f"{v}:{self.modules[v]}" for v in self.quiver.vertices)
        return f"Rep({mods})"


class RepMorphism:
    """Vertexwise morphism; the naturality square of every arrow is verified."""

    def __init__(self, source: Representation, target: Representation,
                 components: Dict[str, SerialMorphism], check: bool = True):
        self.source = source
        self.target = target
        self.components = {}
        for v in source.quiver.vertices:
            f = components.get(v)
            if f is None:
                f = zero_morphism(source.modules[v], target.modules[v])
            if f.source != source.modules[v] or f.target != target.modules[v]:
                raise ValueError(f"component at vertex {v} has wrong shape")
            self.components[v] = f
        if check:
            for a in source.quiver.arrows:
                lhs = mor_compose(self.components[a.target], source.maps[a.name])
                rhs = mor_compose(target.maps[a.name], self.components[a.source])
                if not mor_equal(lhs, rhs):
                    raise ValueError(f"naturality fails at arrow {a.name}")

    def is_iso(self) -> bool:
        return all(is_iso(f) for f in self.components.values())

    def __repr__(self):
        return f"RepMorphism({self.components})"


def rep_morphism_compose(g: RepMorphism, f: RepMorphism) -> RepMorphism:
    comps = {v: mor_compose(g.components[v], f.components[v]) for v in f.components}
    return RepMorphism(f.source, g.target, comps, check=False)


def rep_identity(r: Representation) -> RepMorphism:
    return RepMorphism(r, r, {v: identity_morphism(m) for v, m in r.modules.items()}, check=False)


def rebase(r: Representation, base: SerialBase, keep=None) -> Representation:
    """r over ``base``: the parts at the increasing positions ``keep[v]`` (all
    by default) and the matching arrow-map blocks, digits copied by
    ``serialmod.rebase_map``; over r's own base, ``mor_block``.  The kept
    labels must keep their normal-form order over ``base``, as between a
    backing and its stable quotient or chain rings of equal Loewy length."""
    if keep is None:
        keep = {v: range(m.rank) for v, m in r.modules.items()}
    parts = {v: tuple(r.modules[v].parts[i] for i in keep[v]) for v in r.quiver.vertices}
    if base is r.base:
        modules = {v: SerialModule(base, ps) for v, ps in parts.items()}
        maps = {a.name: mor_block(r.maps[a.name], keep[a.target], keep[a.source])
                for a in r.quiver.arrows}
    else:
        modules = {v: serial_module(base, ps) for v, ps in parts.items()}
        maps = {a.name: rebase_map(r.maps[a.name], modules[a.source], modules[a.target],
                                   keep[a.target], keep[a.source])
                for a in r.quiver.arrows}
    return Representation(r.quiver, base, modules, maps)


def rep_direct_sum(r: Representation, s: Representation) -> Representation:
    """r (+) s: the vertex modules' direct sums and block-diagonal arrow maps."""
    if r.quiver != s.quiver or r.base != s.base:
        raise ValueError("direct sum requires same quiver and base")
    base = r.base
    modules = {v: direct_sum(base, [r.modules[v], s.modules[v]])[0] for v in r.quiver.vertices}
    maps = {a.name: assemble(base, [r.modules[a.source], s.modules[a.source]],
                             [r.modules[a.target], s.modules[a.target]],
                             {(0, 0): r.maps[a.name], (1, 1): s.maps[a.name]})[0]
            for a in r.quiver.arrows}
    return Representation(r.quiver, base, modules, maps)


# -- in-maps, top, and the mono test ---------------------------------------------


def in_map(r: Representation, v: str) -> SerialMorphism:
    """The in-map (+)_a R_{s(a)} -> R_v, the arrows in ``arrows_into`` order."""
    arrows = r.quiver.arrows_into(v)
    return assemble(r.base, [r.modules[a.source] for a in arrows], [r.modules[v]],
                    {(0, t): r.maps[a.name] for t, a in enumerate(arrows)})[0]


def l1_kopf(r: Representation) -> Dict[str, tuple]:
    """Vertexwise kernel of the in-map, with the witnessing inclusion."""
    return {v: kernel(in_map(r, v)) for v in r.quiver.vertices}


def kopf(r: Representation) -> Dict[str, tuple]:
    """Vertexwise cokernel of the in-map, with the witnessing projection."""
    return {v: cokernel(in_map(r, v)) for v in r.quiver.vertices}


def kopf_modules(r: Representation) -> Dict[str, SerialModule]:
    return {v: c[0] for v, c in kopf(r).items()}


def is_mono(r: Representation) -> bool:
    """Every in-map is injective, decided on the maps of the arrows into each
    vertex together; stops at the first vertex where they are not."""
    return all(is_injective_map(*(r.maps[a.name] for a in r.quiver.arrows_into(v)))
               for v in r.quiver.vertices)


def in_socle(r: Representation, v: str):
    """(rr, dependent): one F_p elimination ``rr`` (``exact._Rref``) of the
    socle columns of the maps into v (``exact.socle_columns``), arrow by
    arrow in ``arrows_into`` order, and the (arrow, part) pairs whose column
    is in the span of those before it.  The columns span in_v(soc X_v), and
    the maps into v are jointly monic iff ``dependent`` is empty."""
    rr = _Rref(r.base.ring.p, (), r.modules[v].rank)
    dependent = [(a, j) for a in r.quiver.arrows_into(v)
                 for j, column in enumerate(socle_columns(r.maps[a.name])) if not rr.add(column)]
    return rr, dependent


def injective_tops(r: Representation) -> Optional[Dict[str, list]]:
    """None when r (over an abelian self-injective base) is not monic;
    otherwise, per vertex v, D_v: the positions of the injective parts of
    R_v whose socle vector raises the rank after the columns of
    ``in_socle(r, v)``, in order; no top is built.  Injective
    indecomposables have the Loewy length L of the base and the others are
    shorter, so the injective socles span rad^(L-1) R_v, whose image in the
    top T_v = R_v / U, U = im(in_v), is rad^(L-1) T_v, with kernel its meet
    with soc U = in_v(soc X_v).  So T_v has dim rad^(L-1) T_v = |D_v|
    injective parts, with the labels at D_v (by simples, in disjoint rows)."""
    out = {}
    for v in r.quiver.vertices:
        rr, dependent = in_socle(r, v)
        if dependent:
            return None
        m = r.modules[v]
        out[v] = [i for i, label in enumerate(m.parts)
                  if r.base.is_injective(label) and rr.add([int(k == i) for k in range(m.rank)])]
    return out


def kopf_morphism(phi: RepMorphism) -> Dict[str, SerialMorphism]:
    """The induced map on vertexwise tops (cokernels of in-maps)."""
    out = {}
    for v in phi.source.quiver.vertices:
        _, q_src = cokernel(in_map(phi.source, v))
        _, q_tgt = cokernel(in_map(phi.target, v))
        k = solve_left(q_src, mor_compose(q_tgt, phi.components[v]))
        if k is None:
            raise AssertionError("top is functorial; induced map must exist")
        out[v] = k
    return out


# -- the left adjoint of the forgetful functor -------------------------------------


def f_shriek(base: SerialBase, quiver: Quiver, modules: Dict[str, SerialModule]) -> Representation:
    """Path-indexed representation: vertex k receives one copy of M_{s(p)} for
    every path p ending at k; an arrow maps the p-block identically to the
    (a o p)-block.  The result is mono with split in-maps."""
    modules = {v: modules.get(v, zero_module(base)) for v in quiver.vertices}
    paths_into = {v: quiver.paths_into(v) for v in quiver.vertices}
    summands = {v: [modules[p.source] for p in paths_into[v]] for v in quiver.vertices}
    vertex_mod = {v: direct_sum(base, summands[v])[0] for v in quiver.vertices}
    maps = {}
    for a in quiver.arrows:
        blocks = {
            (paths_into[a.target].index(quiver.extend_path(a, p)), k): identity_morphism(modules[p.source])
            for k, p in enumerate(paths_into[a.source])
        }
        maps[a.name] = assemble(base, summands[a.source], summands[a.target], blocks)[0]
    return Representation(quiver, base, vertex_mod, maps)


def vertex_module(base: SerialBase, quiver: Quiver, v: str, m: SerialModule) -> Dict[str, SerialModule]:
    """The vertex-indexed module M(v): M at v and zero elsewhere."""
    return {w: (m if w == v else zero_module(base)) for w in quiver.vertices}


# -- hom spaces between representations ---------------------------------------------


class RepHomSpace:
    """Hom(R, S): the naturality system, one unknown per vertex and one
    equation X_t o R_a - S_a o X_s = 0 per arrow a: s -> t.

    ``system`` is that ``HomSystem``; its ``slots`` (vertex, target part,
    source part) and ``slot_index`` are kept here.  The system is solved
    when ``solution`` is first read."""

    def __init__(self, r: Representation, s: Representation):
        if r.quiver != s.quiver or r.base != s.base:
            raise ValueError("base or quiver mismatch")
        self.r, self.s = r, s
        self.system = HomSystem(r.base, {v: (r.modules[v], s.modules[v]) for v in r.quiver.vertices})
        self.slots, self.slot_index = self.system.slots, self.system.slot_index
        for a in r.quiver.arrows:
            self.system.equate(r.modules[a.source], s.modules[a.target],
                               [(1, None, a.target, r.maps[a.name]), (-1, s.maps[a.name], a.source, None)])

    @functools.cached_property
    def solution(self):
        return self.system.solve()

    def _to_rep_morphism(self, vec) -> RepMorphism:
        return RepMorphism(self.r, self.s, self.system.morphisms(vec), check=False)

    def random(self, rng) -> RepMorphism:
        return self._to_rep_morphism(self.solution.random(rng))


def hom_reps(r: Representation, s: Representation) -> RepHomSpace:
    return RepHomSpace(r, s)


class ResidueSpace:
    """The image of a hom solution space in the label-diagonal residue blocks.

    A morphism between equal modules is invertible iff these blocks are
    invertible over F_p, and residues of composites multiply blockwise, so
    isomorphism search and endomorphism-ring locality are both decided inside
    this small F_p-space, by ``first``.  ``solution`` is a solution in the
    slots of ``space``, by default Hom itself; only its generators are read.
    """

    def __init__(self, space: RepHomSpace, solution: Optional[LinearSolution] = None):
        self.space = space
        self.generators = (space.solution if solution is None else solution).generators
        base = space.r.base
        self.p = base.ring.p
        self.blocks = []  # (vertex, label, [part positions])
        for v in space.r.quiver.vertices:
            parts = space.r.modules[v].parts
            for label in sorted(set(parts), key=base.label_sort_key):
                pos = [k for k, q in enumerate(parts) if q == label]
                self.blocks.append((v, label, pos))
        self.coord_slots = []
        for v, label, pos in self.blocks:
            for i in pos:
                for j in pos:
                    self.coord_slots.append(space.slot_index[(v, i, j)])
        # F_p basis of the projected solution space: one elimination over the rows
        # residue(gen_k) || e_k, so each basis residue keeps its coefficients
        # over the solution generators
        gens = self.generators
        n = len(self.coord_slots)
        rows = _Rref(self.p, (
            [gen[c].digits[0] for c in self.coord_slots] + [int(i == k) for i in range(len(gens))]
            for k, gen in enumerate(gens)
        ), n).rows
        self.basis = [row[:n] for row in rows]
        self.coeffs = [row[n:] for row in rows]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def residue_of(self, combo):
        """Residue vector (ints mod p) of an F_p combination of the basis."""
        return _combine(self.p, self.basis, combo, len(self.coord_slots))

    def lift_of(self, combo):
        """Lifted solution vector of an F_p combination of the basis."""
        ring = self.space.r.base.ring
        lift = [ring.zero] * len(self.space.slots)
        for c, gen in zip(_combine(self.p, self.coeffs, combo, len(self.generators)),
                          self.generators):
            if c:
                factor = ring.from_int(c)
                lift = [x + factor * y for x, y in zip(lift, gen)]
        return lift

    def block_matrices(self, res):
        """Residue vector -> list of square F_p matrices, one per label block."""
        out = []
        k = 0
        for v, label, pos in self.blocks:
            d = len(pos)
            mat = [[res[k + i * d + j] for j in range(d)] for i in range(d)]
            out.append(mat)
            k += d * d
        return out

    def first(self, accept, budget: int) -> Optional[RepMorphism]:
        """The lifted morphism of the first residue whose block matrices
        satisfy ``accept``, or None when no residue does.

        The basis is tried first, then every F_p combination in product
        order when p^rank is within the budget; above it, a scan that no
        basis element decides raises BudgetExceeded."""
        within_budget = self.p ** self.rank <= budget
        basis = (tuple(int(i == k) for i in range(self.rank)) for k in range(self.rank))
        combos = itertools.product(range(self.p), repeat=self.rank) if within_budget else ()
        for combo in itertools.chain(basis, combos):
            if accept(self.block_matrices(self.residue_of(combo))):
                return self.space._to_rep_morphism(self.lift_of(combo))
        if not within_budget:
            raise BudgetExceeded(f"residue space {self.p}^{self.rank} exceeds the budget "
                                 f"{budget} and no basis element decides it")
        return None


def find_iso_reps(r: Representation, s: Representation,
                  budget: int = DEFAULT_BUDGET) -> Tuple[bool, Optional[RepMorphism], str]:
    """(found, witness, 'exhaustive'): an isomorphism r -> s is a morphism
    whose residue blocks are all invertible over F_p.  Equal representations
    are answered with the identity, with no hom space built."""
    if any(r.modules[v] != s.modules.get(v) for v in r.quiver.vertices):
        return False, None, "exhaustive"
    if r == s:
        return True, rep_identity(r), "exhaustive"
    p = r.base.ring.p
    phi = ResidueSpace(hom_reps(r, s)).first(lambda mats: all(_fp_invertible(p, m) for m in mats),
                                             budget)
    return phi is not None, phi, "exhaustive"


def is_iso_reps(r: Representation, s: Representation, budget: int = DEFAULT_BUDGET) -> bool:
    return find_iso_reps(r, s, budget=budget)[0]


# -- partition and length vectors ----------------------------------------------------


def partition_vector(r: Representation) -> Dict[str, tuple]:
    if r.base.backing != "chain":
        raise ValueError("partition vectors are defined over chain-ring backings")
    return {v: m.partition() for v, m in r.modules.items()}


# -- random sampling (property suites) -------------------------------------------------


def random_module(base: SerialBase, rng, max_parts: int = 2) -> SerialModule:
    k = rng.randrange(max_parts + 1)
    parts = [rng.choice(base.labels) for _ in range(k)]
    return serial_module(base, parts)


def random_representation(base: SerialBase, quiver: Quiver, rng,
                          max_parts: int = 2) -> Representation:
    modules = {v: random_module(base, rng, max_parts) for v in quiver.vertices}
    maps = {a.name: hom_space(modules[a.source], modules[a.target]).random(rng) for a in quiver.arrows}
    return Representation(quiver, base, modules, maps)

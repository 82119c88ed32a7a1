"""Indecomposable enumeration engines.

* Gabriel-style enumeration over semisimple bases: one indecomposable per
  positive root, found by bounded search per root vector.
* The radical-square-zero classification: injective classes are path-indexed
  representations of injective labels, non-injective classes are minimal
  monic approximations of the Gabriel classes placed on each non-injective
  simple.  In every report a class counts as injective exactly when it is
  monic with injective vertex modules: by the theorem these are the
  path-indexed f_!(J), the objects the epivalence sends to zero.
* Bounded exhaustive enumeration, the cross-validation oracle.  Over a
  linearly oriented quiver and a chain ring a monic representation is a chain
  of submodules of its sink module V, and two chains give isomorphic
  representations exactly when an automorphism of V carries one onto the
  other; that path classifies by Aut(V)-orbits of chains of lattice
  indices, each generator of ``ConcreteModule.automorphism_generators``
  moving a chain by reads of its permutation of the submodule lattice, and
  yields its classes in generation order.  Its pruning rules drop only
  decomposable chains and apply to sinks with two or more parts, so the
  simple at the sink and the source's path-indexed injective come in walk
  order with the rest.  Every other quiver and backing searches the arrow
  maps depth first, as map numbers in their hom spaces
  (``serialmod.HomSpace``); for monic classes it skips vertex modules whose
  socles cannot hold those of the in-arrows' sources, each arrow runs over
  the monic maps of its space, and a branch is cut as soon as the in-arrows
  assigned into a vertex are not jointly monic, every test a rank of cached
  F_p socle columns.  Two representations with the
  same vertex modules are isomorphic exactly when some (g_v) in prod_v
  Aut(M_v) carries one family of arrow maps onto the other, so that path
  keeps the first tuple of map numbers of each orbit, each generator of
  ``serialmod.automorphism_generators`` moving it by reads of its
  permutations of map numbers, filled by digit updates, and builds a
  representation only for an orbit that neither splits nor is zero, in
  generation order.  Both walks use the same generators of each Aut(M),
  listed block by block (``serialmod.automorphism_generators``): scalings
  and transvections between the first parts of the blocks of equal parts,
  and within a block one transvection and its cycle, or two transvections
  for two parts, so each walk pays per block rather than per pair of
  parts.  Orbits, their first members and their verdicts do not depend on
  the generating set.  Both walks decide
  indecomposability on the way: a representation is decomposable exactly
  when some member of its orbit is block diagonal for a splitting of the
  vertex modules' parts into two nonempty sets
  (``ConcreteModule.kept_idempotents``, ``decompose.coordinate_components``),
  so no endomorphism ring is computed.
  ``IsoClassifier`` (fingerprint buckets, then ``is_iso_reps``) and
  ``decompose.is_indecomposable`` remain as the oracles of the tests; the
  latter shares only the union-find (``decompose.coordinate_components``),
  and answers every connected representation from its endomorphism ring.
* The Kronecker families: minimal monic approximations of the classical
  Kronecker modules over F_p placed on the simple of the stable base, the
  same placement as the radical-square-zero classification.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .base import CHAIN, POLY, RAD2NAK, SerialBase, chain_base, stable_base
from .chainring import INT, _Lazy
from .concrete import ConcreteModule, chain_of_inclusions
from .decompose import BudgetExceeded, coordinate_components, is_indecomposable
from .exact import image, independent_columns, socle_residue
from .mimo import is_injective_rep, mimo_from_stable
from .quiver import Quiver, builtin_quiver, dynkin_type, positive_roots
from .rep import (
    Representation,
    f_shriek,
    in_map,
    is_iso_reps,
    is_mono,
    vertex_module,
)
from .serialmod import (
    SerialModule,
    automorphism_generators,
    hom_space,
    mor_compose,
    morphism,
    rebase_map,
    serial_module,
)

DEFAULT_ENUM_BUDGET = 10_000_000


@dataclass
class EnumerationReport:
    base: SerialBase
    quiver: Quiver
    caps: Optional[Dict[str, int]]
    classes: List[Tuple[Representation, str]]
    counts: Dict[str, int]


def _counts(classes: List[Tuple[Representation, str]]) -> Dict[str, int]:
    """Injective and non-injective classes: a class is injective exactly when
    it is monic with injective vertex modules (``is_injective_rep``)."""
    inj = sum(1 for r, _ in classes if is_injective_rep(r))
    return {"injective": inj, "non_injective": len(classes) - inj}


# -- module inventories ---------------------------------------------------------------


def modules_up_to_length(base: SerialBase, cap: int) -> List[SerialModule]:
    """All normal-form modules of length <= cap (including zero)."""
    labels = sorted(base.labels, key=base.label_sort_key)
    out = []

    def rec(idx, remaining, acc):
        out.append(serial_module(base, acc))
        for k in range(idx, len(labels)):
            l = base.length(labels[k])
            if l <= remaining:
                rec(k, remaining - l, acc + [labels[k]])

    rec(0, cap, [])
    return out


# -- fingerprints and isomorphism filtering ---------------------------------------------


def rep_fingerprint(r: Representation) -> tuple:
    """Cheap isomorphism invariants used to bucket candidates before full
    isomorphism search."""
    from .exact import cokernel, kernel

    parts = tuple(r.modules[v].partition() for v in r.quiver.vertices)
    arrows = []
    for a in r.quiver.arrows:
        I, _ = image(r.maps[a.name])
        K, _ = kernel(r.maps[a.name])
        arrows.append((I.partition(), K.partition()))
    tops = []
    for v in r.quiver.vertices:
        f = in_map(r, v)
        C, _ = cokernel(f)
        K, _ = kernel(f)
        tops.append((C.partition(), K.partition()))
    composites = []
    for p in r.quiver.paths():
        if p.length < 2 or p.length > 3:
            continue
        f = None
        for name in p.arrows:
            f = r.maps[name] if f is None else mor_compose(r.maps[name], f)
        I, _ = image(f)
        composites.append(I.partition())
    return (parts, tuple(arrows), tuple(tops), tuple(composites))


class IsoClassifier:
    """Accumulates representations up to isomorphism behind fingerprint buckets."""

    def __init__(self):
        self.buckets: Dict[tuple, List[Representation]] = {}

    def add(self, r: Representation) -> bool:
        """True if r was new (no stored representative is isomorphic)."""
        fp = rep_fingerprint(r)
        bucket = self.buckets.setdefault(fp, [])
        for s in bucket:
            if is_iso_reps(s, r):
                return False
        bucket.append(r)
        return True

    def classes(self) -> List[Representation]:
        out = []
        for fp in sorted(self.buckets, key=repr):
            out.extend(self.buckets[fp])
        return out


# -- Gabriel enumeration ------------------------------------------------------------------


def enumerate_gabriel(quiver: Quiver, p: int, budget: int = DEFAULT_ENUM_BUDGET) -> List[Representation]:
    """One indecomposable representation over F_p per positive root;
    ValueError off Dynkin quivers."""
    roots = positive_roots(quiver)
    base = chain_base(INT, p, 1)
    out = []
    count = 0
    for root in roots:
        dims = dict(zip(quiver.vertices, root))
        modules = {v: serial_module(base, ["M1"] * dims[v]) for v in quiver.vertices}
        spaces = []
        active = []
        for a in quiver.arrows:
            if dims[a.source] and dims[a.target]:
                spaces.append([f for f in hom_space(modules[a.source], modules[a.target]) if not f.is_zero()])
                active.append(a.name)
        found = None
        for combo in itertools.product(*spaces):
            count += 1
            if count > budget:
                raise BudgetExceeded("enumerate_gabriel budget exceeded")
            maps = dict(zip(active, combo))
            rep = Representation(quiver, base, modules, maps)
            if is_indecomposable(rep):
                found = rep
                break
        if found is None:
            raise AssertionError(f"no indecomposable found for root {root}")
        out.append(found)
    return out


# -- rad^2-zero classification --------------------------------------------------------------


def _mimo_on_simple(g: Representation, st: SerialBase, s: str) -> Representation:
    """The minimal monic approximation of the F_p representation g placed on
    the simple s of the stable base st: each vertex space F^d becomes s^d and
    each arrow keeps its matrix."""
    quiver = g.quiver
    modules = {v: serial_module(st, [s] * g.modules[v].rank) for v in quiver.vertices}
    maps = {a.name: rebase_map(g.maps[a.name], modules[a.source], modules[a.target],
                               range(modules[a.target].rank), range(modules[a.source].rank))
            for a in quiver.arrows}
    return mimo_from_stable(Representation(quiver, st, modules, maps))


def enumerate_mono_rad2(quiver: Quiver, base: SerialBase, verify: bool = False) -> EnumerationReport:
    """All indecomposables in the monomorphism category over a radical square
    zero Nakayama backing: path-indexed injectives plus minimal monic
    approximations of the Gabriel classes of the semisimple stable quotient.
    A class counts as injective when it is monic with injective vertex
    modules (``_counts``)."""
    typ = dynkin_type(quiver)
    if typ is None:
        raise ValueError("the monomorphism category has finite type only for Dynkin quivers")
    if base.backing == CHAIN:
        if base.ring.n != 2:
            raise ValueError("chain backing must have Loewy length 2")
    elif base.backing != RAD2NAK:
        raise ValueError("base must be a radical square zero Nakayama backing")

    classes: List[Tuple[Representation, str]] = []
    for j in base.injective_labels():
        for v in quiver.vertices:
            rep = f_shriek(base, quiver, vertex_module(base, quiver, v, serial_module(base, [j])))
            classes.append((rep, "family"))

    st = stable_base(base)
    gabriel = enumerate_gabriel(quiver, base.ring.p)
    simples = st.labels  # all non-injective labels are simple here
    for s in simples:
        for g in gabriel:
            classes.append((_mimo_on_simple(g, st, s), "family"))

    if verify:
        reps = [r for r, _ in classes]
        for r in reps:
            assert is_mono(r), "classified object must be monic"
            assert is_indecomposable(r), "classified object must be indecomposable"
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not is_iso_reps(reps[i], reps[j]), "classified objects must be pairwise distinct"
        classes = [(r, "family+verified") for r, _ in classes]

    return EnumerationReport(base, quiver, None, classes, _counts(classes))


# -- bounded exhaustive enumeration ------------------------------------------------------------


def is_linear_chain(quiver: Quiver) -> Optional[List[str]]:
    """Vertex order v1 -> v2 -> ... -> vk if the quiver is a linearly oriented
    A_k, else None."""
    order = list(quiver.topological_order)
    arrows = {(a.source, a.target) for a in quiver.arrows}
    if len(quiver.arrows) != len(order) - 1:
        return None
    for i in range(len(order) - 1):
        if (order[i], order[i + 1]) not in arrows:
            return None
    return order


def _concrete_with_submodules(base: SerialBase, parts: tuple):
    """(V, its sorted submodule masks), built afresh on each call: a sweep
    visits each sink once."""
    conc = ConcreteModule(serial_module(base, parts))
    return conc, conc.submodules()


def _orbit_representatives(candidates: list, moves: list, splits):
    """Yield (first candidate, verdict) for each orbit, in the order of
    ``candidates``, under the group generated by ``moves`` (functions from
    candidate to candidate, each applying one group generator).  The group
    is finite, so the generators alone reach every orbit member.  The
    verdict says whether some member satisfies ``splits``; members are
    tested until one does, and every member is still visited.

    ``candidates`` must be a union of orbits: a move out of it means the
    pruning that built it was not invariant under the group."""
    members = set(candidates)
    seen = set()
    for candidate in candidates:
        if candidate in seen:
            continue
        seen.add(candidate)
        split = splits(candidate)
        stack = [candidate]
        while stack:
            current = stack.pop()
            for move in moves:
                moved = move(current)
                if moved not in members:
                    raise AssertionError("an automorphism moved a candidate "
                                         "out of the candidate set")
                if moved not in seen:
                    seen.add(moved)
                    stack.append(moved)
                    split = split or splits(moved)
        yield candidate, split


def _linear_orbits(quiver: Quiver, base: SerialBase, caps: Dict[str, int],
                   budget: int = DEFAULT_ENUM_BUDGET):
    """Yield (V, chain, splits) for each Aut(V)-orbit of the pruned submodule
    chains S_1 <= ... <= S_{k-1} of each sink module V (a ``ConcreteModule``)
    of a linearly oriented quiver, with its first chain in candidate order.
    ``splits`` says whether the representation is decomposable: some member
    of the orbit is block diagonal, that is, some coordinate idempotent e_J
    keeps each of its submodules (the AND of their ``kept_idempotents``,
    read once per lattice index at most).  That is exact: if
    R = R' (+) R'' with both nonzero, both have nonzero sink modules (the
    maps are monic), and by Krull-Schmidt for the parts of V some g in
    Aut(V) carries R'_V and R''_V onto complementary coordinate summands,
    so g moves the chain to a block-diagonal member of its orbit.  So a
    sink with one part has no decomposable chain, and the pruning rules,
    which drop only decomposable chains, apply to sinks with two or more
    parts, the simple at the sink and the source's path-indexed injective
    kept.  Chains are walked as lattice indices, each generator by reads of
    its lattice permutation, filled from ``mask_images`` for the candidates'
    submodules.  A generator acts on a chain of indices only through that
    permutation restricted to the indices the candidates use, so one whose
    restriction is the identity, or equals an earlier generator's, adds no
    move: dropping it leaves the group's permutations of the candidates,
    and so the orbits and their verdicts, as they were.
    Raises BudgetExceeded when more than ``budget`` chains are built."""
    order = is_linear_chain(quiver)
    k = len(order)
    count = 0
    for top in modules_up_to_length(base, caps[order[-1]]):
        # the rules drop only decomposable chains, and a one-part sink has none
        prune = len(top.parts) > 1
        # top coverage: S_{k-1} + rad(sink) = sink forces the length of
        # S_{k-1} to be at least the number of parts of the sink module
        if prune and k > 1 and len(top.parts) > caps[order[-2]]:
            continue
        conc, subs = _concrete_with_submodules(base, top.parts)
        lengths = [conc.mask_length(m) for m in subs]
        # soc V <= S + rad V exactly when S meets, for each part of V of
        # length 1, the coset of rad V over that part's unit vector of V/rad V
        tops = conc.top_cosets()
        # masks containing an element of maximal order carry an injective
        # submodule; at the source vertex that submodule splits off a
        # path-indexed summand (the retraction restricts to every member
        # above it), so such chains are decomposable
        full_order = sum(1 << i for i in range(conc.size) if conc.order_of(i) == base.ring.n)

        def chains(position: int, upper_mask: int):
            # position counts how many submodules remain to be chosen;
            # builds S_1 <= ... <= S_{k-1} ascending below upper_mask
            if position == 0:
                yield ()
                return
            for i, m in enumerate(subs):
                if lengths[i] > caps[order[position - 1]] or m & ~upper_mask:
                    continue
                # S_1 with an element of maximal order, or S_{k-1} + rad(sink)
                # missing a socle element of the sink, which then splits off
                # a simple summand concentrated at the sink
                if prune and (position == 1 and m & full_order
                              or position == k - 1 and not all(m & c for c in tops)):
                    continue
                for rest in chains(position - 1, m):
                    yield rest + (i,)

        # every rule (caps, the injective element, socle coverage) is
        # Aut(V)-invariant, so the candidates are a union of orbits
        candidates = list(chains(k - 1, subs[-1]))
        count += len(candidates)
        if count > budget:
            raise BudgetExceeded(f"enumeration budget {budget} exceeded")
        # a generator acts on chains through its permutation of the used
        # lattice indices: one that fixes them all or repeats an earlier
        # one adds no move, and the orbits are those of all of Aut(V)
        used = sorted(set().union(*candidates))
        perms = dict.fromkeys(tuple(bisect.bisect_left(subs, moved) for moved in row)
                              for row in zip(*(conc.mask_images(subs[i]) for i in used)))
        perms.pop(tuple(used), None)
        moves = [lambda chain, get=dict(zip(used, perm)).__getitem__: tuple(map(get, chain))
                 for perm in perms]
        kept = _Lazy(lambda i: conc.kept_idempotents(subs[i]))  # once per index at most
        every = (1 << len(conc.coordinate_masks())) - 1

        def splits(chain):
            # some e_J keeps every member of the chain: it is block diagonal
            common = every
            for i in chain:
                common &= kept[i]
            return common != 0

        for chain, split in _orbit_representatives(candidates, moves, splits):
            yield conc, tuple(subs[i] for i in chain), split


def _chain_representation(quiver: Quiver, base: SerialBase, conc: ConcreteModule,
                          chain: tuple) -> Representation:
    """The monic representation S_1 -> ... -> S_{k-1} -> V of a chain of
    submodule masks of V along a linearly oriented quiver."""
    order = is_linear_chain(quiver)
    arrow_by_pair = {(a.source, a.target): a.name for a in quiver.arrows}
    modules, maps = chain_of_inclusions(conc, chain)
    return Representation(quiver, base, dict(zip(order, modules)), {
        arrow_by_pair[(order[i], order[i + 1])]: maps[i] for i in range(len(order) - 1)})


def _linear_mono_candidates(quiver: Quiver, base: SerialBase, caps: Dict[str, int],
                            budget: int = DEFAULT_ENUM_BUDGET):
    """Yield one monic representation per indecomposable class, and the zero
    representation, for a linearly oriented quiver: the orbits of
    ``_linear_orbits`` that do not split, in walk order.  Only these chains
    are turned into representations."""
    for conc, chain, splits in _linear_orbits(quiver, base, caps, budget):
        if not splits:
            yield _chain_representation(quiver, base, conc, chain)


def _socle_columns(space) -> list:
    """For each map number k of the ``HomSpace``, the columns of the map's
    socle matrix (entries ``socle_residue``), one per source part."""
    base, W, Q = space.base, space.weights, space.radices
    cells = [[(W[i][j], Q[i][j], [socle_residue(base, a, b, d) for d in range(Q[i][j])])
              for i, b in enumerate(space.target.parts)]
             for j, a in enumerate(space.source.parts)]
    return [tuple(tuple(residues[k // w % q] for w, q, residues in column) for column in cells)
            for k in range(space.size)]


def _generic_candidates(quiver: Quiver, base: SerialBase, caps: Dict[str, int],
                        mono_only: bool, budget: int):
    """Yield (modules, spaces, tuples) for each assignment of vertex modules
    from ``modules_up_to_length``, in ``itertools.product`` order over
    ``quiver.vertices``, that has a candidate: ``spaces`` holds each arrow's
    ``HomSpace``, and ``tuples`` the candidate arrow maps as tuples of map
    numbers in them, in ``itertools.product`` order.

    The maps are assigned depth first.  With ``mono_only`` an assignment is
    first skipped when, for some simple S, the sources of the arrows into a
    vertex together have more socle summands S than its module: a jointly
    monic family embeds the socle of the sum of its sources, S-isotypic part
    into S-isotypic part.  That test depends on the modules alone.  In the
    other assignments each arrow runs over the monic maps of its space only,
    and a branch is cut as soon as the in-arrows assigned so far into a
    vertex are two or more and not jointly monic: a family of maps into one
    module is jointly monic only if each subfamily is, so exactly the monic
    tuples remain.  Every monic test is one rank over F_p of socle columns
    (``_socle_columns``, listed once per hom space for the call, with the
    monic maps); joint verdicts are cached for the call by the (source
    parts, target parts, map number) of each assigned in-arrow.  Raises
    BudgetExceeded when more than ``budget`` assignments and tuples, partial
    or complete, are visited; an assignment counts before its socle test.

    The candidates of one assignment form a union of prod_v Aut(M_v)-orbits
    (the mono condition is invariant), which ``_generic_orbit_classes``
    relies on to keep one tuple per orbit."""
    arrows = quiver.arrows
    p = base.ring.p
    # joint[i]: the arrows up to arrows[i] into its target, when monicity is
    # checked and they are two or more, else ()
    joint = [tuple(j for j, b in enumerate(arrows[:i + 1]) if b.target == a.target)
             for i, a in enumerate(arrows)]
    joint = [js if mono_only and len(js) > 1 else () for js in joint]
    inventories = [modules_up_to_length(base, caps[v]) for v in quiver.vertices]
    # (vertex position, source positions of its in-arrows) for each vertex
    # that has in-arrows, and the socle summands of each module per simple
    position = {v: n for n, v in enumerate(quiver.vertices)}
    into = [(position[v], [position[a.source] for a in quiver.arrows_into(v)])
            for v in quiver.vertices if quiver.arrows_into(v)]
    simples = list(dict.fromkeys(base.socle_label(label) for label in base.labels))
    socles = {m: [sum(base.socle_label(x) == s for x in m.parts) for s in simples]
              for inventory in inventories for m in inventory}

    def socles_fit(assignment):
        for v, sources in into:
            for s, have in enumerate(socles[assignment[v]]):
                need = 0
                for u in sources:
                    need += socles[assignment[u]][s]
                if need > have:
                    return False
        return True

    homs: Dict[tuple, tuple] = {}  # hom key -> (its space, the numbers tried, socle columns)
    verdicts: Dict[tuple, bool] = {}
    count = 0
    for assignment in itertools.product(*inventories):
        count += 1
        if count > budget:
            raise BudgetExceeded(f"enumeration budget {budget} exceeded")
        if mono_only and not socles_fit(assignment):
            continue
        modules = dict(zip(quiver.vertices, assignment))
        keys = [(modules[a.source].parts, modules[a.target].parts) for a in arrows]
        for key, a in zip(keys, arrows):
            if key not in homs:
                space = hom_space(modules[a.source], modules[a.target])
                if mono_only:
                    columns = _socle_columns(space)
                    homs[key] = (space, [k for k, cols in enumerate(columns)
                                         if independent_columns(p, space.target.rank, cols)],
                                 columns)
                else:
                    homs[key] = (space, range(space.size), None)
        spaces, tried, columns = zip(*(homs[key] for key in keys)) if arrows else ((), (), ())
        chosen = [0] * len(arrows)
        tuples = []

        def extend(depth):
            nonlocal count
            if depth == len(arrows):
                tuples.append(tuple(chosen))
                return
            js = joint[depth]
            for k in tried[depth]:
                count += 1
                if count > budget:
                    raise BudgetExceeded(f"enumeration budget {budget} exceeded")
                chosen[depth] = k
                if js:
                    key = tuple([(keys[j], chosen[j]) for j in js])
                    if key not in verdicts:
                        verdicts[key] = independent_columns(
                            p, spaces[depth].target.rank,
                            itertools.chain.from_iterable(columns[j][chosen[j]] for j in js))
                    if not verdicts[key]:
                        continue
                extend(depth + 1)

        extend(0)
        if tuples:
            yield modules, spaces, tuples


class _HomActions:
    """prod_v Aut(M_v) acting on tuples of map numbers, for one sweep.

    A generator pair (g, g^-1) of ``automorphism_generators(M_v)`` moves the
    map phi of an arrow into v to g o phi and that of an arrow out of v to
    phi o g^-1 (the quiver has no loops), so that g at v and the identity
    elsewhere is an isomorphism onto the moved tuple.  On each arrow that is
    a permutation of the map numbers of the arrow's ``HomSpace``, kept in
    ``perms`` by (source parts, target parts, into v, generator number) and
    filled on first read by digit updates.  g o phi differs from phi only in
    the rows where g is not the identity, and phi o g^-1 only in the columns
    where g^-1 is not (one row or column for a scaling or a transvection,
    each of its block's for the cycle of a block), so a fill recomputes
    only those entries: each is a sum of products read from
    ``SerialBase.compose_table`` at digits of the map number, truncated to
    its hom length, and the number moves by (new - old) * weight."""

    def __init__(self, quiver: Quiver):
        # (v, (position, arrow) of each arrow touching v) for each vertex an
        # arrow touches
        touching = ((v, [(i, a) for i, a in enumerate(quiver.arrows) if v in (a.source, a.target)])
                    for v in quiver.vertices)
        self.touching = [(v, arrows) for v, arrows in touching if arrows]
        self.generators: Dict[tuple, list] = {}  # module parts -> generator pairs
        self.perms: Dict[tuple, _Lazy] = {}

    @staticmethod
    def _perm(space, into_v: bool, h) -> _Lazy:
        """The permutation phi -> h o phi (``into_v``) or phi -> phi o h of
        the map numbers of ``space``."""
        base, tab = space.base, space.base.ring.tables
        a, b = space.source.parts, space.target.parts
        W, Q = space.weights, space.radices
        # (weight, radix, truncation, terms) per changed entry; each term is
        # the (weight, radix) of a digit and the product number per digit
        updates = []
        if into_v:  # row i of h o phi is the sum over l of h[i][l] phi[l][.]
            for i, row in enumerate(h.entries):
                support = [(l, c.num) for l, c in enumerate(row) if c.num]
                if support == [(i, 1)]:
                    continue
                updates += [(W[i][j], Q[i][j], tab.trunc[space.moduli[i][j]], [
                    (W[l][j], Q[l][j], [base.compose_table(a[j], b[l], b[i])[c][d]
                                        for d in range(Q[l][j])])
                    for l, c in support if Q[l][j] > 1])
                    for j in range(len(a)) if Q[i][j] > 1]
        else:  # column j of phi o h is the sum over l of phi[.][l] h[l][j]
            for j in range(len(a)):
                support = [(l, row[j].num) for l, row in enumerate(h.entries) if row[j].num]
                if support == [(j, 1)]:
                    continue
                updates += [(W[i][j], Q[i][j], tab.trunc[space.moduli[i][j]], [
                    (W[i][l], Q[i][l], [base.compose_table(a[j], a[l], b[i])[d][c]
                                        for d in range(Q[i][l])])
                    for l, c in support if Q[i][l] > 1])
                    for i in range(len(b)) if Q[i][j] > 1]
        add = tab.add

        def fill(k):
            moved = k
            for w, q, trunc, terms in updates:
                acc = 0
                for w_in, q_in, product in terms:
                    acc = add[acc][product[k // w_in % q_in]]
                moved += (trunc[acc] - k // w % q) * w
            return moved

        return _Lazy(fill)

    def moves(self, modules, spaces) -> list:
        """(v, g, move) for each vertex v that an arrow touches, in
        ``quiver.vertices`` order, and each pair (g, g^-1) of
        ``automorphism_generators(M_v)``: move takes a tuple of map numbers
        in ``spaces`` (``HomSpace``s, one per arrow, in ``quiver.arrows``
        order) to that of the maps moved by g, by one read per arrow
        touching v."""
        out = []
        for v, touching in self.touching:
            parts = modules[v].parts
            if parts not in self.generators:
                self.generators[parts] = automorphism_generators(modules[v])
            for n, (g, g_inv) in enumerate(self.generators[parts]):
                acts = []
                for i, a in touching:
                    into_v = a.target == v
                    key = (modules[a.source].parts, modules[a.target].parts, into_v, n)
                    if key not in self.perms:
                        self.perms[key] = self._perm(spaces[i], into_v, g if into_v else g_inv)
                    acts.append((i, self.perms[key]))
                out.append((v, g, functools.partial(_move_indices, acts)))
        return out


def _move_indices(acts, indices: tuple) -> tuple:
    """``indices`` with each position i of ``acts`` read through its permutation."""
    moved = list(indices)
    for i, perm in acts:
        moved[i] = perm[moved[i]]
    return tuple(moved)


def _indexed_rep(quiver: Quiver, base: SerialBase, modules, spaces,
                 indices: tuple) -> Representation:
    """The representation on ``modules`` whose arrow maps are ``spaces``
    (``HomSpace``s in ``quiver.arrows`` order) read at the map numbers
    ``indices``."""
    return Representation(quiver, base, modules, {
        a.name: space[k] for a, space, k in zip(quiver.arrows, spaces, indices)})


def _generic_orbit_classes(quiver: Quiver, base: SerialBase, caps: Dict[str, int],
                           mono_only: bool, budget: int):
    """Yield (modules, spaces, indices, splits) for each isomorphism class
    among ``_generic_candidates``: for each vertex-module assignment, its
    modules, the arrows' ``HomSpace``s and the first candidate of each
    prod_v Aut(M_v)-orbit as a tuple of map numbers, in candidate order;
    ``_indexed_rep`` reads the representation off them.

    Two representations with the same vertex modules are isomorphic exactly
    when some (g_v) carries one family of arrow maps onto the other, and
    modules in normal form are isomorphic only when equal, so the orbits are
    the classes.  The group is walked on tuples of map numbers with the
    generator pairs (g, g^-1) of ``automorphism_generators`` at each vertex,
    a move being one read per arrow it touches (``_HomActions``).  The mono
    condition is invariant under the action, so the candidates of one
    assignment are a union of orbits.  No ``Representation`` is built here.

    ``splits`` says whether the class is decomposable: some member of its
    orbit is block diagonal for a splitting of the vertex modules' parts into
    two nonempty sets, that is, the union-find of ``coordinate_components``
    over the nodes (vertex, part), numbered ``offsets[vertex] + part``,
    leaves at least two components.  The nonzero entries of a map are read
    from the digits of its number (``HomSpace.support``), once per hom space
    and number.  If the class is R' (+) R'' with both nonzero, Krull-Schmidt
    for the parts gives (g_v) carrying R'_v and R''_v onto complementary
    coordinate summands at every vertex, and the moved member is block
    diagonal along them; conversely the coordinate projections of a
    block-diagonal member are an idempotent endomorphism other than 0 and 1."""
    arrows = quiver.arrows
    actions = _HomActions(quiver)
    supports: Dict[tuple, _Lazy] = {}  # hom key -> map number -> its nonzero entries
    for modules, spaces, tuples in _generic_candidates(quiver, base, caps, mono_only, budget):
        moves = [move for _, _, move in actions.moves(modules, spaces)]
        ranks = [modules[v].rank for v in quiver.vertices]
        offsets = dict(zip(quiver.vertices, itertools.accumulate([0] + ranks)))
        size = sum(ranks)
        nonzero = []
        for space in spaces:
            key = (space.source.parts, space.target.parts)
            if key not in supports:
                supports[key] = _Lazy(space.support)
            nonzero.append(supports[key])

        def splits(indices, nonzero=nonzero, offsets=offsets, size=size):
            return coordinate_components(arrows, offsets, size, [
                support[k] for support, k in zip(nonzero, indices)]) is not None

        for indices, split in _orbit_representatives(tuples, moves, splits):
            yield modules, spaces, indices, split


def enumerate_bounded(quiver: Quiver, base: SerialBase, caps, mono_only: bool = False,
                      budget: int = DEFAULT_ENUM_BUDGET) -> EnumerationReport:
    """All indecomposable classes with vertex lengths within the caps.

    Monic classes over a linearly oriented quiver and a chain ring are
    classified by Aut(V)-orbits of submodule chains (``_linear_mono_candidates``)
    and come in generation order: sinks in ``modules_up_to_length`` order, then
    chains in candidate order, the simple at the sink and the source's
    path-indexed injective among them.  Every other case searches all vertex
    modules and arrow maps as numbers in their hom spaces
    (``_generic_candidates``); with ``mono_only`` it skips vertex modules
    whose socles are too small for a jointly monic family, tries only monic
    maps, checks the in-arrows into a vertex jointly as they are assigned,
    and never builds a non-monic tuple.
    It then keeps the first tuple of each prod_v Aut(M_v)-orbit
    (``_generic_orbit_classes``), again in generation order: vertex modules
    in product order, then tuples in candidate order.  Both walks visit
    every member of an orbit, and an orbit is kept only when none of its
    members is block diagonal, which is exactly indecomposability; no
    endomorphism ring is computed.  A ``Representation`` is built only for
    a kept orbit with a nonzero vertex module: from its chain of masks
    (``_chain_representation``) or its tuple of map numbers
    (``_indexed_rep``).  ``budget`` bounds the chains built or
    the vertex-module assignments and arrow-map tuples, partial or complete,
    visited; with ``mono_only`` only tuples of monic maps are visited.
    A class counts as injective when it is monic with injective vertex
    modules (``_counts``).
    """
    if not base.is_abelian:
        raise ValueError("bounded enumeration requires an abelian backing")
    if not isinstance(caps, dict):
        caps = list(caps)
        if len(caps) != len(quiver.vertices):
            raise ValueError(f"expected {len(quiver.vertices)} caps, one per vertex, "
                             f"got {len(caps)}")
        caps = dict(zip(quiver.vertices, caps))
    if any(c < 0 for c in caps.values()):
        raise ValueError(f"caps must be non-negative, got {caps}")
    if mono_only and base.backing == CHAIN and is_linear_chain(quiver) is not None:
        representatives = [rep for rep in _linear_mono_candidates(quiver, base, caps, budget)
                           if not rep.is_zero()]
    else:
        representatives = [_indexed_rep(quiver, base, modules, spaces, indices)
                           for modules, spaces, indices, splits in
                           _generic_orbit_classes(quiver, base, caps, mono_only, budget)
                           if not splits and any(m.rank for m in modules.values())]
    classes = [(rep, "exhaustive") for rep in representatives]
    return EnumerationReport(base, quiver, caps, classes, _counts(classes))


def enumerate_exact_vectors(quiver: Quiver, base: SerialBase, caps: Dict[str, int],
                            budget: int = DEFAULT_ENUM_BUDGET) -> Dict[tuple, List[Representation]]:
    """Indecomposable monic classes within the caps, grouped by length vector."""
    report = enumerate_bounded(quiver, base, caps, mono_only=True, budget=budget)
    grouped: Dict[tuple, List[Representation]] = {}
    for rep, _ in report.classes:
        vec = tuple(rep.modules[v].length() for v in quiver.vertices)
        grouped.setdefault(vec, []).append(rep)
    return grouped


def verify_length_vector_table(quiver: Quiver, base: SerialBase, table: Sequence[Sequence[int]],
                               margin: int = 1, budget: int = DEFAULT_ENUM_BUDGET) -> dict:
    """Check that each listed length vector carries exactly one indecomposable
    monic class, and report classes at unlisted vectors within the hull."""
    table = [tuple(v) for v in table]
    if not table:
        return {"verdicts": {}, "extras": {}, "hull": None}
    k = len(quiver.vertices)
    hull = tuple(max(v[i] for v in table) for i in range(k))
    caps = dict(zip(quiver.vertices, (h + margin for h in hull)))
    grouped = enumerate_exact_vectors(quiver, base, caps, budget=budget)
    verdicts = {}
    for vec in table:
        found = grouped.get(vec, [])
        if len(found) == 1:
            verdicts[vec] = "unique"
        elif not found:
            verdicts[vec] = "missing"
        else:
            verdicts[vec] = f"multiple({len(found)})"
    listed = set(table)
    extras = {}
    for vec, reps in sorted(grouped.items()):
        if vec in listed or not reps:
            continue
        if all(x <= h + margin for x, h in zip(vec, hull)):
            extras[vec] = len(reps)
    return {"verdicts": verdicts, "extras": extras, "hull": hull,
            "classes": grouped}


# -- Kronecker families ---------------------------------------------------------------------


def normalize_p1_point(p: int, param) -> Tuple[int, int]:
    """The representative (1, b/a) or (0, 1) of the point a:b of P^1(F_p),
    given as a pair of integers or as the text ``a:b``."""
    try:
        a, b = (int(x) for x in (param.split(":") if isinstance(param, str) else param))
    except (TypeError, ValueError):
        raise ValueError(f"malformed projective point {param!r}: expected a:b "
                         "with integers a and b") from None
    a %= p
    b %= p
    if a == 0 and b == 0:
        raise ValueError("a projective point needs a nonzero coordinate")
    if a:
        inv = pow(a, -1, p)
        return (1, (b * inv) % p)
    return (0, 1)


def p1_points(p: int) -> List[Tuple[int, int]]:
    return [(1, t) for t in range(p)] + [(0, 1)]


def kronecker_family(base: SerialBase, which: str, n: int, param=None) -> Representation:
    """Monic Kronecker-quiver representations over F_p[x]/(x^2): the minimal
    monic approximation of a classical Kronecker module over F_p placed on
    the simple M1 of the stable base (``_mimo_on_simple``).

    'P' and 'I' are the two countable families, 'R' the one-parameter family
    parametrized by the projective line.  P_n has A, B: F^n -> F^(n+1) the
    embeddings e_j -> e_j and e_j -> e_(j+1); I_n has their transposes;
    R_n at a:b (n >= 1) has A, B: F^n -> F^n with a*A + b*B one nilpotent
    Jordan block N: A = N - t, B = 1 at 1:t, and A = 1, B = N at 0:1.
    Only R takes a point (default 1:0).
    """
    if base.backing != CHAIN or base.ring.n != 2 or base.ring.kind != POLY:
        raise ValueError("Kronecker families are built over F_p[x]/(x^2)")
    if n < 0 or (which == "R" and n < 1):
        raise ValueError("invalid family index")
    if which not in ("P", "I", "R"):
        raise ValueError(f"unknown family {which!r}; expected P, I or R")
    if which != "R" and param is not None:
        raise ValueError(f"family {which} takes no projective point; only R does")
    p = base.ring.p
    if which == "R":
        a, t = normalize_p1_point(p, param if param is not None else (1, 0))
        one = [[int(j == i) for j in range(n)] for i in range(n)]
        N = [[int(j == i + 1) for j in range(n)] for i in range(n)]
        if a:  # 1:t, so A + t*B = N
            A, B = [[(x - t * y) % p for x, y in zip(*rows)] for rows in zip(N, one)], one
        else:  # 0:1, so B = N
            A, B = one, N
        dims = (n, n)
    else:
        A = [[int(i == j) for j in range(n)] for i in range(n + 1)]
        B = [[int(i == j + 1) for j in range(n)] for i in range(n + 1)]
        dims = (n, n + 1)
        if which == "I":
            A, B = [list(c) for c in zip(*A)], [list(c) for c in zip(*B)]
            dims = (n + 1, n)
    quiver = builtin_quiver("kronecker")
    field = chain_base(INT, p, 1)
    V1, V2 = (serial_module(field, ["M1"] * d) for d in dims)
    classical = Representation(quiver, field, {"1": V1, "2": V2},
                               {"a": morphism(V1, V2, A), "b": morphism(V1, V2, B)})
    return _mimo_on_simple(classical, stable_base(base), "M1")

"""Krull-Schmidt decomposition of representations by coordinate blocks and
Fitting splittings.

``decompose`` works through a stack of representations, the input first.
Each one is first cut along its coordinates: the (vertex, part) nodes joined
by the nonzero arrow-map entries fall into connected components
(``coordinate_components``), and when there are two or more the arrow maps
are block diagonal, so the representation is the direct sum of the
sub-representations on the components (``coordinate_blocks``), each pushed
back on the stack with no hom space solved.  Only a connected representation
is split by an endomorphism: one that is neither nilpotent nor invertible
has complementary stable kernel and stable image.  Such an endomorphism is
looked for in the residue algebra of the endomorphism ring by
``rep.ResidueSpace.first``, where invertibility and nilpotency are decided
blockwise over F_p; the Fitting splitting is computed only for the witness
found there.  Indecomposability is declared only with the exhaustive
certificate (every residue element blockwise invertible or blockwise
nilpotent, i.e. a local endomorphism ring), so every factor, cut out by
coordinates or not, has been through that scan.  Equal factors are grouped
by ``rep.is_iso_reps`` under the same budget, ``rep.DEFAULT_BUDGET`` by
default.

``coordinate_blocks`` (by representation) and ``_residue_witness`` (by
representation and budget) are memoized with ``serialmod.memo``; a
representation hashes by value, keeping its hash once built, and the blocks
(a tuple) and the witness returned are shared between equal calls and never
mutated.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .exact import _fp_invertible, _fp_nilpotent, image, is_iso, kernel, solve_right
from .rep import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Representation,
    RepMorphism,
    ResidueSpace,
    hom_reps,
    is_iso_reps,
    rebase,
    rep_morphism_compose,
)
from .serialmod import assemble, memo, mor_compose


def nonzero_entries(f) -> tuple:
    """The positions (i, j) of the nonzero entries of the map f."""
    return tuple((i, j) for i, row in enumerate(f.entries) for j, e in enumerate(row)
                 if not e.is_zero())


def coordinate_components(arrows, offsets, size, supports) -> Optional[List[List[int]]]:
    """The connected components of the graph on the ``size`` nodes (vertex,
    part), numbered ``offsets[vertex] + part``, in which the source part j
    and the target part i of every nonzero entry (i, j) of an arrow map are
    joined; ``supports`` lists those positions per arrow, in ``arrows``
    order (``nonzero_entries``).  None as soon as the graph is connected.
    Each component lists its nodes in increasing order, and the components
    come in the order of their least node.  The arrow maps are block
    diagonal for a splitting of the vertex modules' parts into two nonempty
    sets exactly when the result is not None."""
    if size < 2:
        return None
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = size
    for a, support in zip(arrows, supports):
        s, t = offsets[a.source], offsets[a.target]
        for i, j in support:
            x, y = find(s + j), find(t + i)
            if x != y:
                parent[x] = y
                components -= 1
                if components < 2:
                    return None
    by_root = {}
    for node in range(size):
        by_root.setdefault(find(node), []).append(node)
    return list(by_root.values())


@memo
def coordinate_blocks(r: Representation) -> Optional[Tuple[Representation, ...]]:
    """The tuple of sub-representations of r on the connected components of
    its (vertex, part) graph (``coordinate_components``), or None when the
    graph is connected; memoized by the value of r.  The arrow maps of r are
    block diagonal along the components, so r is their direct sum.  A
    component keeps its parts in their order in r, so its vertex modules are
    in normal form, and its arrow maps are the blocks of r's (``rep.rebase``
    over r's own base)."""
    vertices, arrows = r.quiver.vertices, r.quiver.arrows
    offsets, nodes = {}, []
    for v in vertices:
        offsets[v] = len(nodes)
        nodes.extend((v, i) for i in range(r.modules[v].rank))
    components = coordinate_components(arrows, offsets, len(nodes),
                                       [nonzero_entries(r.maps[a.name]) for a in arrows])
    if components is None:
        return None
    blocks = []
    for component in components:
        keep = {v: [] for v in vertices}
        for node in component:
            v, i = nodes[node]
            keep[v].append(i)
        blocks.append(rebase(r, r.base, keep))
    return tuple(blocks)


def _subrep_from_inclusions(r: Representation, inclusions) -> Tuple[Representation, RepMorphism]:
    """Subrepresentation spanned by vertexwise submodule inclusions k_v: K_v -> R_v.

    The inclusions must be closed under the arrow maps."""
    modules = {v: inclusions[v].source for v in r.quiver.vertices}
    maps = {}
    for a in r.quiver.arrows:
        lifted = solve_right(inclusions[a.target], mor_compose(r.maps[a.name], inclusions[a.source]))
        if lifted is None:
            raise AssertionError("submodule family is not arrow-stable")
        maps[a.name] = lifted
    sub = Representation(r.quiver, r.base, modules, maps)
    # each lifted map solves k_t o lifted = r.maps[a] o k_s, which is naturality
    incl = RepMorphism(sub, r, {v: inclusions[v] for v in r.quiver.vertices}, check=False)
    return sub, incl


def _stable_power(phi: RepMorphism) -> RepMorphism:
    """phi^m for m at least the total length: kernels and images have
    stabilized.  m is the least power of two, reached by squaring."""
    n = phi.source.total_length()
    power, m = phi, 1
    while m < n:
        power = rep_morphism_compose(power, power)
        m <<= 1
    return power


def fitting_split(r: Representation, phi: RepMorphism):
    """(K, I) with r = K (+) I along the stable kernel/image of phi, or None."""
    inf = _stable_power(phi)
    kern_incl = {}
    img_incl = {}
    for v in r.quiver.vertices:
        _, kern_incl[v] = kernel(inf.components[v])
        _, img_incl[v] = image(inf.components[v])
    k_len = sum(f.source.length() for f in kern_incl.values())
    i_len = sum(f.source.length() for f in img_incl.values())
    if k_len == 0 or i_len == 0:
        return None
    k_rep, k_inc = _subrep_from_inclusions(r, kern_incl)
    i_rep, i_inc = _subrep_from_inclusions(r, img_incl)
    # verify that [incl_K | incl_I] is an isomorphism from the direct sum
    for v in r.quiver.vertices:
        u, _, _ = assemble(r.base, [k_rep.modules[v], i_rep.modules[v]], [r.modules[v]],
                           {(0, 0): k_inc.components[v], (0, 1): i_inc.components[v]})
        if u.source.parts != r.modules[v].parts or not is_iso(u):
            return None
    return k_rep, i_rep


@memo
def _residue_witness(r: Representation, budget: int):
    """A lifted endomorphism of r whose residue blocks are neither all
    invertible nor all nilpotent, or None when End(r) is local.

    The residue map is a ring homomorphism with kernel inside rad End(r), so
    such an element exists iff End(r) is not local, and it is exactly an
    endomorphism that is neither invertible nor nilpotent.  Raises
    BudgetExceeded as ``ResidueSpace.first`` does.  Valid over every
    backing: residues of composites multiply blockwise."""
    p = r.base.ring.p

    def splits(mats):
        return not (all(_fp_invertible(p, m) for m in mats) or all(_fp_nilpotent(p, m) for m in mats))

    return ResidueSpace(hom_reps(r, r)).first(splits, budget)


def decompose(r: Representation, budget: int = DEFAULT_BUDGET) -> List[tuple]:
    """List of (indecomposable factor, multiplicity, certificate).

    Each representation taken off the stack is cut into its coordinate
    blocks when it has two or more (``coordinate_blocks``); only a connected
    one has its endomorphism ring scanned (``_residue_witness``) and, when
    that is not local, is split along the witness (``fitting_split``).  So
    when r is block diagonal in its own coordinates its factors are
    coordinate blocks of r, and every factor carries the exhaustive
    certificate of a local endomorphism ring."""
    pieces: List[Representation] = []
    stack = [r]
    while stack:
        cur = stack.pop()
        if cur.is_zero():
            continue
        blocks = coordinate_blocks(cur)
        if blocks is not None:
            stack.extend(blocks)
            continue
        witness = _residue_witness(cur, budget)
        if witness is None:
            pieces.append(cur)
            continue
        split = fitting_split(cur, witness)
        if split is None:
            raise AssertionError("non-invertible non-nilpotent endomorphism must split")
        stack.extend(split)
    grouped: List[tuple] = []
    for piece in pieces:
        for idx, (rep, mult, cert) in enumerate(grouped):
            if is_iso_reps(rep, piece, budget=budget):
                grouped[idx] = (rep, mult + 1, cert)
                break
        else:
            grouped.append((piece, 1, "exhaustive"))
    return grouped


def is_indecomposable(r: Representation, budget: int = DEFAULT_BUDGET) -> bool:
    """Locality of the endomorphism ring, decided in its residue algebra;
    works over abelian and stable backings alike.  A representation that is
    block diagonal in its own coordinates is decomposable, and is answered
    False with no hom space solved."""
    if r.is_zero() or coordinate_blocks(r) is not None:
        return False
    return _residue_witness(r, budget) is None

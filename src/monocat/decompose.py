"""Krull-Schmidt decomposition of representations by coordinate blocks,
injective peels and Fitting splittings.

``decompose`` works through a stack of representations, the input first.
Each one is first cut along its coordinates: the (vertex, part) nodes joined
by the nonzero arrow-map entries fall into connected components
(``coordinate_components``), and when there are two or more the arrow maps
are block diagonal, so the representation is the direct sum of the
sub-representations on the components (``coordinate_blocks``), each pushed
back on the stack with no hom space solved.  A connected monic
representation over an abelian self-injective base with injective and
non-injective parts and a top with an injective part (``_injective_tops``)
is split in one step along its tops (``_injective_peel``): the injective
parts J of the tops give the path-indexed summand f_!(J), an injective
object of the monomorphism category, and the rest is its cokernel, whose
tops have no injective part.  Only what remains is split by an
endomorphism: one that is neither nilpotent nor invertible has
complementary stable kernel and stable image.  Such an endomorphism is
looked for in the residue algebra of the endomorphism ring by
``rep.ResidueSpace.first``, where invertibility and nilpotency are decided
blockwise over F_p; the Fitting splitting is computed only for the witness
found there.  Indecomposability is declared only with the exhaustive
certificate (every residue element blockwise invertible or blockwise
nilpotent, i.e. a local endomorphism ring), so every factor, cut out by
coordinates, by a peel or by a Fitting splitting, has been through that
scan.  Equal factors are grouped by ``rep.is_iso_reps`` under the same
budget, ``rep.DEFAULT_BUDGET`` by default.

``coordinate_blocks`` and ``_injective_peel`` (by representation) and
``_residue_witness`` (by representation and budget) are memoized with
``serialmod.memo``; a representation hashes by value, keeping its hash once
built, and the blocks and the peel (tuples) and the witness returned are
shared between equal calls and never mutated.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .exact import (
    _fp_invertible,
    _fp_nilpotent,
    _Rref,
    cokernel,
    image,
    is_injective_map,
    is_iso,
    kernel,
    socle_columns,
    solve_left,
    solve_right,
)
from .quiver import Path
from .rep import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Representation,
    RepMorphism,
    ResidueSpace,
    f_shriek,
    hom_reps,
    is_iso_reps,
    in_map,
    is_mono,
    rebase,
    rep_morphism_compose,
)
from .serialmod import assemble, identity_morphism, memo, mor_block, mor_compose, zero_module


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
    """phi^m for m at least the largest vertex-module length: kernels and
    images have stabilized.  m is the least power of two, reached by
    squaring.

    The component of phi^k at v is (phi_v)^k, an endomorphism of R_v.  For
    an endomorphism f of a module of length l the kernels of f^k increase
    with k and stay put once two consecutive ones agree, so their lengths
    rise strictly until then and are bounded by l: ker f^k = ker f^l for
    every k >= l, and the images, whose lengths are l minus those, are
    stable from the same power on.  So every vertex is stable from the
    largest of its lengths on, not only from the total length."""
    n = max(m.length() for m in phi.source.modules.values())
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


@memo
def _injective_peel(r: Representation):
    """(M', F, iota) with r isomorphic to M' (+) F, where F = f_!(J) is the
    path-indexed representation of the injective parts J of the tops of r
    and iota: F -> r is monic with cokernel M'; or None when no top of r
    has an injective part or r is not monic, over an abelian self-injective
    base.  Memoized by the value of r.

    At each vertex v whose top T_v has an injective part
    (``_injective_tops``) let q_v: R_v -> T_v be the cokernel of the in-map
    in_v and e_v: J_v -> T_v the inclusion of those parts (J_v = 0 at the
    other vertices).  Over a self-injective base J_v is projective and q_v
    is epic, so e_v lifts to s_v: J_v -> R_v with q_v o s_v = e_v
    (``solve_right``).  The block of iota_w on the copy of J_{p.source} for
    a path p into w is R_p o s_{p.source}; an arrow a sends the p-block of
    F to the (a o p)-block, and R_{a o p} = R_a o R_p, so iota is natural.

    iota is monic, by induction in topological order.  The paths into w are
    e_w and a o p for the arrows a: u -> w and paths p into u, so
    iota_w(x, y) = s_w(x) + in_w((+)_a iota_u)(y).  If that is zero, then
    applying q_w, which kills the image of in_w, gives e_w(x) = 0 and x = 0;
    then in_w((+) iota_u)(y) = 0, and in_w and (by induction) each iota_u
    are monic, so y = 0.

    M' = coker iota is monic by the same argument.  Its vertex modules are
    coker(iota_w) with projections pi_w, and its arrow map at a: u -> w is
    the unique M'_a with M'_a o pi_u = pi_w o R_a (``solve_left``; it exists
    because pi_w o R_a o iota_u = pi_w o iota_w o F_a = 0).  Let an element
    of (+)_a M'_u, lifted to y in (+)_a R_u, go to zero under the in-map of
    M'.  Then pi_w(in_w(y)) = 0, and the kernel of pi_w is the image of
    iota_w, so in_w(y) = iota_w(x, z) for some x in J_w and z in
    (+)_a F_u; applying q_w gives e_w(x) = 0, so x = 0 and
    in_w(y) = in_w((+) iota_u)(z).  As in_w is monic, y = ((+) iota_u)(z),
    and its image in (+) M'_u is zero.

    So 0 -> F -> r -> M' -> 0 is exact with all three terms monic, a
    conflation of mono(Q, Lambda), and it splits because F = f_!(J) with J
    injective is an injective object there (``mimo.is_injective_rep``):
    r = M' (+) F.  The top is additive and top(F) = J (the in-map of F at w
    is the inclusion of the blocks of the paths of positive length), so
    T = top(M') (+) J.  By Krull-Schmidt over the base the parts of top(M')
    are those of T less those of J, which are all the injective ones: top(M')
    = T/J has no injective part.
    A summand of M' has a summand of top(M') as its top, so no
    representation that the decomposition of M' reaches has a top with an
    injective part, and none needs another peel.

    Checked at run time: iota is monic at each vertex
    (``is_injective_map``) and M' is monic (``is_mono``); AssertionError
    if not."""
    base, quiver = r.base, r.quiver
    lifts = {}
    for v in _injective_tops(r) or ():
        top, q = cokernel(in_map(r, v))
        injective = [i for i, label in enumerate(top.parts) if base.is_injective(label)]
        lifts[v] = solve_right(q, mor_block(identity_morphism(top), range(top.rank), injective))
    if not lifts:
        return None
    # the image of each path's block, R_p o s_{p.source}; a path's prefix
    # comes before it in ``paths`` order, which is by length
    images = {Path(v, v, ()): s for v, s in lifts.items()}
    for p in quiver.paths():
        if p in images:
            for a in quiver.arrows_out_of(p.target):
                images[quiver.extend_path(a, p)] = mor_compose(r.maps[a.name], images[p])
    tops = {v: s.source for v, s in lifts.items()}
    injective = f_shriek(base, quiver, tops)
    zero = zero_module(base)
    iota, modules, proj = {}, {}, {}
    for w in quiver.vertices:
        paths = quiver.paths_into(w)
        iota[w] = assemble(base, [tops.get(p.source, zero) for p in paths], [r.modules[w]],
                           {(0, k): images[p] for k, p in enumerate(paths) if p in images})[0]
        if not is_injective_map(iota[w]):
            raise AssertionError(f"injective peel is not monic at vertex {w}")
        modules[w], proj[w] = cokernel(iota[w])
    maps = {}
    for a in quiver.arrows:
        maps[a.name] = solve_left(proj[a.source], mor_compose(proj[a.target], r.maps[a.name]))
        if maps[a.name] is None:
            raise AssertionError(f"arrow {a.name} does not descend to the cokernel")
    rest = Representation(quiver, base, modules, maps)
    if not is_mono(rest):
        raise AssertionError("the rest of an injective peel is not monic")
    # iota is natural by construction: see above
    return rest, injective, RepMorphism(injective, r, iota, check=False)


def _injective_tops(r: Representation) -> Optional[List[str]]:
    """The vertices whose top has an injective part, or None when r (over
    an abelian self-injective base) is not monic: one F_p elimination per
    vertex, and no top is built.  Injective indecomposables have the Loewy
    length L of the base and the others are shorter, so the top R_v / U,
    U = im(in_v), has an injective part iff rad^(L-1) R_v, spanned by the
    socles e_i of the injective parts of R_v, is not inside U, that is, not
    inside soc U.  For monic r, soc U = in_v(soc X_v): the column span of
    the socle matrix of the maps into v (``exact.socle_columns``, as
    ``rep.is_mono`` reads it), which the monic test has eliminated."""
    out = []
    for v in r.quiver.vertices:
        m = r.modules[v]
        rr = _Rref(r.base.ring.p, (), m.rank)
        if not all(rr.add(column) for a in r.quiver.arrows_into(v)
                   for column in socle_columns(r.maps[a.name])):
            return None
        if any(any(rr.reduce([int(k == i) for k in range(m.rank)])[0])
               for i, label in enumerate(m.parts) if r.base.is_injective(label)):
            out.append(v)
    return out


def _peelable(r: Representation) -> bool:
    """Whether ``_injective_peel`` splits r into two nonzero sides: r has
    injective and non-injective parts, and a top with an injective part."""
    base = r.base
    kinds = {base.is_injective(label) for m in r.modules.values() for label in m.parts}
    return (base.is_abelian and base.is_selfinjective and len(kinds) == 2
            and bool(_injective_tops(r)))


def decompose(r: Representation, budget: int = DEFAULT_BUDGET) -> List[tuple]:
    """List of (indecomposable factor, multiplicity, certificate).

    Each representation taken off the stack is cut into its coordinate
    blocks when it has two or more (``coordinate_blocks``).  A connected
    monic one with both injective and non-injective parts and a top with an
    injective part (``_peelable``) sheds the injective summand f_!(J) read
    off its tops in one step (``_injective_peel``); no top of its rest M',
    or of a piece of M', has an injective part.  Any other connected one
    has its endomorphism ring scanned (``_residue_witness``) and, when that
    is not local, is split along the witness (``fitting_split``).  The
    peel's two sides go back on the stack like any other piece, so every
    factor, whichever step cut it out, carries the exhaustive certificate
    of a local endomorphism ring.  When the coordinate blocks of r are
    indecomposable they are its factors: an indecomposable has no peel,
    since its top has an injective part only when it is injective itself."""
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
        if _peelable(cur):
            peeled = _injective_peel(cur)
            if peeled is not None:
                stack.extend(peeled[:2])
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

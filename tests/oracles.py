"""Oracles of the tests: the function model of chain-backed modules, whose
elements are tuples of truncated ring values, one per part, and maps that
act on them; the tuple forms of the ``concrete`` tables and the submodule
generated by given elements, closed element by element; submodule
inclusions and chains of them by the Smith-form engine, and the split test
of a chain of masks; the part-by-part generators of Aut(m) that the
block-by-block list replaced; uniformly drawn automorphisms; the inverse,
surjectivity test, socle inclusion and block-diagonal sum of maps that
only the tests call; the injective envelope of a module, the envelope
data of ``mimo`` built from the kernel of each in-map, and the injective
split of a monic representation built from a cokernel; the permutations of hom-space map numbers by composition; the
listing of hom solution sets; and the Kronecker families built from the
homogeneous two-variable form model."""

import itertools
import math

from monocat.base import chain_base
from monocat.chainring import _Lazy
from monocat.enumerate import normalize_p1_point
from monocat.exact import cokernel, image, is_injective_map, is_iso, kernel, solve_left, solve_right
from monocat.quiver import Path, builtin_quiver
from monocat.rep import Representation, RepMorphism, f_shriek, in_map, is_mono
from monocat.serialmod import (
    SerialMorphism,
    _unit_generators,
    assemble,
    direct_sum,
    hom_space,
    identity_morphism,
    mor_block,
    mor_compose,
    morphism,
    serial_module,
    zero_module,
    zero_morphism,
)


# -- the function model -----------------------------------------------------------


def module_elements(m) -> list:
    """All elements of a chain-backed module as tuples of truncated ring
    values, in number order: mixed radix, part 0 most significant."""
    ring = m.base.ring
    parts = [[ring.from_int(a) for a in range(ring.p ** m.base.length(label))]
             for label in m.parts]
    return list(itertools.product(*parts))


def element_number(m, x: tuple) -> int:
    """The mixed-radix number of the element tuple x of m."""
    number = 0
    for c, label in zip(x, m.parts):
        number = number * m.base.ring.p ** m.base.length(label) + c.to_int()
    return number


def apply_morphism(f, vector: tuple) -> tuple:
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


# -- the tuple forms of the concrete tables ------------------------------------------


def order_of(m, x: tuple) -> int:
    """Smallest d with pi^d * x = 0."""
    lengths = [m.base.length(label) for label in m.parts]
    return max((l - c.valuation() for c, l in zip(x, lengths) if not c.is_zero()), default=0)


def coordinate_idempotents(m) -> list:
    """The projections e_J, J over the sets of ``ConcreteModule.coordinate_masks``
    in their order, as maps of element numbers, each element zeroed outside
    J as a tuple."""
    zero, rank = m.base.ring.zero, m.rank
    elements = module_elements(m)
    out = []
    for bits in range((1 << (rank - 1)) - 1 if rank > 1 else 0):
        J = [j == 0 or bits >> (j - 1) & 1 for j in range(rank)]
        out.append(tuple(element_number(m, tuple(c if keep else zero for c, keep in zip(x, J)))
                         for x in elements))
    return out


def submodule_mask(m, xs) -> int:
    """Bitmask over element numbers of the submodule of m generated by the
    element tuples xs, closed element by element under addition and under
    pi; both rings are spanned additively by 1 and the powers of pi, so
    this is closure under the ring.  Each element, when found, is added to
    every one found before it and to itself."""
    ring, lengths = m.base.ring, [m.base.length(label) for label in m.parts]
    found, frontier = set(), [tuple(ring.zero for _ in lengths)] + list(xs)
    while frontier:
        x = frontier.pop()
        if x in found:
            continue
        found.add(x)
        frontier.append(tuple((ring.pi * c).truncate(l) for c, l in zip(x, lengths)))
        frontier += [tuple((a + b).truncate(l) for a, b, l in zip(x, y, lengths)) for y in found]
    return sum(1 << element_number(m, x) for x in found)


def submodule_inclusion(m, gens: list):
    """(S, S -> m) for the submodule generated by the element numbers
    ``gens``: the image of the cover (+) M_d, d the generators' orders,
    whose generator k goes to generator k, its parts divided by pi^(l - d)."""
    base, elements = m.base, module_elements(m)
    xs = [elements[g] for g in gens]
    labels = [f"M{order_of(m, x)}" for x in xs]
    cover = serial_module(base, labels)
    order = sorted(range(len(xs)), key=lambda k: (base.label_sort_key(labels[k]), k))
    cols = [[c.shift_down(max(0, base.length(label) - order_of(m, xs[k])))
             for c, label in zip(xs[k], m.parts)] for k in order]
    return image(morphism(cover, m, [[col[i] for col in cols] for i in range(m.rank)]))


def chain_of_inclusions(conc, masks: list):
    """([S_1..S_k, V], [S_1 -> S_2, ..., S_k -> V]) for a chain of submodule
    masks of the ``ConcreteModule`` conc by the Smith-form engine: each
    inclusion the image of a cover of the echelon generators
    (``submodule_inclusion``), each step solved for through the next
    inclusion (``solve_right``)."""
    pieces = [submodule_inclusion(conc.module, conc.generators(m)) for m in masks]
    steps = [solve_right(upper, incl) for (_, incl), (_, upper) in zip(pieces, pieces[1:])]
    assert None not in steps
    return [s for s, _ in pieces] + [conc.module], steps + [incl for _, incl in pieces[-1:]]


def chain_splits(conc, chain) -> bool:
    """Whether some coordinate idempotent e_J of V, J a proper nonempty set
    of V's parts, keeps every submodule mask of the chain; the chain is then
    the direct sum of its parts in J and outside J."""
    kept = (1 << len(conc.coordinate_masks())) - 1
    for m in chain:
        kept &= conc.kept_idempotents(m)
    return kept != 0


# -- maps only the tests call ------------------------------------------------------------


def transvection_generators(m) -> list:
    """The generator pairs (g, g^-1) of Aut(m) that ``automorphism_generators``
    listed part by part before it listed them block by block: s_i(u) on
    every part i for each u of ``_unit_generators(P_i)``, and t_ij(1) for
    each ordered pair i != j with Hom(P_j, P_i) != 0, in row order."""
    base, parts, one = m.base, m.parts, m.base.one_coeff()
    ident = identity_morphism(m)

    def elementary(i, j, c):
        rows = [list(r) for r in ident.entries]
        rows[i][j] = base.coeff(parts[j], parts[i], c)
        return SerialMorphism(m, m, tuple(tuple(r) for r in rows))

    out = []
    for i, a in enumerate(parts):
        out += [(elementary(i, i, u), elementary(i, i, u.inverse())) for u in _unit_generators(base, a)]
        out += [(elementary(i, j, one), elementary(i, j, -one))
                for j, b in enumerate(parts) if j != i and base.hom_length(b, a)]
    return out


def random_automorphism(m, rng):
    """(g, g^-1) for g drawn uniformly from Aut(m): random endomorphisms
    until one is invertible, whatever set generates the group."""
    space = hom_space(m, m)
    g = space.random(rng)
    while not is_iso(g):
        g = space.random(rng)
    return g, solve_right(g, identity_morphism(m))


def invert(f):
    """Two-sided inverse of an isomorphism."""
    if not is_iso(f):
        raise ValueError("morphism is not invertible")
    inv = solve_right(f, identity_morphism(f.target))
    assert inv is not None and mor_compose(inv, f) == identity_morphism(f.source)
    return inv


def is_surjective_map(f) -> bool:
    return cokernel(f)[0].is_zero()


def mor_direct_sum(base, morphisms):
    """Block-diagonal sum f1 (+) f2 (+) ... on the sorted direct sums."""
    blocks = {(t, t): f for t, f in enumerate(morphisms)}
    return assemble(base, [f.source for f in morphisms], [f.target for f in morphisms], blocks)[0]


def socle(m):
    return serial_module(m.base, (m.base.socle_label(p) for p in m.parts))


def socle_inclusion(m):
    """The canonical monomorphism socle(M) -> M: the direct sum of the
    canonical generators soc(P) -> P."""
    base, one = m.base, m.base.one_coeff()
    f = mor_direct_sum(base, [morphism(serial_module(base, (base.socle_label(p),)),
                                       serial_module(base, (p,)), [[one]]) for p in m.parts])
    assert f.target == m and f.source == socle(m)
    return f


def injective_envelope(m):
    """Injective envelope (J, j) with j the canonical left-minimal inclusion:
    the direct sum of the canonical generators a -> E(a), E(a) the
    injective with label ``envelope_label(a)``."""
    base = m.base
    if not base.is_selfinjective:
        raise ValueError(f"base {base.descriptor()} has no injective envelopes")
    one = base.one_coeff()
    j = mor_direct_sum(base, [morphism(serial_module(base, (a,)),
                                       serial_module(base, (base.envelope_label(a),)), [[one]])
                              for a in m.parts])
    assert j.source == m
    return j.target, j


def kernel_envelope_data(r) -> dict:
    """Envelope data for ``mimo.mo`` by the Smith-form engine: at each
    vertex the kernel K of the in-map (``exact.kernel``), its injective
    envelope j: K -> J, and e: X -> J with e o incl = j (``solve_left``),
    which extends j along the monic inclusion because J is injective; e is
    split into its blocks e_a on the arrows' sources at their
    ``direct_sum`` positions in X."""
    out = {}
    for v in r.quiver.vertices:
        _, incl = kernel(in_map(r, v))
        J, j = injective_envelope(incl.source)
        e = solve_left(incl, j)
        assert e is not None and mor_compose(e, incl) == j
        arrows = r.quiver.arrows_into(v)
        _, positions = direct_sum(r.base, [r.modules[a.source] for a in arrows])
        out[v] = (J, {a.name: mor_block(e, range(J.rank), pos) for a, pos in zip(arrows, positions)})
    return out


def cokernel_peel(r, tops):
    """(M', F) by the Smith-form engine, the construction that
    ``mimo.injective_split`` replaced: F = f_!(J), J_v the parts of R_v at
    the injective tops D_v = ``tops[v]`` (``rep.injective_tops``), iota:
    F -> r the coordinate inclusions s_v of those parts carried along each
    path p as R_p o s_{p.source}, and M' = coker iota, one ``cokernel`` per
    vertex and each arrow map the ``solve_left`` through the projections.
    Part 1 of the proof at ``injective_split`` shows iota natural and
    monic, M' monic and r isomorphic to M' (+) F; all three are asserted."""
    base, quiver = r.base, r.quiver
    lifts = {v: mor_block(identity_morphism(r.modules[v]), range(r.modules[v].rank), d)
             for v, d in tops.items() if d}
    # a path's prefix comes before it in ``paths`` order, which is by length
    images = {Path(v, v, ()): s for v, s in lifts.items()}
    for p in quiver.paths():
        if p in images:
            for a in quiver.arrows_out_of(p.target):
                images[quiver.extend_path(a, p)] = mor_compose(r.maps[a.name], images[p])
    parts = {v: s.source for v, s in lifts.items()}
    injective = f_shriek(base, quiver, parts)
    zero = zero_module(base)
    iota, modules, proj = {}, {}, {}
    for w in quiver.vertices:
        paths = quiver.paths_into(w)
        iota[w] = assemble(base, [parts.get(p.source, zero) for p in paths], [r.modules[w]],
                           {(0, k): images[p] for k, p in enumerate(paths) if p in images})[0]
        assert is_injective_map(iota[w]), f"iota is not monic at vertex {w}"
        modules[w], proj[w] = cokernel(iota[w])
    maps = {a.name: solve_left(proj[a.source], mor_compose(proj[a.target], r.maps[a.name]))
            for a in quiver.arrows}
    assert None not in maps.values(), "an arrow does not descend to the cokernel"
    rest = Representation(quiver, base, modules, maps)
    assert is_mono(rest), "the cokernel of iota is not monic"
    RepMorphism(injective, r, iota)  # raises unless natural
    return rest, injective


# -- permutations of map numbers by composition ------------------------------------------


def composition_perm(space, into_v: bool, h):
    """The permutation phi -> h o phi (``into_v``) or phi -> phi o h of the
    map numbers of the ``HomSpace``, with the signature of
    ``enumerate._HomActions._perm``: each entry, on first read, is one
    ``mor_compose`` and a lookup of the image's entries among the maps."""
    maps = list(space)
    index = {f.entries: k for k, f in enumerate(maps)}
    assert len(index) == space.size, "the hom space lists a map twice"
    if into_v:
        return _Lazy(lambda k: index[mor_compose(h, maps[k]).entries])
    return _Lazy(lambda k: index[mor_compose(maps[k], h).entries])


# -- listing hom solution sets ------------------------------------------------------------


def solution_subgroup(solution, budget: int):
    """All homogeneous solutions of an ``exact.LinearSolution``, or None once
    the budget is exceeded."""
    group = {solution._trunc([solution.ring.zero] * len(solution.moduli))}
    for gen in solution.generators:
        multiples = {solution._trunc([c * g for g in gen]) for c in solution.ring.elements()}
        new = set()
        for s in group:
            for m in multiples:
                new.add(tuple(a + b for a, b in zip(s, m)))
                if len(new) > budget:
                    return None
        group = {solution._trunc(v) for v in new}
    return group


def list_solutions(solution, budget: int):
    """All solutions of an ``exact.LinearSolution``, or None if the space
    exceeds the budget."""
    group = solution_subgroup(solution, budget)
    if group is None:
        return None
    part = solution._trunc(solution.particular)
    return [solution._trunc([a + b for a, b in zip(part, g)]) for g in group]


def rep_homs(space, budget: int):
    """All morphisms R -> S of a ``rep.RepHomSpace``, or None if there are
    more than ``budget``."""
    vecs = list_solutions(space.solution, budget)
    if vecs is None:
        return None
    return [space._to_rep_morphism(vec) for vec in vecs]


# -- the Kronecker families from the form model --------------------------------------------


def _form_space(p: int, degree: int):
    base1 = chain_base("int", p, 1)
    if degree < 0:
        return zero_module(base1)
    return serial_module(base1, ["M1"] * (degree + 1))


def _mul_form_matrices(p: int, degree: int):
    """Matrices of multiplication by y and z from forms of degree-1 to degree."""
    src = _form_space(p, degree - 1)
    tgt = _form_space(p, degree)
    d = degree
    y = [[1 if i == j else 0 for j in range(d)] for i in range(d + 1)]
    z = [[1 if i == j + 1 else 0 for j in range(d)] for i in range(d + 1)]
    return (morphism(src, tgt, y), morphism(src, tgt, z))


def _binomial_vector(p: int, n: int, a: int, b: int):
    """Coefficients of (a*y + b*z)^n over the monomial basis of degree n."""
    return [(math.comb(n, k) * pow(a, n - k) * pow(b, k)) % p for k in range(n + 1)]


def _transpose_digits(f, p):
    return [[f.entries[j][i].digits[0] % p for j in range(f.target.rank)] for i in range(f.source.rank)]


def kronecker_forms(base, which: str, n: int, param=None):
    """The member of ``enumerate.kronecker_family`` assembled from the
    homogeneous two-variable form model: vertex 1 carries the form space with
    trivial radical action, vertex 2 adds one length-2 block per kernel
    dimension of the in-map, and the radical rows of the two arrow matrices
    are a retraction (computed exactly) of the kernel inclusion."""
    p = base.ring.p
    base1 = chain_base("int", p, 1)

    # W1 =(A,B)=> W2 is the plain two-arrow diagram; K -> W1 (+) W1 spans the
    # kernel of the combined map (A B).
    if which == "P":
        W1, W2 = _form_space(p, n - 1), _form_space(p, n)
        A, B = _mul_form_matrices(p, n)
        K = _form_space(p, n - 2)
        if K.rank:
            yk, zk = _mul_form_matrices(p, n - 1)
            top = [[(-x) % p for x in row] for row in [[e.digits[0] for e in r] for r in zk.entries]]
            bot = [[e.digits[0] for e in r] for r in yk.entries]
        else:
            top = bot = [[] for _ in range(W1.rank)]
    elif which == "I":
        W1, W2 = _form_space(p, n), _form_space(p, n - 1)
        A0, B0 = _mul_form_matrices(p, n)
        A = morphism(W1, W2, _transpose_digits(A0, p))
        B = morphism(W1, W2, _transpose_digits(B0, p))
        K = _form_space(p, n + 1)
        yk, zk = _mul_form_matrices(p, n + 1)
        top = [[(-x) % p for x in row] for row in _transpose_digits(zk, p)]
        bot = _transpose_digits(yk, p)
    else:  # R
        a, b = normalize_p1_point(p, param if param is not None else (1, 0))
        W1 = _form_space(p, n - 1)
        Vn = _form_space(p, n)
        qmap = morphism(serial_module(base1, ["M1"]), Vn, [[c] for c in _binomial_vector(p, n, a, b)])
        W2, proj = cokernel(qmap)
        Ay, Az = _mul_form_matrices(p, n)
        A = mor_compose(proj, Ay)
        B = mor_compose(proj, Az)
        kfree = n - 1  # dim of the degree-(n-2) form space
        K = serial_module(base1, ["M1"] * ((kfree if kfree > 0 else 0) + 1))
        qn1 = _binomial_vector(p, n - 1, a, b)
        if n >= 2:
            yk, zk = _mul_form_matrices(p, n - 1)
            top0 = [[(-e.digits[0]) % p for e in r] for r in zk.entries]
            bot0 = [[e.digits[0] for e in r] for r in yk.entries]
        else:
            top0 = bot0 = [[] for _ in range(W1.rank)]
        top = [row + [(a * qn1[i]) % p] for i, row in enumerate(top0)]
        bot = [row + [(b * qn1[i]) % p] for i, row in enumerate(bot0)]

    if K.rank:
        incl, _, (pos1, pos2) = assemble(base1, [K], [W1, W1],
                                         {(0, 0): morphism(K, W1, top), (1, 0): morphism(K, W1, bot)})
        retract = solve_left(incl, identity_morphism(K))
        assert retract is not None, "kernel inclusion must split over a field"
        r1 = mor_block(retract, range(K.rank), pos1)
        r2 = mor_block(retract, range(K.rank), pos2)
    else:
        r1 = zero_morphism(W1, K)
        r2 = zero_morphism(W1, K)

    V1 = serial_module(base, ["M1"] * W1.rank)
    V2 = serial_module(base, ["M2"] * K.rank + ["M1"] * W2.rank)

    def arrow_entries(scalar_map, rad_map):
        entries = []
        for i in range(K.rank):  # M2 parts come first in normal form
            entries.append([rad_map.entries[i][j].digits[0] for j in range(W1.rank)])
        for i in range(W2.rank):
            entries.append([scalar_map.entries[i][j].digits[0] for j in range(W1.rank)])
        return entries

    maps = {
        "a": morphism(V1, V2, arrow_entries(A, r1)),
        "b": morphism(V1, V2, arrow_entries(B, r2)),
    }
    return Representation(builtin_quiver("kronecker"), base, {"1": V1, "2": V2}, maps)

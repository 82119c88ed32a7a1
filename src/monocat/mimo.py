"""The minimal monic approximation and the stable-category reduction/transfer.

The stable reduction is the quotient functor mod -> stable mod applied to
each vertex and arrow; it, its section ``stable_lift`` and the relabelling
in ``transfer`` are each one change of base ``rep.rebase``.

The approximation of a representation R places, at each vertex k, one copy of
the injective envelope J_i of ker(in-map at i) for every path from i to k;
arrow maps shift the path blocks identically, feed R through its own maps,
and route R_{s(a)} into the envelope block J_{t(a)} through e_a, one map
per arrow, read off the one socle elimination of the maps into t(a)
(``rep.in_socle``); no in-map is assembled.  The projection onto the
original representation is a minimal right approximation by monic
representations.  Injective recognition reads the tops off the same
elimination (``rep.injective_tops``).  All of it needs an abelian
self-injective backing (``_backing``).

A monic representation splits by the paper's theorem, that Mimo inverts
the stable reduction F on the non-injective indecomposables: r is
isomorphic to Mimo(F(r)) (+) f_!(J), J the injective parts of its tops
(``injective_split``).  ``decompose`` splits off injective summands this
way, and ``transfer`` relabels both halves.

``mimo`` and ``transfer`` are memoized by the value of their arguments (a
``Representation`` hashes by value, bases are interned) with
``serialmod.memo``: a result is shared between equal calls and is never
mutated, and a call that raises is not cached.  So the small indecomposable
factors that recur across inputs are transferred once, and each repeat skips
the injective tops, the stable reduction, the change of base and the
approximation.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .base import CHAIN, SerialBase, StableBase, stable_base
from .exact import independent_columns, socle_columns
from .rep import (
    Representation,
    RepMorphism,
    f_shriek,
    in_socle,
    injective_tops,
    is_mono,
    rebase,
    rep_direct_sum,
    rep_identity,
)
from .serialmod import (
    SerialModule,
    SerialMorphism,
    assemble,
    direct_sum,
    identity_morphism,
    memo,
    rebase_map,
    serial_module,
    zero_module,
    zero_morphism,
)


def _backing(r: Representation) -> SerialBase:
    """r's base, checked to be abelian and self-injective."""
    if not (r.base.is_abelian and r.base.is_selfinjective):
        raise ValueError("mimo, stripping and recognition need an abelian self-injective backing")
    return r.base


def _minimal_envelope(r: Representation, v: str) -> Tuple[SerialModule, Dict[str, SerialMorphism]]:
    """(J, e) at v, e = {arrow a into v: e_a: R_{s(a)} -> J}, read off the
    dependent (arrow, part) pairs D of ``rep.in_socle(r, v)``: J =
    (+)_{(a, j) in D} E(a_j), E(b) labelled ``envelope_label(b)``, and e_a
    sends part j of R_{s(a)} to its part of J by the canonical generator, a
    monomorphism, when (a, j) is in D, and to 0 otherwise.

    e = (+)_a e_a: X_v -> J is an injective envelope on K = ker(in_v).  The
    columns outside D are independent, and in the socle matrix of (in_v, e)
    column (a, j) in D alone is nonzero at the socle of its part of J; so
    (in_v, e) is monic and e is monic on K.  soc K is the kernel of the
    socle matrix of in_v, of dimension |D|, which is dim soc J.  So e maps
    soc K onto soc J, e(K) is essential in the injective J, and e
    restricted to K is an injective envelope."""
    base = _backing(r)
    _, dependent = in_socle(r, v)
    labels = [base.envelope_label(r.modules[a.source].parts[j]) for a, j in dependent]
    order = sorted(range(len(labels)), key=lambda k: (base.label_sort_key(labels[k]), k))
    one, zero = base.one_coeff(), base.zero_coeff()
    J = SerialModule(base, tuple(labels[k] for k in order))
    return J, {a.name: SerialMorphism(r.modules[a.source], J, tuple(
        tuple(one if (a, j) == dependent[k] else zero for j in range(r.modules[a.source].rank))
        for k in order)) for a in r.quiver.arrows_into(v)}


def mo(r: Representation, envelope_data: Dict[str, Tuple[SerialModule, Dict[str, SerialMorphism]]]):
    """Monic approximation from caller-supplied envelope data (J_v, e) =
    ``envelope_data[v]``, J_v injective and e = {arrow a into v: e_a:
    R_{s(a)} -> J_v} monic on ker(in_v), checked as the maps (R_a, e_a):
    R_{s(a)} -> R_v (+) J_v jointly monic on the socle.  A vertex missing
    from the data gets J_v = 0.  Returns the approximating representation
    and the projection onto r."""
    base = _backing(r)
    envelopes = {}
    for v in r.quiver.vertices:
        arrows = r.quiver.arrows_into(v)
        J, e = envelope_data.get(v, (zero_module(base), {
            a.name: zero_morphism(r.modules[a.source], zero_module(base)) for a in arrows}))
        if not all(base.is_injective(label) for label in J.parts):
            raise ValueError(f"envelope module at vertex {v} is not injective")
        if set(e) != {a.name for a in arrows} or any(
                e[a.name].source != r.modules[a.source] or e[a.name].target != J for a in arrows):
            raise ValueError(f"envelope map at vertex {v} has wrong shape")
        if not independent_columns(base.ring.p, r.modules[v].rank + J.rank, (
                c + d for a in arrows
                for c, d in zip(socle_columns(r.maps[a.name]), socle_columns(e[a.name])))):
            raise ValueError(f"envelope map at vertex {v} is not monic on the in-map kernel")
        envelopes[v] = (J, e)
    return _mo(r, envelopes)


def _mo(r: Representation, envelopes):
    """``mo`` on checked envelope data.  Vertex v carries R_v (summand 0) and
    J_{s(p)} for each path p into v, the trivial path first (``paths_into``
    is ordered by length), so an arrow a: s -> t routes R_s into J_t
    (summand 1) through e_a."""
    base, quiver = r.base, r.quiver
    paths_into = {v: quiver.paths_into(v) for v in quiver.vertices}
    summands = {v: [r.modules[v]] + [envelopes[p.source][0] for p in paths_into[v]]
                for v in quiver.vertices}
    maps = {}
    for a in quiver.arrows:
        # R_a between the rep blocks, the rep block into J_t through e_a, and
        # the path blocks shifted identically
        blocks = {(0, 0): r.maps[a.name], (1, 0): envelopes[a.target][1][a.name]}
        for k, p in enumerate(paths_into[a.source]):
            q = paths_into[a.target].index(quiver.extend_path(a, p))
            blocks[(1 + q, 1 + k)] = identity_morphism(envelopes[p.source][0])
        maps[a.name] = assemble(base, summands[a.source], summands[a.target], blocks)[0]
    sums = {v: direct_sum(base, summands[v]) for v in quiver.vertices}
    result = Representation(quiver, base, {v: total for v, (total, _) in sums.items()}, maps)
    # p keeps summand 0, and row 0 of every result map is (r.maps[a], 0, ...)
    one, zero = base.one_coeff(), base.zero_coeff()
    p = RepMorphism(result, r, {
        v: SerialMorphism(total, r.modules[v], tuple(
            tuple(one if j == k else zero for j in range(total.rank)) for k in positions[0]))
        for v, (total, positions) in sums.items()}, check=False)
    return result, p


def minimal_envelope_data(r: Representation) -> Dict[str, Tuple[SerialModule, Dict[str, SerialMorphism]]]:
    """The envelope data of ``mimo``: ``_minimal_envelope`` at each vertex."""
    return {v: _minimal_envelope(r, v) for v in r.quiver.vertices}


@memo
def mimo(r: Representation):
    """Minimal monic approximation (M, p: M -> r), memoized by the value of
    r: ``mo`` on ``minimal_envelope_data(r)``, unchecked, and (r, identity)
    when r is monic (every J_v is zero)."""
    envelopes = minimal_envelope_data(r)
    if all(J.is_zero() for J, _ in envelopes.values()):
        return r, rep_identity(r)
    return _mo(r, envelopes)


# -- maximal injective summands and the stable category ------------------------------


def _noninjective_positions(r: Representation):
    """Per vertex, the positions of the non-injective parts of its module."""
    base = _backing(r)
    return {v: [i for i, p in enumerate(m.parts) if not base.is_injective(p)]
            for v, m in r.modules.items()}


def strip_injective_summands(r: Representation):
    """(R_hat, I) where I collects the injective parts of each vertex module and
    R_hat keeps the non-injective parts with compressed arrow maps.

    R_hat is isomorphic to r in the injectively stable image."""
    base = r.base
    keep = _noninjective_positions(r)
    dropped = {v: serial_module(base, [p for p in m.parts if base.is_injective(p)])
               for v, m in r.modules.items()}
    return rebase(r, base, keep), dropped


def stable_reduce(r: Representation) -> Representation:
    """Image of r in rep(Q, stable base): injective parts go to zero and each
    other arrow entry is reduced modulo maps factoring through injectives,
    i.e. truncated to the stable hom length."""
    return rebase(r, stable_base(r.base), _noninjective_positions(r))


def stable_reduce_morphism(phi: RepMorphism, r_red: Representation, s_red: Representation) -> RepMorphism:
    """Functorial action of the reduction on a morphism of representations."""
    src_pos, tgt_pos = _noninjective_positions(phi.source), _noninjective_positions(phi.target)
    comps = {v: rebase_map(f, r_red.modules[v], s_red.modules[v], tgt_pos[v], src_pos[v])
             for v, f in phi.components.items()}
    return RepMorphism(r_red, s_red, comps, check=False)


def stable_lift(s: Representation) -> Representation:
    """Lift along the fixed section ``of.coeff``: labels and coefficients'
    digits are kept.  stable_reduce(stable_lift(s)) equals s exactly."""
    st = s.base
    if not isinstance(st, StableBase):
        raise ValueError("stable_lift expects a representation over a stable backing")
    return rebase(s, st.of)


def mimo_from_stable(s: Representation) -> Representation:
    """Monic representation attached to a stable representation; independent of
    the choice of lift up to isomorphism."""
    return mimo(stable_lift(s))[0]


# -- injective recognition and the length-3 transfer -----------------------------------


def is_injective_rep(r: Representation) -> bool:
    """Whether r is mono with injective vertex modules: over a self-injective
    backing these are exactly the injective objects of the monomorphism
    category, the path-indexed f_!(J)."""
    return all(r.base.is_injective(p) for m in r.modules.values() for p in m.parts) and is_mono(r)


def injective_rep_recognize(r: Representation) -> Optional[Dict[str, SerialModule]]:
    """If r is injective (``is_injective_rep``), the vertex-indexed J with r
    isomorphic to the path-indexed representation of J; otherwise None.
    J_v is the top of r at v, whose parts are all injective, so it has the
    labels at the positions ``rep.injective_tops`` lists."""
    base = _backing(r)
    tops = all(base.is_injective(p) for m in r.modules.values() for p in m.parts) and injective_tops(r)
    return {v: SerialModule(base, tuple(r.modules[v].parts[i] for i in d))
            for v, d in tops.items()} if tops else None


def injective_split(r: Representation, tops=None, target: Optional[SerialBase] = None):
    """(M', F) for a monic r: F = f_!(J), J_v the parts of R_v at D_v
    (``tops``, by default ``rep.injective_tops(r)``), and M' =
    ``mimo_from_stable(red(r))``, red the stable reduction, both relabelled
    over ``target`` (r's base by default, where r is isomorphic to
    M' (+) F).  ValueError when r is not monic.

    1. Let s_v: J_v -> R_v be the coordinate inclusion and q_v: R_v -> T_v
    the top.  q_v o s_v is monic: s_v maps soc J_v onto the socle vectors
    at D_v, which meet soc im(in_v) = in_v(soc X_v) in 0, as each raised
    the rank after the in-map columns.  The blocks R_p o s_{p.source} on
    the paths p give iota: f_!(J) -> r, natural as R_{a o p} = R_a o R_p.
    It is monic by induction in topological order: in iota_w(x, y) =
    s_w(x) + in_w((+)_a iota_u)(y), q_w kills the second term, so a zero
    value has x = 0, and then y = 0 as in_w and each iota_u are monic.
    Its cokernel M'' is monic: if y in (+)_a R_u has in_w(y) =
    iota_w(x, z), q_w gives x = 0, so y = ((+)_a iota_u)(z) as in_w is
    monic, and y is 0 in (+)_a M''_u.  So 0 -> f_!(J) -> r -> M'' -> 0 is
    a conflation of mono(Q, Lambda), split because f_!(J), J injective, is
    injective there: r = M'' (+) f_!(J).  The top is additive, top f_!(J)
    = J, and T_v has |D_v| injective parts (``rep.injective_tops``), so
    top(M'') = T/J has none.

    2. red sends injective modules to 0, so red(f_!(J)) = 0 and red(r) =
    red(M'').

    3. An injective summand of M'' would be some f_!(I), I != 0, and I an
    injective summand of top(M''); so M'' has none.  By the theorem
    Mimo(red(X)) = X for each indecomposable summand X of M'', and a
    minimal approximation of a sum is the sum of theirs, so M' =
    Mimo(red(M'')) = M''.  Hence r = M' (+) F, and no summand of M' has an
    injective part in its top, so none is split again.

    Checked at run time: M' is monic, and at each vertex the parts of
    M' (+) F are those of r, as Krull-Schmidt requires; AssertionError if
    not."""
    base = _backing(r)
    target = base if target is None else target
    if tops is None:
        tops = injective_tops(r)
        if tops is None:
            raise ValueError("the injective split is defined on monic representations")
    injective = f_shriek(target, r.quiver, {
        v: serial_module(target, [r.modules[v].parts[i] for i in d]) for v, d in tops.items()})
    rest = mimo_from_stable(rebase(stable_reduce(r), stable_base(target)))
    if not is_mono(rest):
        raise AssertionError("the rest of an injective split is not monic")
    for v, m in r.modules.items():
        if direct_sum(target, [rest.modules[v], injective.modules[v]])[0].parts != m.parts:
            raise AssertionError(f"an injective split changes the parts at vertex {v}")
    return rest, injective


@memo
def transfer(r: Representation, target: SerialBase) -> Representation:
    """Carry a monic representation between chain rings of equal residue
    characteristic and equal Loewy length n <= 3: M' (+) F of
    ``injective_split`` over the target, F the path-indexed representation
    of r's injective tops relabelled and M' the stable reduction changed to
    the target's (``rep.rebase``: M_i -> N_i, digits verbatim) and returned
    through the minimal monic approximation.  So injective summands are
    kept, and the parts at each vertex are checked to be r's."""
    base = r.base
    if base.backing != CHAIN or target.backing != CHAIN:
        raise ValueError("transfer is defined between chain-ring backings")
    if base.ring.n != target.ring.n:
        raise ValueError("transfer requires equal Loewy length")
    if base.ring.p != target.ring.p:
        raise ValueError("transfer requires equal residue characteristic")
    if base.ring.n > 3:
        raise ValueError("stable categories of chain rings are not equivalent beyond Loewy length 3")
    tops = injective_tops(r)
    if tops is None:
        raise ValueError("transfer is defined on monic representations")
    return rep_direct_sum(*injective_split(r, tops, target))

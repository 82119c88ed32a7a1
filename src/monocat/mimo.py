"""The minimal monic approximation and the stable-category reduction/transfer.

The stable reduction is the quotient functor mod -> stable mod applied to
each vertex and arrow; it, its section ``stable_lift`` and the relabelling
in ``transfer`` are each one change of base ``rep.rebase``.

The approximation of a representation R places, at each vertex k, one copy of
the injective envelope J_i of ker(in-map at i) for every path from i to k;
arrow maps shift the path blocks identically, feed R through its own maps,
and route R into the new envelope block through e_k: X_k -> J_k, an
injective envelope on the in-map's kernel read off its socle matrix.  The
projection onto the original representation is a minimal right
approximation by monic representations.

``mimo`` and ``transfer`` are memoized by the value of their arguments (a
``Representation`` hashes by value, bases are interned) with
``serialmod.memo``: a result is shared between equal calls and is never
mutated, and a call that raises is not cached.  So the small indecomposable
factors that recur across inputs are transferred once, and each repeat skips
the mono test, the injective recognition, the stable reduction and both
changes of base.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .base import CHAIN, SerialBase, StableBase, stable_base
from .exact import _Rref, independent_columns, socle_columns
from .rep import (
    Representation,
    RepMorphism,
    f_shriek,
    in_map_data,
    is_mono,
    kopf_modules,
    rebase,
    rep_identity,
)
from .serialmod import (
    SerialModule,
    SerialMorphism,
    assemble,
    direct_sum,
    identity_morphism,
    memo,
    mor_block,
    rebase_map,
    serial_module,
    zero_module,
    zero_morphism,
)


def _in_maps(r: Representation):
    """Per vertex v: ``rep.in_map_data(r, v)``, after checking the base."""
    if not (r.base.is_abelian and r.base.is_selfinjective):
        raise ValueError("monic approximations need an abelian self-injective backing")
    return {v: in_map_data(r, v) for v in r.quiver.vertices}


def _minimal_envelope(f: SerialMorphism) -> Tuple[SerialModule, SerialMorphism]:
    """(J, e) for the in-map f: X -> R at a vertex, e: X -> J an injective
    envelope on K = ker f, from one F_p elimination of the socle columns of
    f (``exact.socle_columns``, in X's part order).  With D the parts a_j
    whose column is in the span of those before it, J = (+)_{j in D} E(a_j),
    E(a) labelled ``envelope_label(a)``, and e sends part j in D to its part
    of J by the canonical generator, a monomorphism, and the others to 0.

    The columns outside D are independent, and in the socle matrix of
    (f, e): X -> R (+) J column j in D alone is nonzero at the socle of its
    part of J; so (f, e) is monic, ker f meets ker e in 0, and e is monic on
    K.  soc K = K meet soc X is the kernel of the socle matrix of f, of
    dimension |D| (the nullity), which is dim soc J.  So e maps soc K onto
    soc J, e(K) is essential in the injective J, and e restricted to K is
    an injective envelope."""
    base = f.base
    rr = _Rref(base.ring.p, (), f.target.rank)
    dependent = [j for j, column in enumerate(socle_columns(f)) if not rr.add(column)]
    labels = [base.envelope_label(f.source.parts[j]) for j in dependent]
    order = sorted(range(len(labels)), key=lambda k: (base.label_sort_key(labels[k]), k))
    one, zero = base.one_coeff(), base.zero_coeff()
    J = SerialModule(base, tuple(labels[k] for k in order))
    return J, SerialMorphism(f.source, J, tuple(
        tuple(one if j == dependent[k] else zero for j in range(f.source.rank)) for k in order))


def mo(r: Representation, envelope_data: Dict[str, Tuple[SerialModule, SerialMorphism]]):
    """Monic approximation from caller-supplied envelope data (J_v, e_v) =
    ``envelope_data[v]``, J_v injective and e_v: X_v -> J_v monic on
    ker(in_v), checked as (in_v, e_v): X_v -> R_v (+) J_v monic on the socle.
    Returns the approximating representation and the projection onto r."""
    base = r.base
    in_data = _in_maps(r)
    envelopes = {}
    for v, (total, f, _, _) in in_data.items():
        J, e = envelope_data.get(v, (zero_module(base), zero_morphism(total, zero_module(base))))
        if not all(base.is_injective(label) for label in J.parts):
            raise ValueError(f"envelope module at vertex {v} is not injective")
        if e.source != total or e.target != J:
            raise ValueError(f"envelope map at vertex {v} has wrong shape")
        if not independent_columns(base.ring.p, f.target.rank + J.rank,
                                   (c + d for c, d in zip(socle_columns(f), socle_columns(e)))):
            raise ValueError(f"envelope map at vertex {v} is not monic on the in-map kernel")
        envelopes[v] = (J, e)
    return _mo(r, envelopes, in_data)


def _mo(r: Representation, envelopes, in_data):
    """``mo`` on checked envelope data and the in-maps of ``_in_maps(r)``.
    Vertex v carries R_v (summand 0) and J_{s(p)} for each path p into v,
    the trivial path first (``paths_into`` is ordered by length)."""
    base, quiver = r.base, r.quiver
    paths_into = {v: quiver.paths_into(v) for v in quiver.vertices}
    summands = {v: [r.modules[v]] + [envelopes[p.source][0] for p in paths_into[v]]
                for v in quiver.vertices}
    maps = {}
    for a in quiver.arrows:
        _, _, arrows_in, in_pos = in_data[a.target]
        J, e = envelopes[a.target]
        # R_a between the rep blocks, the rep block into J_t through e_t, and
        # the path blocks shifted identically
        blocks = {(0, 0): r.maps[a.name],
                  (1, 0): mor_block(e, range(J.rank), in_pos[arrows_in.index(a)])}
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


def minimal_envelope_data(r: Representation) -> Dict[str, Tuple[SerialModule, SerialMorphism]]:
    """The envelope data of ``mimo``: (J_v, e_v) = ``_minimal_envelope`` of
    the in-map at each vertex."""
    return {v: _minimal_envelope(f) for v, (_, f, _, _) in _in_maps(r).items()}


@memo
def mimo(r: Representation):
    """Minimal monic approximation (M, p: M -> r), memoized by the value of
    r: ``mo`` on ``minimal_envelope_data(r)``, unchecked, and (r, identity)
    when r is monic (every J_v is zero)."""
    in_data = _in_maps(r)
    envelopes = {v: _minimal_envelope(f) for v, (_, f, _, _) in in_data.items()}
    if all(J.is_zero() for J, _ in envelopes.values()):
        return r, rep_identity(r)
    return _mo(r, envelopes, in_data)


# -- maximal injective summands and the stable category ------------------------------


def _noninjective_positions(r: Representation):
    """Per vertex, the positions of the non-injective parts of its module."""
    base = r.base
    if not (base.is_abelian and base.is_selfinjective):
        raise ValueError("stripping needs an abelian self-injective backing")
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
    isomorphic to the path-indexed representation of J; otherwise None."""
    base = r.base
    if not (base.is_abelian and base.is_selfinjective):
        raise ValueError("injective recognition needs an abelian self-injective backing")
    return kopf_modules(r) if is_injective_rep(r) else None


@memo
def transfer(r: Representation, target: SerialBase) -> Representation:
    """Carry a monic representation between chain rings of equal residue
    characteristic and equal Loewy length n <= 3.

    Injective representations map to the path-indexed representation of the
    relabeled socle data; all other monic representations are reduced to the
    stable category, changed to the target's (``rep.rebase``: M_i -> N_i,
    digits verbatim) and returned through the minimal monic approximation."""
    base = r.base
    if base.backing != CHAIN or target.backing != CHAIN:
        raise ValueError("transfer is defined between chain-ring backings")
    if base.ring.n != target.ring.n:
        raise ValueError("transfer requires equal Loewy length")
    if base.ring.p != target.ring.p:
        raise ValueError("transfer requires equal residue characteristic")
    if base.ring.n > 3:
        raise ValueError("stable categories of chain rings are not equivalent beyond Loewy length 3")
    if not is_mono(r):
        raise ValueError("transfer is defined on monic representations")

    j = injective_rep_recognize(r)
    if j is not None:
        modules = {v: serial_module(target, m.parts) for v, m in j.items()}
        return f_shriek(target, r.quiver, modules)

    return mimo_from_stable(rebase(stable_reduce(r), stable_base(target)))

"""The minimal monic approximation and the stable-category reduction/transfer.

The stable reduction is the quotient functor mod -> stable mod applied to
each vertex and arrow; it, its section ``stable_lift`` and the relabelling
in ``transfer`` are each one change of base ``rep.rebase``.

The approximation of a representation R places, at each vertex k, one copy of
the injective envelope J_i of ker(in-map at i) for every path from i to k;
arrow maps shift the path blocks identically, feed R through its own maps,
and route R into the new envelope block through a chosen lift of the
envelope embedding.  The projection onto the original representation is a
minimal right approximation by monic representations.

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
from .exact import is_injective_map, kernel, solve_left
from .rep import (
    Representation,
    RepMorphism,
    f_shriek,
    in_map_data,
    is_mono,
    kopf_modules,
    rebase,
)
from .serialmod import (
    SerialModule,
    SerialMorphism,
    assemble,
    direct_sum,
    identity_morphism,
    injective_envelope,
    memo,
    mor_block,
    mor_compose,
    rebase_map,
    serial_module,
    zero_module,
    zero_morphism,
)


def _is_injective_module(base: SerialBase, m: SerialModule) -> bool:
    return all(base.is_injective(p) for p in m.parts)


def _in_map_kernels(r: Representation):
    """Per vertex v: (X_v, arrows into v, positions of each R_{s(a)} in X_v,
    kernel of the in-map X_v -> R_v and its inclusion), each built once for
    ``mo`` and the minimal envelope data."""
    if not (r.base.is_abelian and r.base.is_selfinjective):
        raise ValueError("monic approximations need an abelian self-injective backing")
    out = {}
    for v in r.quiver.vertices:
        total, f, arrows, positions = in_map_data(r, v)
        out[v] = (total, arrows, positions) + kernel(f)
    return out


def mo(r: Representation, envelope_data: Dict[str, Tuple[SerialModule, SerialMorphism]]):
    """Monic approximation from caller-supplied envelope data.

    ``envelope_data[v]`` is a pair (J_v, e_v) with J_v injective and
    e_v : X_v -> J_v monic on the kernel of the in-map at v.  Returns the
    approximating representation and the projection onto ``r``.
    """
    return _mo(r, envelope_data, _in_map_kernels(r))


def _mo(r: Representation, envelope_data, in_data):
    """``mo`` on the in-maps and kernels of ``_in_map_kernels(r)``; validates
    the envelope data against them."""
    base = r.base
    quiver = r.quiver
    envelopes = {}
    for v in quiver.vertices:
        total, _, _, K, incl = in_data[v]
        J, e = envelope_data.get(v, (zero_module(base), zero_morphism(total, zero_module(base))))
        if not _is_injective_module(base, J):
            raise ValueError(f"envelope module at vertex {v} is not injective")
        if e.source != total or e.target != J:
            raise ValueError(f"envelope map at vertex {v} has wrong shape")
        if not K.is_zero() and not is_injective_map(mor_compose(e, incl)):
            raise ValueError(f"envelope map at vertex {v} is not monic on the in-map kernel")
        envelopes[v] = (J, e)

    # vertex v carries r.modules[v] (summand 0) and J_{s(p)} for each path p into v
    paths_into = {v: quiver.paths_into(v) for v in quiver.vertices}
    summands = {v: [r.modules[v]] + [envelopes[p.source][0] for p in paths_into[v]]
                for v in quiver.vertices}
    maps = {}
    for a in quiver.arrows:
        src, tgt = a.source, a.target
        # the original arrow map between the rep blocks
        blocks = {(0, 0): r.maps[a.name]}
        # the rep block feeds the trivial-path envelope block through e_tgt
        _, arrows_in, in_pos, _, _ = in_data[tgt]
        J, e_tgt = envelopes[tgt]
        feed = mor_block(e_tgt, range(J.rank), in_pos[arrows_in.index(a)])
        trivial = next(k for k, p in enumerate(paths_into[tgt]) if p.length == 0)
        blocks[(1 + trivial, 0)] = feed
        # path blocks shift identically
        for k, p in enumerate(paths_into[src]):
            q = paths_into[tgt].index(quiver.extend_path(a, p))
            blocks[(1 + q, 1 + k)] = identity_morphism(envelopes[p.source][0])
        maps[a.name] = assemble(base, summands[src], summands[tgt], blocks)[0]

    vertex_mod = {v: direct_sum(base, summands[v])[0] for v in quiver.vertices}
    result = Representation(quiver, base, vertex_mod, maps)
    p_components = {
        v: assemble(base, summands[v], [r.modules[v]], {(0, 0): identity_morphism(r.modules[v])})[0]
        for v in quiver.vertices
    }
    # p keeps summand 0, and row 0 of every result map is (r.maps[a], 0, ...)
    p = RepMorphism(result, r, p_components, check=False)
    return result, p


def minimal_envelope_data(r: Representation) -> Dict[str, Tuple[SerialModule, SerialMorphism]]:
    """Canonical envelope data: J_v = injective envelope of ker(in-map at v),
    e_v = the deterministic lift of the envelope embedding."""
    return _minimal_envelope_data(_in_map_kernels(r))


def _minimal_envelope_data(in_data):
    out = {}
    for v, (_, _, _, K, incl) in in_data.items():
        J, j = injective_envelope(K)
        e = solve_left(incl, j)
        if e is None:
            raise AssertionError("envelope embedding must extend along a monomorphism")
        out[v] = (J, e)
    return out


@memo
def mimo(r: Representation):
    """Minimal monic approximation (M, p: M -> r), memoized by the value of r."""
    in_data = _in_map_kernels(r)
    return _mo(r, _minimal_envelope_data(in_data), in_data)


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
    return all(_is_injective_module(r.base, m) for m in r.modules.values()) and is_mono(r)


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

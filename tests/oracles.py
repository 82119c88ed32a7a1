"""Oracles of the tests: the function model of chain-backed modules, whose
elements are tuples of truncated ring values, one per part, and maps that
act on them; the tuple forms of the ``concrete`` tables; and the inverse,
surjectivity test and socle inclusion that only the tests call."""

import itertools

from monocat.exact import cokernel, image, is_iso, solve_right
from monocat.serialmod import (
    identity_morphism,
    mor_compose,
    mor_direct_sum,
    morphism,
    serial_module,
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
    """The projections e_J of ``ConcreteModule.coordinate_idempotents`` as
    maps of element numbers, each element zeroed outside J as a tuple."""
    zero, rank = m.base.ring.zero, m.rank
    elements = module_elements(m)
    out = []
    for bits in range((1 << (rank - 1)) - 1 if rank > 1 else 0):
        J = [j == 0 or bits >> (j - 1) & 1 for j in range(rank)]
        out.append(tuple(element_number(m, tuple(c if keep else zero for c, keep in zip(x, J)))
                         for x in elements))
    return out


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


# -- maps only the tests call ------------------------------------------------------------


def invert(f):
    """Two-sided inverse of an isomorphism."""
    if not is_iso(f):
        raise ValueError("morphism is not invertible")
    inv = solve_right(f, identity_morphism(f.target))
    assert inv is not None and mor_compose(inv, f) == identity_morphism(f.source)
    return inv


def is_surjective_map(f) -> bool:
    return cokernel(f)[0].is_zero()


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

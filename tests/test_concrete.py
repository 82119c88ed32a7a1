"""The element-level model of ``concrete``: its tables against their
element-wise definition, its socle-coverage cosets and echelon generators
against closures built element by element, its submodule inclusions and
chain representations against those of the Smith-form engine, and its
submodule lattice against Birkhoff's count of the submodules of each
type."""

from collections import Counter
import itertools

import pytest

from monocat.base import chain_base
from monocat.concrete import ConcreteModule
from monocat.enumerate import (
    _chain_representation,
    _linear_orbits,
    is_linear_chain,
    modules_up_to_length,
)
from monocat.exact import is_injective_map
from monocat.quiver import builtin_quiver
from monocat.rep import Representation, is_iso_reps
from monocat.serialmod import serial_module

import oracles
from oracles import apply_morphism, element_number, module_elements, order_of


# (arith, p, n, parts): the zero module, single parts and mixed sums; the
# cases over fields come last
TABLE_CASES = [
    (arith, p, n, parts)
    for arith in ("int", "poly")
    for p, n, part_lists in (
        (2, 3, ([], ["M1"], ["M3"], ["M3", "M1"], ["M2", "M2", "M1"])),
        (3, 2, ([], ["M2"], ["M2", "M1"], ["M1", "M1"])),
        (5, 2, ([], ["M1"], ["M2"], ["M2", "M1"])),
    )
    for parts in part_lists
] + [("poly", 2, 1, parts) for parts in ([], ["M1"], ["M1", "M1", "M1"])] + [
    ("int", 3, 1, ["M1", "M1"])]


@pytest.mark.parametrize("arith,p,n,parts", TABLE_CASES)
def test_tables_are_the_elementwise_operations(arith, p, n, parts):
    """Element i of the function model (``oracles.module_elements``) has the
    mixed-radix number i (part 0 most significant, each part's digit its
    ring number); the tables are tuple addition and scalar multiplication
    truncated per part, read back through the numbering; and the element
    orders and the split test of every submodule against each coordinate
    projection are those of the tuple oracles."""
    conc = ConcreteModule(serial_module(chain_base(arith, p, n), parts))
    module, lengths = conc.module, [int(label[1:]) for label in parts]
    elements = module_elements(module)
    assert [element_number(module, e) for e in elements] == list(range(conc.size))
    assert conc.size == p ** sum(lengths) and conc.zero == 0

    conc.build_tables()
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            total = tuple((x + y).truncate(l) for x, y, l in zip(a, b, lengths))
            assert conc._add_table[i][j] == element_number(module, total)
    ring = conc.ring
    assert len(conc._scalar_table) == ring.size
    for c in ring.elements():
        assert conc._scalar_table[c.num] == [
            element_number(module, tuple((c * x).truncate(l) for x, l in zip(a, lengths)))
            for a in elements]

    assert [conc.order_of(i) for i in range(conc.size)] == [order_of(module, e) for e in elements]
    projections = oracles.coordinate_idempotents(module)
    assert len(conc.coordinate_masks()) == len(projections)
    for mask in conc.submodules():
        # bit k is set iff the projection e_k maps the submodule into itself
        elements = conc.mask_elements(mask)
        assert conc.kept_idempotents(mask) == sum(
            1 << k for k, e in enumerate(projections) if all(mask >> e[x] & 1 for x in elements))


@pytest.mark.parametrize("arith,p,n,parts", TABLE_CASES)
def test_socle_cosets_and_echelon_generators_on_every_submodule(arith, p, n, parts):
    """For every submodule S: soc V <= S + rad V, with S + rad V closed
    element by element (``oracles.submodule_mask``), exactly when S meets
    each of the ``top_cosets``; and the ``generators`` of S span it, one
    per part at most: the first nonzero digits of the generators lie in
    strictly increasing parts, each of least valuation among the elements
    of S whose digits before that part are zero."""
    conc = ConcreteModule(serial_module(chain_base(arith, p, n), parts))
    module, ring = conc.module, conc.ring
    lengths = [int(label[1:]) for label in parts]
    elements = module_elements(module)
    times_pi = [tuple((ring.pi * c).truncate(l) for c, l in zip(x, lengths)) for x in elements]
    radical = set(times_pi)
    socle = sum(1 << i for i, y in enumerate(times_pi) if all(c.is_zero() for c in y))
    tops = conc.top_cosets()
    assert len(tops) == lengths.count(1)
    for mask in conc.submodules():
        members = [elements[i] for i in conc.mask_elements(mask)]
        covered = oracles.submodule_mask(module, members + list(radical))
        assert (socle & ~covered == 0) == all(mask & c for c in tops)

        gens = conc.generators(mask)
        assert oracles.submodule_mask(module, [elements[g] for g in gens]) == mask
        leads = [next(i for i, c in enumerate(elements[g]) if not c.is_zero()) for g in gens]
        assert leads == sorted(set(leads))
        for g, i in zip(gens, leads):
            level = [x for x in members if all(c.is_zero() for c in x[:i])]
            assert elements[g][i].valuation() == min(x[i].valuation() for x in level)


def _check_inclusions(conc) -> tuple:
    """For every submodule mask S: the inclusion is monic and its image,
    read back through the numbering, is S; its source parts are those of
    the Smith-form oracle (``oracles.submodule_inclusion``), and where the
    echelon generators are redundant (no basis) the inclusion is the
    oracle's.  With a basis (h_i, o_i), ``coordinates`` gives every element
    of S once, as sum_i c_i h_i with c_i < p^{o_i}.  Returns the numbers of
    redundant masks and of all masks."""
    module, ring = conc.module, conc.ring
    elements = module_elements(module)
    by_number = {c.num: c for c in ring.elements()}
    lengths = [conc.base.length(label) for label in module.parts]
    redundant, subs = 0, conc.submodules()
    for mask in subs:
        S, incl, basis = conc.submodule_inclusion(mask)
        assert is_injective_map(incl)
        assert sorted({element_number(module, apply_morphism(incl, x))
                       for x in module_elements(S)}) == conc.mask_elements(mask)
        oracle = oracles.submodule_inclusion(module, conc.generators(mask))
        assert S.parts == oracle[0].parts
        if basis is None:
            redundant += 1
            assert (S, incl) == oracle
            continue
        assert [o for _, o in basis] == [conc.base.length(label) for label in S.parts]
        coords = conc.coordinates(mask)
        assert sorted(coords) == conc.mask_elements(mask)
        for x, cs in coords.items():
            assert all(c < ring.p ** o for c, (_, o) in zip(cs, basis))
            total = [ring.zero for _ in lengths]
            for c, (h, _) in zip(cs, basis):
                total = [(t + by_number[c] * y).truncate(l)
                         for t, y, l in zip(total, elements[h], lengths)]
            assert element_number(module, tuple(total)) == x
    return redundant, len(subs)


@pytest.mark.parametrize("arith,p,n,parts", TABLE_CASES)
def test_submodule_inclusions_are_monic_onto_their_masks(arith, p, n, parts):
    _check_inclusions(ConcreteModule(serial_module(chain_base(arith, p, n), parts)))


def test_submodule_inclusions_of_every_linear_a3_sink():
    # the sinks of the linear-a3 benchmark sweep; R(pi, 1) in M2 (+) M2 and
    # its kind take the Smith-form path
    base = chain_base("poly", 2, 3)
    counts = [_check_inclusions(ConcreteModule(m)) for m in modules_up_to_length(base, 5)]
    redundant, total = map(sum, zip(*counts))
    assert 0 < redundant < total


CHAIN_CONFIGS = [
    ("An-linear:3", ("poly", 2, 3), (3, 4, 5)),
    ("An-linear:4", ("poly", 2, 3), (2, 3, 4, 5)),
    ("An-linear:3", ("int", 3, 2), (3, 3, 3)),
]


@pytest.mark.parametrize("qname,base_args,caps", CHAIN_CONFIGS,
                         ids=["a3-poly-2-3", "a4-poly-2-3", "a3-int-3-2"])
def test_chain_representations_match_the_smith_form_chains(qname, base_args, caps):
    """Every class of the linear sweep, built from coordinates over the
    independent bases, is isomorphic to the representation of the same
    chain that the Smith-form engine builds (``oracles.chain_of_inclusions``)."""
    quiver, base = builtin_quiver(qname), chain_base(*base_args)
    order = is_linear_chain(quiver)
    arrows = {(a.source, a.target): a.name for a in quiver.arrows}
    classes = read_off = 0
    for conc, chain, splits in _linear_orbits(quiver, base, dict(zip(quiver.vertices, caps))):
        if splits:
            continue
        rep = _chain_representation(quiver, base, conc, chain)
        modules, maps = oracles.chain_of_inclusions(conc, chain)
        oracle = Representation(quiver, base, dict(zip(order, modules)), {
            arrows[pair]: f for pair, f in zip(zip(order, order[1:]), maps)})
        assert is_iso_reps(rep, oracle)
        bases = [conc.submodule_inclusion(m)[2] for m in chain]
        classes += 1
        read_off += sum(a is not None and b is not None for a, b in zip(bases, bases[1:]))
    assert classes >= 10 and read_off > 0


def _gaussian_binomial(n, k, q):
    out = 1
    for j in range(k):
        out = out * (q ** (n - j) - 1) // (q ** (j + 1) - 1)
    return out


def _birkhoff(lam_conj, mu_conj, p):
    """alpha_lambda(mu; p), the number of submodules of type mu in a module
    of type lambda, from the conjugate partitions (Butler, Mem. AMS 1994)."""
    out = 1
    for i, (l, m) in enumerate(zip(lam_conj, mu_conj)):
        m_next = mu_conj[i + 1] if i + 1 < len(mu_conj) else 0
        out *= p ** (m_next * (l - m)) * _gaussian_binomial(l - m_next, m - m_next, p)
    return out


def _conjugate(lengths, n):
    return tuple(sum(1 for l in lengths if l > i) for i in range(n))


def _submodule_types(conc):
    """Counter of the conjugate type mu' of every submodule mask S, read from
    |S cap ker pi^k| = p^(mu'_1 + ... + mu'_k)."""
    n = conc.ring.n
    conc.build_tables()
    pi = conc._scalar_table[conc.ring.pi.num]
    power = list(range(conc.size))  # element -> pi^k * element
    kernels = []
    for _ in range(n):
        power = [pi[x] for x in power]
        kernels.append(sum(1 << x for x, y in enumerate(power) if y == conc.zero))
    types = Counter()
    for mask in conc.submodules():
        sizes = [0] + [conc.mask_length(mask & kernel) for kernel in kernels]
        types[tuple(b - a for a, b in zip(sizes, sizes[1:]))] += 1
    return types


def _is_submodule(conc, mask):
    """Closed under addition and under pi; both rings are spanned additively
    by the powers of pi and 1, so this is closure under the ring."""
    pi = conc._scalar_table[conc.ring.pi.num]
    elements = conc.mask_elements(mask)
    return (mask >> conc.zero & 1
            and all(mask >> pi[x] & 1 for x in elements)
            and all(mask >> conc._add_table[x][y] & 1 for x in elements for y in elements))


def _check_birkhoff(conc):
    p, n = conc.ring.p, conc.ring.n
    lam_conj = _conjugate([conc.base.length(l) for l in conc.module.parts], n)
    expected = {}
    for mu_conj in itertools.product(*(range(l + 1) for l in lam_conj)):
        if all(a >= b for a, b in zip(mu_conj, mu_conj[1:])):
            expected[mu_conj] = _birkhoff(lam_conj, mu_conj, p)
    found = _submodule_types(conc)
    assert found == expected
    return sum(found.values())


@pytest.mark.parametrize("arith,p,n,parts,total", [
    ("poly", 2, 3, ["M3", "M2", "M1"], 81),
    ("int", 3, 2, ["M2", "M2"], 23),
    ("poly", 2, 4, ["M4", "M2"], 29),
    ("poly", 2, 2, ["M2", "M2", "M1"], 54),
])
def test_submodule_types_follow_birkhoff(arith, p, n, parts, total):
    conc = ConcreteModule(serial_module(chain_base(arith, p, n), parts))
    assert _check_birkhoff(conc) == total
    subs = conc.submodules()
    assert len(set(subs)) == len(subs) == total
    assert all(_is_submodule(conc, mask) for mask in subs)


def _check_lattices(base, length):
    """Birkhoff's counts, distinct masks and closed ones, for every module of
    length at most ``length``."""
    for module in modules_up_to_length(base, length):
        conc = ConcreteModule(module)
        _check_birkhoff(conc)
        subs = conc.submodules()
        assert len(set(subs)) == len(subs)
        assert all(_is_submodule(conc, mask) for mask in subs)


@pytest.mark.parametrize("arith,p,n", [("poly", 2, 3), ("int", 3, 2), ("int", 2, 3)])
def test_submodule_types_follow_birkhoff_up_to_length_five(arith, p, n):
    _check_lattices(chain_base(arith, p, n), 5)


def test_submodule_types_follow_birkhoff_over_f5_up_to_length_four():
    # length 5 would take M1^5, 3,125 elements and 42,176 submodules
    _check_lattices(chain_base("poly", 5, 2), 4)

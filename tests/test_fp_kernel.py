"""The F_p elimination ``exact._Rref`` and the residue tests built on it,
checked against exhaustive counts and brute-force spans; the socle test of
``is_injective_map`` against kernels, on every small map."""

import itertools
import math
import random

import pytest

from monocat.base import chain_base, rad2nak_base
from monocat.enumerate import _socle_columns
from monocat.exact import (
    _fp_invertible,
    _fp_nilpotent,
    _Rref,
    independent_columns,
    is_injective_map,
    kernel,
)
from monocat.serialmod import assemble, hom_space, serial_module

# (q, n): every n x n matrix over F_q is tried
SMALL = [(2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]


def _all_matrices(q, n):
    for entries in itertools.product(range(q), repeat=n * n):
        yield [list(entries[i * n:(i + 1) * n]) for i in range(n)]


def _span(p, rows, width):
    return {
        tuple(sum(c * r[j] for c, r in zip(cs, rows)) % p for j in range(width))
        for cs in itertools.product(range(p), repeat=len(rows))
    }


@pytest.mark.parametrize("q,n", SMALL)
def test_invertible_count_is_order_of_gl(q, n):
    expected = math.prod(q ** n - q ** i for i in range(n))
    assert sum(_fp_invertible(q, m) for m in _all_matrices(q, n)) == expected


@pytest.mark.parametrize("q,n", SMALL)
def test_nilpotent_count_is_fine_herstein(q, n):
    assert sum(_fp_nilpotent(q, m) for m in _all_matrices(q, n)) == q ** (n * (n - 1))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_matches_brute_force_span(p):
    rng = random.Random(p)
    for _ in range(25):
        nrows, ncols = rng.randrange(5), rng.randrange(1, 5)
        rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
        rr = _Rref(p, [], ncols)
        grew = [rr.add(r) for r in rows]
        span = _span(p, rows, ncols)
        assert p ** rr.rank == len(span)
        assert grew == [len(_span(p, rows[:k + 1], ncols)) > len(_span(p, rows[:k], ncols))
                        for k in range(nrows)]
        for i, (row, c) in enumerate(zip(rr.rows, rr.pivots)):
            assert [row[d] for d in rr.pivots] == [int(i == k) for k in range(rr.rank)]
            assert all(x == 0 for x in row[:c])
        for v in itertools.product(range(p), repeat=ncols):
            residual, coords = rr.reduce(v)
            assert (not any(residual)) == (v in span)
            if not any(residual):
                assert v == tuple(sum(a * r[j] for a, r in zip(coords, rr.rows)) % p
                                  for j in range(ncols))


@pytest.mark.parametrize("p", [2, 3])
def test_rref_augmented_rows_keep_their_coefficients(p):
    """Pivots stay in the first ncols columns; the columns past them ride
    along, so a row head || e_k keeps its coefficients over the input rows."""
    rng = random.Random(10 + p)
    for _ in range(25):
        nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 4)
        heads = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
        rr = _Rref(p, ([*h, *(int(i == k) for i in range(nrows))] for k, h in enumerate(heads)),
                   ncols)
        assert p ** rr.rank == len(_span(p, heads, ncols))
        assert all(c < ncols for c in rr.pivots)
        for row in rr.rows:
            combo = [sum(a * h[j] for a, h in zip(row[ncols:], heads)) % p for j in range(ncols)]
            assert combo == row[:ncols]
        # reduce works on the full width: the residual of a combination of
        # the input rows has a zero head
        for cs in itertools.product(range(p), repeat=nrows):
            v = [sum(c * h[j] for c, h in zip(cs, heads)) % p for j in range(ncols)] + list(cs)
            residual, coords = rr.reduce(v)
            assert not any(residual[:ncols])
            back = [(r + sum(a * row[j] for a, row in zip(coords, rr.rows))) % p
                    for j, r in enumerate(residual)]
            assert back == v


@pytest.mark.parametrize("base", [chain_base("int", 2, 3), chain_base("poly", 3, 2),
                                  rad2nak_base(2, 3)], ids=["int-2-3", "poly-3-2", "rad2nak-2-3"])
def test_socle_test_agrees_with_kernels_on_every_small_map(base):
    # every map between modules of at most two parts, and every pair of maps
    # from one-part modules into one such module: jointly monic exactly when
    # the map from the direct sum of the sources has zero kernel (that map is
    # among the first, so its kernel is read from them)
    modules = [serial_module(base, parts) for rank in range(3)
               for parts in itertools.combinations_with_replacement(base.labels, rank)]
    monic = {f: kernel(f)[0].is_zero() for source in modules for target in modules
             for f in hom_space(source, target)}
    assert any(monic.values()) and not all(monic.values())
    for f, verdict in monic.items():
        assert is_injective_map(f) == verdict, f
    # the cached socle columns of the generic sweep give the same verdicts
    for source in modules:
        for target in modules:
            space = hom_space(source, target)
            assert [independent_columns(base.ring.p, target.rank, columns)
                    for columns in _socle_columns(space)] == [monic[f] for f in space]
    singles = [m for m in modules if m.rank == 1]
    for target in modules:
        for a, b in itertools.product(singles, repeat=2):
            for f, g in itertools.product(hom_space(a, target), hom_space(b, target)):
                joint, _, _ = assemble(base, [a, b], [target], {(0, 0): f, (0, 1): g})
                assert is_injective_map(f, g) == monic[joint], (f, g)

"""The chain-ring Smith engine ``exact.snf_free`` with rider rows and columns,
and ``solve_hom_system`` built on it, checked against brute force over every
value of the slots."""

import itertools
import random

import pytest

from monocat.base import chain_base
from monocat.exact import snf_free, solve_hom_system
from oracles import list_solutions, solution_subgroup

BASES = [chain_base("int", 2, 3), chain_base("poly", 2, 3), chain_base("poly", 3, 2),
         chain_base("int", 3, 2)]
IDS = ["chain:int:2:3", "chain:poly:2:3", "chain:poly:3:2", "chain:int:3:2"]


def _random_system(ring, rng):
    """(moduli, rows) with at most 3 slots and 4 rows.  Each coefficient of
    slot t in a row mod pi^q is a multiple of pi^(q - moduli[t]), so the row
    is well defined on x_t mod pi^moduli[t]."""
    n = ring.n
    elements = list(ring.elements())
    moduli = [rng.randint(0, n) for _ in range(rng.randint(1, 3))]
    rows = []
    for _ in range(rng.randint(0, 4)):
        q = rng.randint(0, n)
        coeffs = [rng.choice(elements).shift_up(max(0, q - m)) if rng.random() < 0.8 else ring.zero
                  for m in moduli]
        rows.append((coeffs, rng.choice(elements) if rng.random() < 0.7 else ring.zero, q))
    return moduli, rows


def _holds(row, x):
    coeffs, r, q = row
    total = -r
    for a, v in zip(coeffs, x):
        total = total + a * v
    return total.truncate(q).is_zero()


def _brute_force(ring, moduli, rows):
    """Every slot vector (x_t mod pi^moduli[t]) satisfying every row."""
    values = [sorted({c.truncate(m) for c in ring.elements()}, key=lambda c: c.num)
              for m in moduli]
    return {x for x in itertools.product(*values) if all(_holds(row, x) for row in rows)}


@pytest.mark.parametrize("base,name", zip(BASES, IDS), ids=IDS)
def test_solve_hom_system_matches_brute_force(base, name):
    ring = base.ring
    rng = random.Random(f"solve:{name}")
    for _ in range(60):
        moduli, rows = _random_system(ring, rng)
        homogeneous = [(coeffs, ring.zero, q) for coeffs, _, q in rows]
        solutions = _brute_force(ring, moduli, rows)
        kernel = _brute_force(ring, moduli, homogeneous)
        sol = solve_hom_system(ring, moduli, rows)
        assert (sol is None) == (not solutions)
        assert solution_subgroup(solve_hom_system(ring, moduli, homogeneous), 10 ** 6) == kernel
        if sol is None:
            continue
        particular = sol._trunc(sol.particular)
        assert all(_holds(row, particular) for row in rows)
        assert solution_subgroup(sol, 10 ** 6) == kernel
        assert set(list_solutions(sol, 10 ** 6)) == solutions


@pytest.mark.parametrize("base,name", zip(BASES, IDS), ids=IDS)
def test_solve_hom_system_without_slots_or_rows(base, name):
    """``_random_system`` always draws a slot.  Without slots a system is
    consistent exactly when every right-hand side vanishes mod pi^q, and then
    has no generators; without rows the generators are the unit vectors and
    the particular solution is zero.  Both are checked against brute force."""
    ring = base.ring
    n = ring.n
    elements = list(ring.elements())
    for rows in itertools.product([([], r, q) for r in elements for q in range(n + 1)],
                                  repeat=2):
        sol = solve_hom_system(ring, [], list(rows))
        consistent = all(r.truncate(q).is_zero() for _, r, q in rows)
        assert bool(_brute_force(ring, [], rows)) == consistent
        assert (sol is None) == (not consistent)
        if consistent:
            assert sol.particular == [] and sol.generators == []
    for T in range(4):
        for moduli in itertools.product(range(n + 1), repeat=T):
            sol = solve_hom_system(ring, list(moduli), [])
            assert sol.particular == [ring.zero] * T
            assert sol.generators == [[ring.one if i == k else ring.zero for i in range(T)]
                                      for k in range(T)]
            assert set(list_solutions(sol, 10 ** 6)) == _brute_force(ring, moduli, [])


def _mat_mul(ring, A, B):
    return [[sum((a * B[k][j] for k, a in enumerate(row)), ring.zero) for j in range(len(B[0]))]
            for row in A]


@pytest.mark.parametrize("base,name", zip(BASES, IDS), ids=IDS)
def test_riders_carry_the_transforms_and_leave_the_pivots(base, name):
    """With the identity riding along as columns and as rows, the block ends
    as S = U*A*V with S diagonal of pi^(valuations), a further rider column
    b ends as U*b, and neither kind of rider changes the valuations."""
    ring = base.ring
    n, tab = ring.n, ring.tables
    elements = list(ring.elements())
    rng = random.Random(f"riders:{name}")
    for _ in range(60):
        E, T = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.choice(elements).shift_up(rng.choice([0, 0, 1, n])) for _ in range(T)]
             for _ in range(E)]
        b = [rng.choice(elements) for _ in range(E)]
        bare = [[c.num for c in row] for row in A]
        vals = snf_free(ring, bare, E, T)
        assert len(vals) == min(E, T)

        M = [[c.num for c in row] + [int(i == j) for j in range(E)] + [b[i].num]
             for i, row in enumerate(A)]
        M += [[int(i == j) for j in range(T)] + [0] * (E + 1) for i in range(T)]
        assert snf_free(ring, M, E, T) == vals
        S = [[tab.elems[x] for x in row[:T]] for row in M[:E]]
        U = [[tab.elems[x] for x in row[T:T + E]] for row in M[:E]]
        V = [[tab.elems[x] for x in row[:T]] for row in M[E:]]
        Ub = [tab.elems[row[T + E]] for row in M[:E]]
        assert S == [[ring.pi_pow(vals[i]) if i == j and i < len(vals) else ring.zero
                      for j in range(T)] for i in range(E)]
        assert _mat_mul(ring, _mat_mul(ring, U, A), V) == S
        assert Ub == [row[0] for row in _mat_mul(ring, U, [[x] for x in b])]
        assert vals == sorted(vals)

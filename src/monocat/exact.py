"""Exact linear algebra for serial modules: Smith-style reduction, kernels,
cokernels, images, lifting/solving, and monomorphism and isomorphism tests.

Every equation in unknown morphisms -- f o h = g, h o f = g, and the
naturality and lifting systems of representations -- is built by one
``HomSystem`` and solved by ``solve_hom_system``.  One engine backs the
abelian operations: everything is lifted to free presentations over the
chain ring itself, where honest Smith normal form exists (every element is a
unit times a power of pi).  ``snf_free`` eliminates in place on element
numbers and builds only the transforms its caller reads: columns past the
matrix (a right-hand side, or an identity) ride along with the row
operations and end as U times them, and identity rows below it ride along
with the column operations and end as V.  Kernels are computed from
cokernels through the exact self-duality D(R/pi^a) = R/pi^a, which
transposes matrices and keeps coefficients.  A rad2nak map is pushed down to a graded map over
F_p[x]/(x^2), and its kernel and cokernel are pulled back by reading each
part's grade off the homogeneous entries.

``kernel``, ``cokernel``, ``image``, ``solve_right`` and ``solve_left`` are
memoized by value with ``serialmod.memo``.  Their arguments and results are
immutable values (frozen modules and morphisms, tuples of them, or None), and
nothing mutates a returned module or map, so a repeated call returns a value
equal to the one a fresh call would build.  The shape and backing checks
raise on every call: a call that raises is not cached.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .base import CHAIN, SerialBase, chain_base
from .chainring import POLY
from .serialmod import (
    SerialModule,
    SerialMorphism,
    memo,
    mor_block,
    morphism,
    serial_module,
)


def _require_abelian(base: SerialBase, what: str):
    if not base.is_abelian:
        raise ValueError(f"unsupported base for {what}: stable backings are additive-only")


# -- Smith normal form over the chain ring itself (free modules) ----------------


def snf_free(ring, M: List[list], nrows: int, ncols: int) -> List[int]:
    """Diagonalize the leading nrows x ncols block A of M over the chain
    ring by unimodular row and column operations, in place on element
    numbers through the ring's tables.

    Pivots come only from that block, and one of globally minimal valuation
    divides every remaining entry, so all eliminations are exact; each pivot
    is normalized to pi^e.  Columns past ``ncols`` are rider columns: they
    go through the row operations only, so a rider column b ends as U*b.
    Rows past ``nrows`` are rider rows: they go through the column
    operations only, so rider rows holding the identity end as V.  Where
    they cross, nothing is read or changed.  The block ends as S = U*A*V.

    Returns the valuations of the min(nrows, ncols) diagonal entries of S; a
    position past the last pivot has valuation n."""
    tab = ring.tables
    add, mul, neg, val, sdn, inv = tab.add, tab.mul, tab.neg, tab.val, tab.shift_down, tab.inv
    n = ring.n
    riders = M[nrows:]
    vals = [n] * min(nrows, ncols)
    for k in range(len(vals)):
        best = None
        best_val = n
        for i in range(k, nrows):
            row = M[i]
            for j in range(k, ncols):
                v = val[row[j]]
                if v < best_val:
                    best, best_val = (i, j), v
                    if v == 0:
                        break
            if best_val == 0:
                break
        if best is None:
            break
        bi, bj = best
        if bi != k:
            M[k], M[bi] = M[bi], M[k]
        if bj != k:
            for row in M:
                row[k], row[bj] = row[bj], row[k]
        e = vals[k] = best_val
        Mk = M[k]
        u_inv = inv[sdn[e][Mk[k]]]
        if u_inv != 1:
            mu = mul[u_inv]
            Mk = M[k] = [mu[x] for x in Mk]
        for i in range(nrows):
            x = M[i][k]
            if i == k or x == 0:
                continue
            mc = mul[neg[sdn[e][x]]]
            M[i] = [add[a][mc[b]] for a, b in zip(M[i], Mk)]
        # after the row operations only row k and the rider rows can be
        # nonzero in column k
        ops = [(j, mul[neg[sdn[e][Mk[j]]]]) for j in range(ncols) if j != k and Mk[j]]
        for row in (Mk, *riders):
            x = row[k]
            if x == 0:
                continue
            for j, mc in ops:
                row[j] = add[row[j]][mc[x]]
    return vals


# -- linear systems in hom coefficients ------------------------------------------


class LinearSolution:
    """Solution set of a linear system in hom coefficients.

    The full set is { particular + g : g in the subgroup spanned by the
    homogeneous generators }, everything reduced modulo the per-slot moduli.
    """

    def __init__(self, ring, moduli, particular, generators):
        self.ring = ring
        self.moduli = moduli
        self.particular = particular
        self.generators = generators

    def _trunc(self, vec):
        return tuple(x.truncate(m) for x, m in zip(vec, self.moduli))

    def random(self, rng):
        vec = list(self.particular)
        for gen in self.generators:
            digits = tuple(rng.randrange(self.ring.p) for _ in range(self.ring.n))
            c = self.ring.elem(digits)
            vec = [x + c * g for x, g in zip(vec, gen)]
        return self._trunc(vec)


def solve_hom_system(ring, moduli: Sequence[int], rows) -> Optional[LinearSolution]:
    """Solve sum_t A_t x_t = r (mod pi^q) per row; slots x_t live mod pi^moduli[t].

    Rows are triples (coeffs, rhs, q).  Returns None when inconsistent.

    Each row is scaled by pi^(n - q) to an equation mod pi^n and reduced by
    ``snf_free``: a nonzero right-hand side rides along as a column, giving
    U*r, and the identity rides along as rows, giving V.  With S = U*A*V
    diagonal, x = V*y where pi^e_k y_k = (U*r)_k; each diagonal entry with
    e_k > 0 adds the homogeneous generator pi^(n - e_k) times column k of V.
    Systems without slots or without rows take the same elimination: with
    no slots a nonzero right-hand side is inconsistent, and with no rows
    every slot is free, so V = 1 gives the unit generators.  V has T
    columns: ``snf_free`` never reads a rider row past the block.
    """
    n = ring.n
    tab = ring.tables
    T = len(moduli)
    M = []
    for coeffs, r, q in rows:
        up = tab.shift_up[n - q]
        M.append([up[c.num] for c in coeffs] + [up[r.num]])
    E = len(M)
    homogeneous = not any(row[T] for row in M)
    if homogeneous:
        for row in M:
            row.pop()
    V = [[int(i == j) for j in range(T)] for i in range(T)]
    M += V
    vals = snf_free(ring, M, E, T)
    elems = tab.elems
    if homogeneous:
        particular = [ring.zero] * T
    else:
        add, mul, val, sdn = tab.add, tab.mul, tab.val, tab.shift_down
        y = [0] * T
        for k in range(E):
            c = M[k][T]
            if c == 0:
                continue
            e = vals[k] if k < T else n
            if val[c] < e:
                return None
            y[k] = sdn[e][c]
        particular = []
        for row in V:
            acc = 0
            for a, b in zip(row, y):
                if a and b:
                    acc = add[acc][mul[a][b]]
            particular.append(elems[acc])

    generators = []
    for k in range(T):
        e = vals[k] if k < len(vals) else n
        if e == 0:
            continue
        up = tab.shift_up[n - e]
        col = [up[row[k]] for row in V]
        if any(col):
            generators.append([elems[x] for x in col])
    return LinearSolution(ring, moduli, particular, generators)


# -- hom equations: one builder for naturality, lifting and solving ---------------


class HomSystem:
    """Linear equations in unknown morphisms, in ``solve_hom_system``'s form.

    ``unknowns`` maps each key to (A, B), an unknown X_key: A -> B.  Its
    slots are ``(key, i, j)``, the coefficient of X_key from part j of A to
    part i of B, numbered in key order, then i, then j; ``moduli`` are their
    hom lengths.  Hom(R, S) between representations is one unknown per
    vertex and one ``equate`` per arrow (X_t o R_a - S_a o X_s = 0)."""

    def __init__(self, base: SerialBase, unknowns: dict):
        self.base = base
        self.unknowns = unknowns
        self.offsets = {}
        self.slots = []
        self.moduli = []
        for key, (A, B) in unknowns.items():
            self.offsets[key] = len(self.slots)
            for i, b in enumerate(B.parts):
                for j, a in enumerate(A.parts):
                    self.slots.append((key, i, j))
                    self.moduli.append(base.hom_length(a, b))
        self.slot_index = {slot: idx for idx, slot in enumerate(self.slots)}
        self.rows = []

    def copy(self) -> "HomSystem":
        """The same unknowns and rows; rows equated later stay in the copy."""
        twin = HomSystem.__new__(HomSystem)
        twin.__dict__.update(self.__dict__, rows=list(self.rows))
        return twin

    def equate(self, source: SerialModule, target: SerialModule, terms, rhs=None):
        """Append the rows of sum_t sign_t * (g_t o X_key o f_t) = rhs in
        Hom(source, target), one per entry (k, j), k over the target parts.

        Each term is (sign, g, key, f) with exactly one of g, f None: g is
        a map B_key -> target (then A_key = source), f a map source -> A_key
        (then B_key = target).  ``rhs`` is a morphism source -> target, or
        None for zero."""
        base = self.base
        zero, one = base.zero_coeff(), base.one_coeff()
        a, c = source.parts, target.parts
        for k in range(len(c)):
            for j in range(len(a)):
                coeffs = [zero] * len(self.slots)
                for sign, g, key, f in terms:
                    A, B = self.unknowns[key]
                    off = self.offsets[key]
                    if f is None:  # (g o X)[k][j] = sum_i g[k][i] X[i][j]
                        cells = ((off + i * A.rank + j, b, g.entries[k][i], one)
                                 for i, b in enumerate(B.parts))
                    else:  # (X o f)[k][j] = sum_i X[k][i] f[i][j]
                        cells = ((off + k * A.rank + i, b, one, f.entries[i][j])
                                 for i, b in enumerate(A.parts))
                    for s, b, v, u in cells:
                        if v.is_zero() or u.is_zero():
                            continue
                        w = base.compose_coeff(a[j], b, c[k], v, u)
                        coeffs[s] = coeffs[s] + w if sign > 0 else coeffs[s] - w
                self.rows.append((coeffs, zero if rhs is None else rhs.entries[k][j],
                                  base.hom_length(a[j], c[k])))

    def solve(self) -> Optional[LinearSolution]:
        # positional: the benchmark's tracer reads the rows as args[2]
        return solve_hom_system(self.base.ring, self.moduli, self.rows)

    def morphisms(self, vec) -> dict:
        """The unknowns X_key given by a solution vector."""
        out = {}
        for key, (A, B) in self.unknowns.items():
            off = self.offsets[key]
            out[key] = morphism(A, B, [vec[off + i * A.rank: off + (i + 1) * A.rank]
                                       for i in range(B.rank)])
        return out


@memo
def solve_right(f: SerialMorphism, g: SerialMorphism) -> Optional[SerialMorphism]:
    """Some h with f o h = g, or None; deterministic by Smith back-substitution.
    Solved one column of g at a time."""
    if f.target != g.target:
        raise ValueError("solve_right: targets differ")
    M, N = f.source, f.target
    cols = []
    for j in range(g.source.rank):
        gj = mor_block(g, range(N.rank), [j])
        system = HomSystem(f.base, {0: (gj.source, M)})
        system.equate(gj.source, N, [(1, f, 0, None)], gj)
        sol = system.solve()
        if sol is None:
            return None
        cols.append(system.morphisms(sol.particular)[0].entries)
    return morphism(g.source, M, [[col[i][0] for col in cols] for i in range(M.rank)])


@memo
def solve_left(f: SerialMorphism, g: SerialMorphism) -> Optional[SerialMorphism]:
    """Some h with h o f = g, or None.  Solved one row of g at a time."""
    if f.source != g.source:
        raise ValueError("solve_left: sources differ")
    M, N = f.source, f.target
    rows = []
    for l in range(g.target.rank):
        gl = mor_block(g, [l], range(M.rank))
        system = HomSystem(f.base, {0: (N, gl.target)})
        system.equate(M, gl.target, [(1, None, 0, f)], gl)
        sol = system.solve()
        if sol is None:
            return None
        rows.append(system.morphisms(sol.particular)[0].entries[0])
    return morphism(N, g.target, rows)


# -- kernel / cokernel / image: chain engine --------------------------------------


def _chain_cokernel(f: SerialMorphism):
    """The cokernel of f from the Smith form of its free presentation [A | D]:
    A lifts each entry c*g_{b<-a} to c*pi^max(0, b-a) in R, and D = diag(pi^b)
    over the target parts b.  The identity rides along as columns, so each
    part M_e of the cokernel (a diagonal entry of valuation e > 0) is
    projected onto by row k of U."""
    base = f.base
    ring = base.ring
    t, s = f.target.rank, f.source.rank
    tab = ring.tables
    source_lengths = [base.length(a) for a in f.source.parts]
    lengths = [base.length(b) for b in f.target.parts]
    G = []
    for i, (row, b) in enumerate(zip(f.entries, lengths)):
        rel, unit = [0] * t, [0] * t
        rel[i], unit[i] = ring.pi_pow(b).num, 1
        G.append([tab.shift_up[max(0, b - a)][e.num] for e, a in zip(row, source_lengths)]
                 + rel + unit)
    vals = snf_free(ring, G, t, s + t)

    kept = [(k, e) for k, e in enumerate(vals) if e > 0]  # (row of U, valuation)
    labels = [f"M{e}" for (_, e) in kept]
    order = sorted(range(len(kept)), key=lambda idx: (base.label_sort_key(labels[idx]), idx))
    C = serial_module(base, [labels[idx] for idx in order])
    val, sdn, elems = tab.val, tab.shift_down, tab.elems
    entries = []
    for idx in order:
        k, e = kept[idx]
        row = []
        for u, b in zip(G[k][s + t:], lengths):
            if e > b:
                if val[u] < e - b:
                    raise AssertionError("cokernel projection entry not divisible")
                u = sdn[e - b][u]
            row.append(elems[u])
        entries.append(row)
    q = morphism(f.target, C, entries)
    return C, q


def _chain_kernel(f: SerialMorphism):
    """Kernel through the self-duality: the dual of the cokernel of the dual."""
    C, q = _chain_cokernel(dual_morphism(f))
    return C, dual_morphism(q)


def dual_morphism(f: SerialMorphism) -> SerialMorphism:
    """Matlis-style dual over a chain backing: transpose the matrix, keep
    coefficients and labels.  Hom(M_a, M_b) and Hom(M_b, M_a) have the same
    length, so every entry stays canonical."""
    entries = tuple(tuple(row[j] for row in f.entries) for j in range(f.source.rank))
    return SerialMorphism(f.target, f.source, entries)


# -- F_p elimination ---------------------------------------------------------------
#
# _Rref is the one F_p elimination of the package: it serves the socle test
# below, rep.ResidueSpace and the residue tests of rep and decompose
# (_fp_invertible, _fp_nilpotent).


class _Rref:
    """Reduced row echelon form over F_p of the rows added so far.

    Pivots are chosen among the first ``ncols`` columns; entries past them
    ride along (an augmented column, or coefficients carried by each row)."""

    def __init__(self, p, rows, ncols):
        self.p = p
        self.ncols = ncols
        self.rows = []
        self.pivots = []
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec):
        """(residual, coords): vec minus its component along the held rows,
        and the coefficient of each row in that component."""
        p = self.p
        v = [x % p for x in vec]
        coords = []
        for row, c in zip(self.rows, self.pivots):
            f = v[c]
            coords.append(f)
            if f:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        return v, coords

    def add(self, vec) -> bool:
        """Append vec unless it is in the span of the first ncols columns;
        True when the rank grew."""
        p = self.p
        v, _ = self.reduce(vec)
        c = next((j for j in range(self.ncols) if v[j]), None)
        if c is None:
            return False
        inv = pow(v[c], -1, p)
        v = [(x * inv) % p for x in v]
        for i, row in enumerate(self.rows):
            f = row[c]
            if f:
                self.rows[i] = [(x - f * y) % p for x, y in zip(row, v)]
        self.rows.append(v)
        self.pivots.append(c)
        return True


def _fp_invertible(p, mat) -> bool:
    """Whether a square matrix over F_p (a list of rows) is invertible."""
    rr = _Rref(p, (), len(mat))
    return all(rr.add(row) for row in mat)


def _fp_nilpotent(p, mat) -> bool:
    """Whether a square matrix over F_p is nilpotent: mat^(2^k) = 0 with 2^k > d."""
    d = len(mat)
    m = [row[:] for row in mat]
    for _ in range(max(1, d.bit_length())):
        if all(x % p == 0 for row in m for x in row):
            return True
        m = [[sum(m[i][k] * m[k][j] for k in range(d)) % p for j in range(d)] for i in range(d)]
    return all(x % p == 0 for row in m for x in row)


def _combine(p, basis, coords, n):
    out = [0] * n
    for c, v in zip(coords, basis):
        if c % p:
            out = [(x + c * y) % p for x, y in zip(out, v)]
    return out


# -- kernel / cokernel over rad2nak: the chain engine on graded modules -------------
#
# A module over the cyclic rad^2 = 0 Nakayama algebra with m simples is a
# Z/m-graded F_p[x]/(x^2)-module, x raising the grade by one (Gordon-Green
# 1982, graded modules and Galois coverings); forgetting the grade is exact
# and faithful.  P_g is M2 with its top in grade g and S_g is M1 in grade g.
# Every pushed-down entry is homogeneous (c*pi for a rad entry, c for the
# others), and every step of snf_free keeps rows and columns homogeneous: the
# pivot has least valuation and each step subtracts entry/pivot times the
# pivot line.  So the chain kernel inclusion and cokernel projection come
# back homogeneous, and the grade of each new part is read off its entries.


def _push_down(f: SerialMorphism) -> SerialMorphism:
    """f as a map of F_p[x]/(x^2)-modules, parts in the same order; each
    entry stays canonical, so the matrix is built as it is."""
    base = f.base
    p = base.ring.p
    carrier = chain_base(POLY, p, 2)
    elems = carrier.ring.tables.elems
    entries = tuple(tuple(elems[c.num * p if c.num and base.gen_kind(a, b) == "rad" else c.num]
                          for a, c in zip(f.source.parts, row))
                    for b, row in zip(f.target.parts, f.entries))
    source, target = (serial_module(carrier, [f"M{base.length(a)}" for a in M.parts])
                      for M in (f.source, f.target))
    return SerialMorphism(source, target, entries)


def _pull_back(h: SerialMorphism, source: Optional[SerialModule] = None,
               target: Optional[SerialModule] = None) -> SerialMorphism:
    """The rad2nak map behind the homogeneous chain map h, given the rad2nak
    module on one side of it, in h's part order.  The top of A_j lands in
    layer l = max(0, len B_i - len A_j) + val(h_ij) of B_i, so grade(A_j) =
    grade(B_i) + l (mod m); that fixes the other side's grades, whose parts
    are then re-sorted into normal form.  AssertionError on an entry that is
    not homogeneous.  A homogeneous entry is a generator of its hom space
    times a digit, so the matrix is built as it is."""
    base = (target if source is None else source).base
    m = base.m
    src = [None] * h.source.rank if source is None else [int(a[1:]) for a in source.parts]
    tgt = [None] * h.target.rank if target is None else [int(b[1:]) for b in target.parts]
    digits = [[0] * h.source.rank for _ in range(h.target.rank)]
    for i, b in enumerate(h.target.parts):
        for j, a in enumerate(h.source.parts):
            c = h.entries[i][j]
            if c.is_zero():
                continue
            v = c.valuation()
            if any(c.digits[v + 1:]):
                raise AssertionError(f"entry {c} of the chain map is not homogeneous")
            digits[i][j] = c.digits[v]
            layer = max(0, int(b[1:]) - int(a[1:])) + v
            if src[j] is None:
                src[j] = (tgt[i] + layer - 1) % m + 1
            elif tgt[i] is None:
                tgt[i] = (src[j] - layer - 1) % m + 1
            elif src[j] != (tgt[i] + layer - 1) % m + 1:
                raise AssertionError(f"entry ({i}, {j}) of the chain map is not homogeneous")

    def relabel(grades, module):
        if None in grades:
            raise AssertionError("a part of the chain kernel or cokernel has no nonzero entry")
        labels = [f"{'P' if q == 'M2' else 'S'}{g}" for q, g in zip(module.parts, grades)]
        order = sorted(range(len(labels)), key=lambda k: (base.label_sort_key(labels[k]), k))
        return serial_module(base, labels), order

    if source is None:
        source, cols = relabel(src, h.source)
        digits = [[row[k] for k in cols] for row in digits]
    else:
        target, rows = relabel(tgt, h.target)
        digits = [digits[k] for k in rows]
    elems = base.ring.tables.elems
    return SerialMorphism(source, target, tuple(tuple(elems[d] for d in row) for row in digits))


# -- public kernel / cokernel / image ----------------------------------------------


@memo
def cokernel(f: SerialMorphism):
    """(C, projection N -> C); the projection is epic."""
    _require_abelian(f.base, "cokernel")
    if f.base.backing == CHAIN:
        return _chain_cokernel(f)
    q = _pull_back(_chain_cokernel(_push_down(f))[1], source=f.target)
    return q.target, q


@memo
def kernel(f: SerialMorphism):
    """(K, inclusion K -> M); the inclusion is monic."""
    _require_abelian(f.base, "kernel")
    if f.base.backing == CHAIN:
        return _chain_kernel(f)
    incl = _pull_back(_chain_kernel(_push_down(f))[1], target=f.source)
    return incl.source, incl


@memo
def image(f: SerialMorphism):
    """(I, inclusion I -> N): the kernel of the cokernel projection of f."""
    _require_abelian(f.base, "image")
    _, q = cokernel(f)
    return kernel(q)


def socle_residue(base, a: str, b: str, c: int) -> int:
    """The socle-matrix entry of a map entry from part a to part b with
    coefficient number c: the residue over F_p of the coefficient of
    soc(a) -> a -> b, the second map c times the canonical generator, on the
    canonical generator of Hom(soc a, b) (the socle inclusion of b), 0 where
    that hom space is zero.  Read from ``compose_table``."""
    return base.compose_table(base.socle_label(a), a, b)[c][1] % base.ring.p


def socle_columns(f: SerialMorphism):
    """The socle matrix of f by columns, one per source part a, in order:
    the ``socle_residue`` of a's entries, one per target part."""
    base = f.base
    return ([socle_residue(base, a, b, row[j].num) for b, row in zip(f.target.parts, f.entries)]
            for j, a in enumerate(f.source.parts))


def independent_columns(p: int, nrows: int, columns) -> bool:
    """Whether the columns, vectors of length nrows over F_p, are linearly
    independent."""
    rr = _Rref(p, (), nrows)
    return all(rr.add(column) for column in columns)


def is_injective_map(*maps: SerialMorphism) -> bool:
    """Whether the maps, all into one module (+) b_i, are jointly monic: the
    map they induce from the direct sum of their sources is.  Decided on
    the socle; one map is the usual test.

    The socle of the source is essential, so f is monic iff its restriction
    to the socle is.  That restriction sends the simple socle of a_j into the
    socles of the b_i; its F_p matrix has at (i, j) the ``socle_residue`` of
    the entry.  The maps are jointly monic iff the columns of all their
    matrices together are linearly independent."""
    if not maps:
        return True
    base = maps[0].base
    _require_abelian(base, "is_injective_map")
    target = maps[0].target
    for f in maps:
        if f.target != target:
            raise ValueError("is_injective_map: targets differ")
    return independent_columns(base.ring.p, target.rank,
                               (column for f in maps for column in socle_columns(f)))


def is_iso(f: SerialMorphism) -> bool:
    """Isomorphism test valid over every backing.

    With both sides in normal form, f is invertible iff its label-diagonal
    residue blocks are invertible over F_p (all cross-label entries are
    radical morphisms).
    """
    if f.source.parts != f.target.parts:
        return False
    p = f.base.ring.p
    labels = sorted(set(f.source.parts), key=f.base.label_sort_key)
    for label in labels:
        idx = [k for k, q in enumerate(f.source.parts) if q == label]
        if not _fp_invertible(p, [[f.entries[i][j].digits[0] for j in idx] for i in idx]):
            return False
    return True

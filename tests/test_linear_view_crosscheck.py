"""Cross-validation of the chain-ring kernel engine against a plain F_p
linear-algebra view for the F_p-linear (truncated polynomial) backings: a
module is a vector space with a nilpotent operator, a kernel is a nullspace,
and the serial type is recovered from the rank sequence of the operator.

The rad2nak backings get the same check grade by grade: a module is one
F_p-space per simple plus the radical action from each grade to the next,
and the parts of a kernel or cokernel are counted from ranks alone."""

import random
from collections import Counter

import pytest

from monocat.base import chain_base, rad2nak_base
from monocat.exact import cokernel, kernel
from monocat.serialmod import hom_space, serial_module


def _basis(module):
    base = module.base
    out = []
    for i, part in enumerate(module.parts):
        for k in range(base.length(part)):
            out.append((i, k))
    return out


def _matrix_of(f, p):
    src, tgt = _basis(f.source), _basis(f.target)
    src_idx = {b: i for i, b in enumerate(src)}
    tgt_idx = {b: i for i, b in enumerate(tgt)}
    base = f.base
    mat = [[0] * len(src) for _ in range(len(tgt))]
    for (j, k) in src:
        a = base.length(f.source.parts[j])
        for i in range(f.target.rank):
            b = base.length(f.target.parts[i])
            c = f.entries[i][j]
            shift = max(0, b - a)
            for t, digit in enumerate(c.digits):
                pos = k + shift + t
                if digit and pos < b:
                    mat[tgt_idx[(i, pos)]][src_idx[(j, k)]] = digit % p
    return mat, src, tgt


def _x_matrix(module, p):
    bs = _basis(module)
    idx = {b: i for i, b in enumerate(bs)}
    base = module.base
    mat = [[0] * len(bs) for _ in range(len(bs))]
    for (j, k) in bs:
        if k + 1 < base.length(module.parts[j]):
            mat[idx[(j, k + 1)]][idx[(j, k)]] = 1
    return mat


def _rank(mat, p):
    if not mat or not mat[0]:
        return 0
    m = [row[:] for row in mat]
    rank = 0
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
    return r


def _nullspace(mat, ncols, p):
    if not mat:
        return [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    m = [row[:] for row in mat]
    rows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, rows) if m[i][c] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    basis = []
    pivset = set(pivots)
    for c in range(ncols):
        if c in pivset:
            continue
        vec = [0] * ncols
        vec[c] = 1
        for rr, pc in enumerate(pivots):
            vec[pc] = (-m[rr][c]) % p
        basis.append(vec)
    return basis


def _kernel_partition_linear(f, p, n):
    mat, src, _ = _matrix_of(f, p)
    null = _nullspace(mat, len(src), p)
    if not null:
        return ()
    x = _x_matrix(f.source, p)

    def apply_power(vecs, k):
        out = [v[:] for v in vecs]
        for _ in range(k):
            out = [[sum(row[i] * v[i] for i in range(len(v))) % p for row in x] for v in out]
        return out

    ranks = []
    for k in range(n + 2):
        imgs = apply_power(null, k)
        ranks.append(_rank(imgs, p))
    parts = []
    for a in range(1, n + 1):
        mult = ranks[a - 1] - 2 * ranks[a] + ranks[a + 1]
        parts.extend([a] * mult)
    return tuple(sorted(parts, reverse=True))


def test_kernel_types_agree_with_linear_view():
    rng = random.Random(9)
    for p, n in ((2, 2), (2, 3), (3, 3), (2, 4)):
        base = chain_base("poly", p, n)
        labels = list(base.labels)
        for _ in range(40):
            a = serial_module(base, [rng.choice(labels) for _ in range(rng.randrange(4))])
            b = serial_module(base, [rng.choice(labels) for _ in range(rng.randrange(4))])
            f = hom_space(a, b).random(rng)
            K, _ = kernel(f)
            assert K.partition() == _kernel_partition_linear(f, p, n)


# -- rad2nak: per-grade ranks --------------------------------------------------


def _graded_basis(module):
    """Per grade g, the basis vectors (part index, layer) of degree g: P_g
    has its top (layer 0) in grade g and its socle in grade g + 1."""
    base = module.base
    out = {g: [] for g in range(1, base.m + 1)}
    for i, part in enumerate(module.parts):
        for layer in range(base.length(part)):
            out[(int(part[1:]) + layer - 1) % base.m + 1].append((i, layer))
    return out


def _graded_matrices(f, p):
    """Per grade, the F_p matrix of f: the canonical generator of Hom(a, b)
    sends layer k of a to layer k + 1 of b for incl and rad, to layer k for
    id and proj, and to zero past the length of b."""
    base = f.base
    src, tgt = _graded_basis(f.source), _graded_basis(f.target)
    mats = {}
    for g in src:
        row_of = {v: r for r, v in enumerate(tgt[g])}
        mat = [[0] * len(src[g]) for _ in tgt[g]]
        for col, (j, layer) in enumerate(src[g]):
            for i, b in enumerate(f.target.parts):
                c = f.entries[i][j]
                kind = base.gen_kind(f.source.parts[j], b)
                if c.is_zero() or kind is None:
                    continue
                hit = (i, layer + (kind in ("incl", "rad")))
                if hit in row_of:
                    mat[row_of[hit]][col] = c.digits[0] % p
        mats[g] = mat
    return mats


def _radical_action(module):
    """Per grade g, the matrix of the radical from grade g to grade g + 1:
    the top of each P part goes to its socle."""
    m = module.base.m
    basis = _graded_basis(module)
    out = {}
    for g in basis:
        nxt = basis[g % m + 1]
        out[g] = [[int(w[1] == 0 and v == (w[0], 1)) for w in basis[g]] for v in nxt]
    return out


def _counts(dims, tops, m):
    """Parts per label from the dimension of each grade and the rank of the
    radical on it: rank_g parts P_g, and S_g fills the rest of grade g
    beside the tops of P_g and the socles of P_{g-1}."""
    out = Counter()
    for g in range(1, m + 1):
        out[f"P{g}"] += tops[g]
        out[f"S{g}"] += dims[g] - tops[g] - tops[(g - 2) % m + 1]
    return +out


def _kernel_counts(f, p):
    """ker f_g has dimension d_g - rank f_g, and the radical has rank
    rank [f_g; x_g] - rank f_g on it."""
    m = f.base.m
    F, X = _graded_matrices(f, p), _radical_action(f.source)
    d = {g: len(_graded_basis(f.source)[g]) for g in F}
    dims = {g: d[g] - _rank(F[g], p) for g in F}
    tops = {g: _rank(F[g] + X[g], p) - _rank(F[g], p) for g in F}
    return _counts(dims, tops, m)


def _cokernel_counts(f, p):
    """coker f_g has dimension e_g - rank f_g, and the radical from grade g
    has rank rank [x_g | f_{g+1}] - rank f_{g+1} on it."""
    m = f.base.m
    F, Y = _graded_matrices(f, p), _radical_action(f.target)
    e = {g: len(_graded_basis(f.target)[g]) for g in F}
    dims = {g: e[g] - _rank(F[g], p) for g in F}
    tops = {}
    for g in F:
        nxt = g % m + 1
        joined = [y + x for y, x in zip(Y[g], F[nxt])]
        tops[g] = _rank(joined, p) - _rank(F[nxt], p)
    return _counts(dims, tops, m)


@pytest.mark.parametrize("m,p", [(2, 2), (3, 2), (2, 3)])
def test_rad2nak_kernel_and_cokernel_parts_agree_with_graded_ranks(m, p):
    base = rad2nak_base(m, p)
    labels = list(base.labels)
    rng = random.Random(100 * m + p)
    for _ in range(60):
        a = serial_module(base, [rng.choice(labels) for _ in range(rng.randrange(5))])
        b = serial_module(base, [rng.choice(labels) for _ in range(rng.randrange(5))])
        f = hom_space(a, b).random(rng)
        K, _ = kernel(f)
        C, _ = cokernel(f)
        assert Counter(K.parts) == _kernel_counts(f, p)
        assert Counter(C.parts) == _cokernel_counts(f, p)

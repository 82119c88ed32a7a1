"""Exact arithmetic in commutative chain rings Z/(p^n) and F_p[x]/(x^n).

Both rings are local and uniserial with uniformizer pi (= p or x), residue
field F_p, and pi^n = 0.  Elements are kept in canonical form as a tuple of
n digits in [0, p), little-endian in powers of pi.  The two kinds share one
interface; the only arithmetic difference is that addition/multiplication
carry between digits for the integer kind and do not for the polynomial
kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

INT = "int"
POLY = "poly"

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in _SMALL_PRIMES:
        if p == q:
            return True
        if p % q == 0:
            return False
    d = 41
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class ChainRing:
    """Descriptor of Z/(p^n) (kind 'int') or F_p[x]/(x^n) (kind 'poly')."""

    kind: str
    p: int
    n: int

    def __post_init__(self):
        if self.kind not in (INT, POLY):
            raise ValueError(f"unknown chain ring kind {self.kind!r}")
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.n < 1:
            raise ValueError(f"Loewy length must be >= 1, got {self.n}")

    # -- element constructors ------------------------------------------------

    @property
    def tables(self) -> "_OpTables":
        tab = self.__dict__.get("_tab")
        if tab is None:
            tab = _TABLES.get(self)
            if tab is None:
                tab = _OpTables(self)
                _TABLES[self] = tab
            object.__setattr__(self, "_tab", tab)
        return tab

    def elem(self, digits) -> "ChainRingElem":
        digits = tuple(int(d) % self.p for d in digits)
        if len(digits) != self.n:
            raise ValueError(f"expected {self.n} digits, got {len(digits)}")
        return self.tables.elem(digits)

    def from_int(self, value: int) -> "ChainRingElem":
        return self.tables.elem(_digits_of(self, value))

    @property
    def zero(self) -> "ChainRingElem":
        return self.tables.elem((0,) * self.n)

    @property
    def one(self) -> "ChainRingElem":
        return self.tables.elem((1,) + (0,) * (self.n - 1))

    @property
    def pi(self) -> "ChainRingElem":
        return self.pi_pow(1)

    def pi_pow(self, k: int) -> "ChainRingElem":
        if k >= self.n:
            return self.zero
        digits = [0] * self.n
        digits[k] = 1
        return self.tables.elem(tuple(digits))

    def elements(self) -> Iterator["ChainRingElem"]:
        """All p^n elements, in lexicographic digit order."""
        def rec(prefix):
            if len(prefix) == self.n:
                yield self.tables.elem(tuple(prefix))
                return
            for d in range(self.p):
                yield from rec(prefix + [d])
        yield from rec([])

    def units(self) -> Iterator["ChainRingElem"]:
        return (e for e in self.elements() if e.valuation() == 0)

    @property
    def size(self) -> int:
        return self.p ** self.n

    def __repr__(self):
        if self.kind == INT:
            return f"Z/({self.p}^{self.n})"
        return f"F_{self.p}[x]/(x^{self.n})"


@lru_cache(maxsize=None)
def chain_ring(kind: str, p: int, n: int) -> ChainRing:
    return ChainRing(kind, p, n)


_TABLES: dict = {}


class _OpTables:
    """Interned elements with lookup tables; small rings are fully tabulated,
    larger ones fill the tables lazily."""

    def __init__(self, ring: "ChainRing"):
        self.ring = ring
        n, p = ring.n, ring.p
        self.elems = {}
        self.add = {}
        self.mul = {}
        self.neg = {}
        self.val = {}
        self.trunc = {}
        self.shup = {}
        self.indexed = p ** n <= 256
        if self.indexed:
            digit_tuples = [()]
            for _ in range(n):
                digit_tuples = [t + (d,) for t in digit_tuples for d in range(p)]
            for t in digit_tuples:
                self.elems[t] = ChainRingElem(ring, t)
            for t in digit_tuples:
                self.neg[t] = self.elems[_neg_digits(ring, t)]
                self.val[t] = next((i for i, d in enumerate(t) if d), n)
                for k in range(n + 1):
                    self.trunc[(t, k)] = self.elems[t[:k] + (0,) * (n - k)]
                    self.shup[(t, k)] = self.elems[((0,) * k + t[: n - k]) if k < n else (0,) * n]
            for t1 in digit_tuples:
                row_add = self.add
                row_mul = self.mul
                for t2 in digit_tuples:
                    row_add[(t1, t2)] = self.elems[_add_digits(ring, t1, t2)]
                    row_mul[(t1, t2)] = self.elems[_mul_digits(ring, t1, t2)]
            # flat integer encoding for elimination-heavy code paths
            self.order = [self.elems[t] for t in digit_tuples]
            self.index_of = {t: i for i, t in enumerate(digit_tuples)}
            size = len(digit_tuples)
            self.add_i = [[self.index_of[_add_digits(ring, t1, t2)] for t2 in digit_tuples]
                          for t1 in digit_tuples]
            self.mul_i = [[self.index_of[_mul_digits(ring, t1, t2)] for t2 in digit_tuples]
                          for t1 in digit_tuples]
            self.neg_i = [self.index_of[_neg_digits(ring, t)] for t in digit_tuples]
            self.val_i = [self.val[t] for t in digit_tuples]
            self.shift_down_i = [
                [self.index_of[t[k:] + (0,) * k] if self.val[t] >= k else 0
                 for t in digit_tuples]
                for k in range(n + 1)
            ]
            one_idx = self.index_of[(1,) + (0,) * (n - 1)]
            self.inv_i = [
                (row.index(one_idx) if t[0] % p else None)
                for t, row in zip(digit_tuples, self.mul_i)
            ]

    def elem(self, digits) -> "ChainRingElem":
        e = self.elems.get(digits)
        if e is None:
            e = ChainRingElem(self.ring, digits)
            self.elems[digits] = e
        return e

    def add_op(self, t1, t2):
        e = self.add.get((t1, t2))
        if e is None:
            e = self.elem(_add_digits(self.ring, t1, t2))
            self.add[(t1, t2)] = e
        return e

    def mul_op(self, t1, t2):
        e = self.mul.get((t1, t2))
        if e is None:
            e = self.elem(_mul_digits(self.ring, t1, t2))
            self.mul[(t1, t2)] = e
        return e

    def neg_op(self, t):
        e = self.neg.get(t)
        if e is None:
            e = self.elem(_neg_digits(self.ring, t))
            self.neg[t] = e
        return e

    def val_op(self, t):
        v = self.val.get(t)
        if v is None:
            v = next((i for i, d in enumerate(t) if d), self.ring.n)
            self.val[t] = v
        return v

    def trunc_op(self, t, k):
        e = self.trunc.get((t, k))
        if e is None:
            e = self.elem(t[:k] + (0,) * (self.ring.n - k))
            self.trunc[(t, k)] = e
        return e


def _int_of(ring, digits):
    out = 0
    for d in reversed(digits):
        out = out * ring.p + d
    return out


def _digits_of(ring, value):
    value %= ring.p ** ring.n
    out = []
    for _ in range(ring.n):
        out.append(value % ring.p)
        value //= ring.p
    return tuple(out)


def _add_digits(ring, t1, t2):
    if ring.kind == INT:
        return _digits_of(ring, _int_of(ring, t1) + _int_of(ring, t2))
    return tuple((a + b) % ring.p for a, b in zip(t1, t2))


def _neg_digits(ring, t):
    if ring.kind == INT:
        return _digits_of(ring, -_int_of(ring, t))
    return tuple((-a) % ring.p for a in t)


def _mul_digits(ring, t1, t2):
    if ring.kind == INT:
        return _digits_of(ring, _int_of(ring, t1) * _int_of(ring, t2))
    out = [0] * ring.n
    for i, a in enumerate(t1):
        if a == 0:
            continue
        for j, b in enumerate(t2):
            if i + j >= ring.n:
                break
            out[i + j] = (out[i + j] + a * b) % ring.p
    return tuple(out)


@dataclass(frozen=True)
class ChainRingElem:
    """Element in canonical digit form; equality is digit-wise."""

    ring: ChainRing
    digits: tuple

    def _check(self, other: "ChainRingElem"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def to_int(self) -> int:
        return _int_of(self.ring, self.digits)

    def __add__(self, other: "ChainRingElem") -> "ChainRingElem":
        self._check(other)
        return self.ring.tables.add_op(self.digits, other.digits)

    def __neg__(self) -> "ChainRingElem":
        return self.ring.tables.neg_op(self.digits)

    def __sub__(self, other: "ChainRingElem") -> "ChainRingElem":
        self._check(other)
        t = self.ring.tables
        return t.add_op(self.digits, t.neg_op(other.digits).digits)

    def __mul__(self, other: "ChainRingElem") -> "ChainRingElem":
        self._check(other)
        return self.ring.tables.mul_op(self.digits, other.digits)

    def valuation(self) -> int:
        """pi-adic valuation: index of the first nonzero digit, n if zero."""
        return self.ring.tables.val_op(self.digits)

    def is_zero(self) -> bool:
        return not any(self.digits)

    def is_unit(self) -> bool:
        return self.digits[0] != 0

    def inverse(self) -> "ChainRingElem":
        """Inverse of a unit; raises on non-units."""
        if not self.is_unit():
            raise ZeroDivisionError(f"{self} is not a unit")
        r = self.ring
        if r.kind == INT:
            return r.from_int(pow(self.to_int(), -1, r.p ** r.n))
        # Series inversion: write self = u*(1 + t) with val(t) >= 1, then
        # invert u in F_p and sum the geometric series, truncated at x^n.
        u_inv = pow(self.digits[0], -1, r.p)
        t = r.elem((0,) + self.digits[1:])
        scale = r.elem((u_inv,) + (0,) * (r.n - 1))
        acc = r.one
        term = r.one
        for _ in range(r.n - 1):
            term = -(term * (scale * t))
            acc = acc + term
        return acc * scale

    def shift_down(self, k: int) -> "ChainRingElem":
        """Exact division by pi^k; requires valuation >= k."""
        if k == 0:
            return self
        if self.valuation() < k:
            raise ValueError(f"{self} not divisible by pi^{k}")
        return self.ring.tables.elem(self.digits[k:] + (0,) * k)

    def shift_up(self, k: int) -> "ChainRingElem":
        """Multiplication by pi^k."""
        if k == 0:
            return self
        r = self.ring
        hit = r.tables.shup.get((self.digits, min(k, r.n)))
        if hit is not None:
            return hit
        if k >= r.n:
            return r.zero
        return r.tables.elem((0,) * k + self.digits[: r.n - k])

    def truncate(self, length: int) -> "ChainRingElem":
        """Canonical form modulo pi^length: zero all digits at index >= length."""
        if length >= self.ring.n:
            return self
        return self.ring.tables.trunc_op(self.digits, length)

    def __repr__(self):
        return f"[{';'.join(str(d) for d in self.digits)}]"

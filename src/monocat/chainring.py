"""Exact arithmetic in commutative chain rings Z/(p^n) and F_p[x]/(x^n).

Both rings are local and uniserial with uniformizer pi (= p or x), residue
field F_p, and pi^n = 0.  Elements are kept in canonical form as a tuple of
n digits in [0, p), little-endian in powers of pi, and each is numbered by
the integer those digits spell in base p (``to_int``), the same rule for both
kinds.  Each ring has one set of tables keyed by that number; every entry
is filled on its first lookup, so a ring of any size pays only for the
entries it uses.  Elements are interned: equal elements of equal rings are
one object.  The only arithmetic difference between the kinds is that
addition/multiplication carry between digits for the integer kind and do not
for the polynomial kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

INT = "int"
POLY = "poly"


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


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
        return self.tables.elems[_number(self.p, digits)]

    def from_int(self, value: int) -> "ChainRingElem":
        return self.tables.elems[value % self.size]

    @property
    def zero(self) -> "ChainRingElem":
        return self.tables.elems[0]

    @property
    def one(self) -> "ChainRingElem":
        return self.tables.elems[1]

    @property
    def pi(self) -> "ChainRingElem":
        return self.pi_pow(1)

    def pi_pow(self, k: int) -> "ChainRingElem":
        return self.tables.elems[self.p ** k if k < self.n else 0]

    def elements(self) -> Iterator["ChainRingElem"]:
        """All p^n elements, in number order."""
        elems = self.tables.elems
        return (elems[a] for a in range(self.size))

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


def _number(p, digits):
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


def _digits_of(p, n, value):
    out = []
    for _ in range(n):
        value, d = divmod(value, p)
        out.append(d)
    return tuple(out)


class _Lazy(dict):
    """A table whose missing entry is computed by ``fill(key)`` on first
    lookup and kept."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _OpTables:
    """The tables of one ring, keyed by element number.

    ``add[a][b]``, ``mul[a][b]``, ``neg[a]``, ``inv[a]`` and, for 0 <= k <= n,
    ``shift_up[k][a]`` (times pi^k), ``shift_down[k][a]`` (exact division by
    pi^k) and ``trunc[k][a]`` (modulo pi^k) are element numbers; ``val[a]``
    is the pi-adic valuation and ``elems[a]`` the interned element.
    """

    def __init__(self, ring: ChainRing):
        p, n = ring.p, ring.n
        q = p ** n
        self.ring = ring
        if ring.kind == INT:
            def add(a, b):
                return (a + b) % q

            def mul(a, b):
                return a * b % q

            def neg(a):
                return -a % q
        else:
            def add(a, b):
                da, db = _digits_of(p, n, a), _digits_of(p, n, b)
                return _number(p, [(x + y) % p for x, y in zip(da, db)])

            def mul(a, b):
                da, db = _digits_of(p, n, a), _digits_of(p, n, b)
                out = [0] * n
                for i, x in enumerate(da):
                    if x:
                        for j in range(n - i):
                            out[i + j] = (out[i + j] + x * db[j]) % p
                return _number(p, out)

            def neg(a):
                return _number(p, [-x % p for x in _digits_of(p, n, a)])

        def val(a):
            if a == 0:
                return n
            v = 0
            while a % p == 0:
                a //= p
                v += 1
            return v

        self.elems = _Lazy(lambda a: ChainRingElem(ring, self, a))
        self.add = _Lazy(lambda a: _Lazy(lambda b: add(a, b)))
        self.mul = _Lazy(lambda a: _Lazy(lambda b: mul(a, b)))
        self.neg = _Lazy(neg)
        self.val = _Lazy(val)
        self.inv = _Lazy(self._inverse)
        self.shift_up = [_Lazy(lambda a, s=p ** k: a * s % q) for k in range(n + 1)]
        self.shift_down = [_Lazy(lambda a, s=p ** k: a // s) for k in range(n + 1)]
        self.trunc = [_Lazy(lambda a, s=p ** k: a % s) for k in range(n + 1)]

    def _inverse(self, a):
        """Number of the inverse of unit number a: a^(|units| - 1), since the
        unit group has order (p - 1) p^(n - 1)."""
        p, n = self.ring.p, self.ring.n
        if a % p == 0:
            raise ZeroDivisionError(f"{self.elems[a]} is not a unit")
        mul = self.mul
        e = (p - 1) * p ** (n - 1) - 1
        out, sq = 1, a
        while e:
            if e & 1:
                out = mul[out][sq]
            sq = mul[sq][sq]
            e >>= 1
        return out


class ChainRingElem:
    """Element in canonical digit form, numbered by ``num`` in the tables
    ``tab`` of its ring; equality is digit-wise.  Built only by the tables."""

    __slots__ = ("ring", "tab", "num", "digits", "_hash")

    def __init__(self, ring: ChainRing, tab: _OpTables, num: int):
        self.ring = ring
        self.tab = tab
        self.num = num
        self.digits = _digits_of(ring.p, ring.n, num)
        self._hash = hash((ring, self.digits))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, ChainRingElem) and self.num == other.num and self.ring == other.ring
        )

    def __hash__(self):
        return self._hash

    def _mismatch(self, other: "ChainRingElem"):
        return ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def to_int(self) -> int:
        return self.num

    def __add__(self, other: "ChainRingElem") -> "ChainRingElem":
        tab = self.tab
        if other.tab is not tab:
            raise self._mismatch(other)
        return tab.elems[tab.add[self.num][other.num]]

    def __neg__(self) -> "ChainRingElem":
        tab = self.tab
        return tab.elems[tab.neg[self.num]]

    def __sub__(self, other: "ChainRingElem") -> "ChainRingElem":
        tab = self.tab
        if other.tab is not tab:
            raise self._mismatch(other)
        return tab.elems[tab.add[self.num][tab.neg[other.num]]]

    def __mul__(self, other: "ChainRingElem") -> "ChainRingElem":
        tab = self.tab
        if other.tab is not tab:
            raise self._mismatch(other)
        return tab.elems[tab.mul[self.num][other.num]]

    def valuation(self) -> int:
        """pi-adic valuation: index of the first nonzero digit, n if zero."""
        return self.tab.val[self.num]

    def is_zero(self) -> bool:
        return self.num == 0

    def inverse(self) -> "ChainRingElem":
        """Inverse of a unit; raises ZeroDivisionError on non-units."""
        tab = self.tab
        return tab.elems[tab.inv[self.num]]

    def shift_down(self, k: int) -> "ChainRingElem":
        """Exact division by pi^k; requires valuation >= k."""
        if k == 0:
            return self
        if self.valuation() < k:
            raise ValueError(f"{self} not divisible by pi^{k}")
        tab = self.tab
        return tab.elems[tab.shift_down[k][self.num]]

    def shift_up(self, k: int) -> "ChainRingElem":
        """Multiplication by pi^k."""
        if k == 0:
            return self
        tab = self.tab
        return tab.elems[tab.shift_up[min(k, self.ring.n)][self.num]]

    def truncate(self, length: int) -> "ChainRingElem":
        """Canonical form modulo pi^length: zero all digits at index >= length."""
        if length >= self.ring.n:
            return self
        tab = self.tab
        return tab.elems[tab.trunc[length][self.num]]

    def __repr__(self):
        return f"[{';'.join(str(d) for d in self.digits)}]"

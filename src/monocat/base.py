"""Serial base categories: finitely many uniserial indecomposables with
explicitly tabulated hom modules and composition.

Three backings are supported:

* ``chain`` -- the module category of a chain ring R (labels M1..Mn with
  M_a = R/m^a).  Hom(M_a, M_b) is cyclic over R of length min(a, b); the
  canonical generator acts as x -> pi^max(0, b-a) * x, i.e. "project if
  a >= b, multiply by pi^(b-a) if a <= b".
* ``rad2nak`` -- a radical square zero cyclic Nakayama algebra over F_p with
  m >= 2 simples.  Labels S1..Sm (length 1) and P1..Pm (length 2, top S_i,
  socle S_{i+1 mod m}); every nonzero hom space is one-dimensional.
* ``stable`` -- the injectively stable quotient of another backing: the same
  labels minus the injective ones, with hom modules divided by the subgroup
  of morphisms factoring through injectives.

Every hom space is cyclic with a distinguished canonical generator, so a hom
element is stored as a single coefficient (a ChainRingElem of the ambient
coefficient ring, kept in canonical form modulo the hom length).
"""

from __future__ import annotations

from typing import Optional

from .chainring import INT, POLY, ChainRing, ChainRingElem, _Lazy, chain_ring

CHAIN = "chain"
RAD2NAK = "rad2nak"
STABLE = "stable"


class SerialBase:
    """Common interface of the three backings.

    All instances are immutable after construction, apart from the
    composition tables of ``compose_table``, which only cache
    ``compose_coeff``.  ``chain_base``, ``rad2nak_base`` and ``stable_base``
    build one instance per descriptor, so two bases are equal exactly when
    they are the same object.
    """

    backing: str
    ring: ChainRing          # ambient coefficient ring
    labels: tuple

    # -- structure tables, provided by subclasses ------------------------------

    def length(self, label: str) -> int:
        raise NotImplementedError

    def is_injective(self, label: str) -> bool:
        raise NotImplementedError

    def socle_label(self, label: str) -> str:
        raise NotImplementedError

    def hom_length(self, a: str, b: str) -> int:
        """Length of the cyclic coefficient module of Hom(a, b); 0 means zero space."""
        raise NotImplementedError

    def compose_coeff(self, a: str, b: str, c: str, v: ChainRingElem, u: ChainRingElem) -> ChainRingElem:
        """Coefficient of (v*g_{c<-b}) o (u*g_{b<-a}) on the generator g_{c<-a}."""
        raise NotImplementedError

    def envelope_label(self, label: str) -> str:
        """Label of the injective envelope of the given indecomposable."""
        raise NotImplementedError

    def compose_table(self, a: str, b: str, c: str) -> _Lazy:
        """``compose_coeff(a, b, c, v, u)`` on element numbers: ``table[v][u]``
        is the number of the coefficient, filled from ``compose_coeff`` on
        first read.  One table per label triple, kept on the base."""
        tables = self.__dict__.setdefault("_compose_tables", {})
        table = tables.get((a, b, c))
        if table is None:
            elems = self.ring.tables.elems
            table = tables[a, b, c] = _Lazy(lambda v: _Lazy(
                lambda u: self.compose_coeff(a, b, c, elems[v], elems[u]).num))
        return table

    # -- generic helpers --------------------------------------------------------

    @property
    def is_abelian(self) -> bool:
        return self.backing in (CHAIN, RAD2NAK)

    @property
    def is_selfinjective(self) -> bool:
        return self.backing in (CHAIN, RAD2NAK)

    def check_label(self, label: str):
        if label not in self._label_set:
            raise ValueError(f"unknown label {label!r} for base {self.descriptor()}")

    def label_sort_key(self, label: str):
        # Normal form order: descending length, then label index.
        return (-self.length(label), self.labels.index(label))

    def coeff(self, a: str, b: str, value) -> ChainRingElem:
        """Canonical coefficient of Hom(a, b) from a ring element or an integer."""
        if isinstance(value, int):
            value = self.ring.from_int(value)
        return value.truncate(self.hom_length(a, b))

    def zero_coeff(self) -> ChainRingElem:
        return self.ring.zero

    def one_coeff(self) -> ChainRingElem:
        return self.ring.one

    def hom_elements(self, a: str, b: str):
        """All elements of Hom(a, b) as coefficients, in number order: those
        of hom length l are the ring elements numbered below p^l."""
        elems = self.ring.tables.elems
        return (elems[x] for x in range(self.ring.p ** self.hom_length(a, b)))

    def injective_labels(self) -> tuple:
        return tuple(l for l in self.labels if self.is_injective(l))

    def noninjective_labels(self) -> tuple:
        return tuple(l for l in self.labels if not self.is_injective(l))

    def descriptor(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"SerialBase({self.descriptor()})"


class ChainBase(SerialBase):
    """mod R for a chain ring R: labels M1..Mn, M_n the unique injective."""

    backing = CHAIN

    def __init__(self, ring: ChainRing):
        self.ring = ring
        self.labels = tuple(f"M{a}" for a in range(1, ring.n + 1))
        self._label_set = frozenset(self.labels)
        self._lengths = {l: int(l[1:]) for l in self.labels}

    def length(self, label: str) -> int:
        ln = self._lengths.get(label)
        if ln is None:
            self.check_label(label)
        return ln

    def is_injective(self, label: str) -> bool:
        return self.length(label) == self.ring.n

    def socle_label(self, label: str) -> str:
        self.check_label(label)
        return "M1"

    def hom_length(self, a: str, b: str) -> int:
        return min(self._lengths[a], self._lengths[b])

    def delta(self, a: int, b: int, c: int) -> int:
        """Exponent in g_{c<-b} o g_{b<-a} = pi^delta * g_{c<-a}."""
        return max(0, b - a) + max(0, c - b) - max(0, c - a)

    def compose_coeff(self, a, b, c, v, u):
        la, lb, lc = self._lengths[a], self._lengths[b], self._lengths[c]
        w = (v * u).shift_up(self.delta(la, lb, lc))
        return w.truncate(min(la, lc))

    def envelope_label(self, label: str) -> str:
        self.check_label(label)
        return self.labels[-1]

    def descriptor(self) -> dict:
        return {"kind": "chain", "arith": self.ring.kind, "p": self.ring.p, "n": self.ring.n}


class Rad2NakBase(SerialBase):
    """Radical square zero cyclic Nakayama algebra with m >= 2 simples over F_p.

    Nonzero hom spaces and their canonical generators (indices mod m):
    identities, proj: P_i -> S_i, incl: S_{i+1} -> P_i, and the radical map
    rad: P_{i+1} -> P_i (= incl o proj).  The only nonzero composite of two
    non-identity generators is incl_i o proj_{i+1} = rad_i.
    """

    backing = RAD2NAK

    def __init__(self, m: int, p: int):
        if m < 2:
            raise ValueError("rad2nak requires m >= 2; m = 1 is the chain ring F_p[x]/(x^2)")
        self.m = m
        self.ring = chain_ring(INT, p, 1)
        self.labels = tuple(f"P{i}" for i in range(1, m + 1)) + tuple(f"S{i}" for i in range(1, m + 1))
        self._label_set = frozenset(self.labels)

    def _idx(self, label: str) -> int:
        return int(label[1:])

    def _succ(self, i: int) -> int:
        return i % self.m + 1

    def length(self, label: str) -> int:
        self.check_label(label)
        return 2 if label[0] == "P" else 1

    def is_injective(self, label: str) -> bool:
        return self.length(label) == 2

    def socle_label(self, label: str) -> str:
        self.check_label(label)
        i = self._idx(label)
        return f"S{self._succ(i)}" if label[0] == "P" else label

    def gen_kind(self, a: str, b: str) -> Optional[str]:
        """Kind of the canonical generator of Hom(a, b), or None if the space is zero."""
        if a == b:
            return "id"
        ia, ib = self._idx(a), self._idx(b)
        if a[0] == "P" and b[0] == "S" and ia == ib:
            return "proj"
        if a[0] == "S" and b[0] == "P" and ia == self._succ(ib):
            return "incl"
        if a[0] == "P" and b[0] == "P" and ia == self._succ(ib):
            return "rad"
        return None

    def hom_length(self, a: str, b: str) -> int:
        self.check_label(a)
        self.check_label(b)
        return 1 if self.gen_kind(a, b) else 0

    def compose_coeff(self, a, b, c, v, u):
        k1 = self.gen_kind(a, b)
        k2 = self.gen_kind(b, c)
        if k1 is None or k2 is None:
            return self.ring.zero
        if k1 == "id" or k2 == "id":
            structure = 1 if self.gen_kind(a, c) else 0
        elif (k1, k2) == ("proj", "incl"):
            structure = 1  # incl_i o proj_{i+1} = rad_i
        else:
            structure = 0
        w = (v * u) if structure else self.ring.zero
        return w.truncate(self.hom_length(a, c))

    def envelope_label(self, label: str) -> str:
        self.check_label(label)
        if label[0] == "P":
            return label
        # S_i is the socle of P_{i-1}
        i = self._idx(label)
        return f"P{(i - 2) % self.m + 1}"

    def descriptor(self) -> dict:
        return {"kind": "rad2nak", "m": self.m, "p": self.ring.p}


class StableBase(SerialBase):
    """Injectively stable quotient of an abelian backing.

    Hom(a, b) is the hom module of the underlying base divided by the
    subgroup of elements factoring through injective labels; for cyclic hom
    modules that subgroup is pi^d * Hom with d the minimal valuation of a
    composite of canonical generators through an injective.  The reduction
    to stable Hom(a, b) is ``coeff`` here; the chosen section is ``of.coeff``,
    which keeps the digits of a coefficient as they are.
    """

    backing = STABLE

    def __init__(self, of: SerialBase):
        self.of = of
        self.ring = of.ring
        self.labels = of.noninjective_labels()
        self._label_set = frozenset(self.labels)
        self._stable_len = {}
        for a in self.labels:
            for b in self.labels:
                self._stable_len[(a, b)] = self._compute_length(a, b)

    def _factoring_valuation(self, a: str, b: str) -> int:
        """Minimal valuation of g_{b<-J} o g_{J<-a} over injective labels J."""
        best = self.ring.n + 1
        for j in self.of.injective_labels():
            c = self.of.compose_coeff(a, j, b, self.of.one_coeff(), self.of.one_coeff())
            if not c.is_zero():
                best = min(best, c.valuation())
        return best

    def _compute_length(self, a: str, b: str) -> int:
        return min(self.of.hom_length(a, b), self._factoring_valuation(a, b))

    def length(self, label: str) -> int:
        self.check_label(label)
        return self.of.length(label)

    def is_injective(self, label: str) -> bool:
        self.check_label(label)
        return False

    def socle_label(self, label: str) -> str:
        return self.of.socle_label(label)

    def hom_length(self, a: str, b: str) -> int:
        self.check_label(a)
        self.check_label(b)
        return self._stable_len[(a, b)]

    def compose_coeff(self, a, b, c, v, u):
        w = self.of.compose_coeff(a, b, c, v, u)
        return w.truncate(self.hom_length(a, c))

    def envelope_label(self, label: str) -> str:
        raise ValueError("stable backings are additive-only: no injective envelopes")

    def descriptor(self) -> dict:
        return {"kind": "stable", "of": self.of.descriptor()}


_BASES: dict = {}


def _interned(desc: dict, build) -> SerialBase:
    """The one base with descriptor ``desc``, built by ``build`` on first use."""
    key = _frozen(desc)
    base = _BASES.get(key)
    if base is None:
        base = _BASES[key] = build()
    return base


def _frozen(desc: dict) -> tuple:
    return tuple((k, _frozen(v) if isinstance(v, dict) else v) for k, v in sorted(desc.items()))


def chain_base(arith: str, p: int, n: int) -> ChainBase:
    return _interned({"kind": CHAIN, "arith": arith, "p": p, "n": n},
                     lambda: ChainBase(chain_ring(arith, p, n)))


def rad2nak_base(m: int, p: int) -> SerialBase:
    """rad^2-zero cyclic Nakayama base; m = 1 is identified with F_p[x]/(x^2)."""
    if m == 1:
        return chain_base(POLY, p, 2)
    return _interned({"kind": RAD2NAK, "m": m, "p": p}, lambda: Rad2NakBase(m, p))


def stable_base(of: SerialBase) -> StableBase:
    return _interned({"kind": STABLE, "of": of.descriptor()}, lambda: StableBase(of))


def _field(desc: dict, key: str, kind: type):
    """``desc[key]`` if it is a ``kind`` (bool is not an integer), else
    ValueError naming the key, also when it is missing."""
    if key not in desc:
        raise ValueError(f"base descriptor has no {key!r} key")
    value = desc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"base descriptor field {key!r} must be {kind.__name__}, "
                         f"not {type(value).__name__}")
    return value


def base_from_descriptor(desc: dict) -> SerialBase:
    if not isinstance(desc, dict):
        raise ValueError(f"base descriptor must be an object, not {type(desc).__name__}")
    kind = _field(desc, "kind", str)
    if kind == "chain":
        return chain_base(_field(desc, "arith", str), _field(desc, "p", int), _field(desc, "n", int))
    if kind == "rad2nak":
        return rad2nak_base(_field(desc, "m", int), _field(desc, "p", int))
    if kind == "stable":
        return stable_base(base_from_descriptor(_field(desc, "of", dict)))
    raise ValueError(f"unknown base descriptor {desc!r}")

import itertools

import pytest

from monocat.base import (
    base_from_descriptor,
    chain_base,
    rad2nak_base,
    stable_base,
)
from monocat.serialmod import mor_compose, morphism, serial_module


def test_chain_labels_and_injectivity():
    b = chain_base("int", 2, 3)
    assert b.labels == ("M1", "M2", "M3")
    assert b.injective_labels() == ("M3",)
    assert b.length("M2") == 2
    assert b.socle_label("M3") == "M1"
    assert b.envelope_label("M1") == "M3"


def test_hom_compose_chain_n3():
    # g_{M1<-M3} then g_{M2<-M1} gives pi * g_{M2<-M3}
    b = chain_base("poly", 2, 3)
    one = b.one_coeff()
    assert b.compose_coeff("M3", "M1", "M2", one, one) == b.ring.pi_pow(1)
    m1, m2, m3 = (serial_module(b, [label]) for label in ("M1", "M2", "M3"))
    out = mor_compose(morphism(m1, m2, [[one]]), morphism(m3, m1, [[one]]))
    assert out.source == m3 and out.target == m2
    assert out.entries[0][0] == b.ring.pi_pow(1)


def test_hom_compose_identity_law():
    for desc in [{"kind": "chain", "arith": "int", "p": 2, "n": 3},
                 {"kind": "rad2nak", "m": 2, "p": 2}]:
        b = base_from_descriptor(desc)
        one = b.one_coeff()
        for a in b.labels:
            for c in b.labels:
                for u in b.hom_elements(a, c):
                    assert b.compose_coeff(a, a, c, u, one) == u
                    assert b.compose_coeff(a, c, c, one, u) == u


def test_hom_compose_label_mismatch():
    b = chain_base("int", 2, 2)
    m1, m2 = serial_module(b, ["M1"]), serial_module(b, ["M2"])
    with pytest.raises(ValueError):
        mor_compose(morphism(m1, m1, [[1]]), morphism(m1, m2, [[1]]))


def test_stable_mixed_composites_vanish():
    # both mixed composites are zero in the stable quotient at length 3
    for arith in ("int", "poly"):
        st = stable_base(chain_base(arith, 2, 3))
        one = st.ring.one
        assert st.compose_coeff("M1", "M2", "M1", one, one).is_zero()
        assert st.compose_coeff("M2", "M1", "M2", one, one).is_zero()
        assert all(st.hom_length(a, b) == 1 for a in st.labels for b in st.labels)


def test_stable_hom_basis_examples():
    b2 = chain_base("poly", 2, 2)
    st2 = stable_base(b2)
    assert st2.hom_length("M1", "M1") == 1  # F_p worth of stable endomorphisms
    assert st2.coeff("M1", "M1", b2.ring.one) == b2.ring.one
    b3 = chain_base("poly", 2, 3)
    st3 = stable_base(b3)
    assert st3.hom_length("M1", "M2") == 1
    # endomorphisms of M2 modulo injectives: multiplication by pi dies
    assert st3.hom_length("M2", "M2") == 1

    def reduce_(coeff):
        return st3.coeff("M2", "M2", coeff)

    assert reduce_(b3.ring.pi).is_zero()
    assert reduce_(reduce_(b3.ring.one)) == reduce_(b3.ring.one)


def test_stable_of_n2_semisimple():
    st = stable_base(chain_base("int", 2, 2))
    assert st.labels == ("M1",)
    assert st.hom_length("M1", "M1") == 1


def test_stable_factoring_enumeration_oracle():
    """The reduction kernel equals the exhaustively enumerated subgroup of
    composites through the injective label (F_2 scale)."""
    b = chain_base("poly", 2, 3)
    st = stable_base(b)
    j = "M3"
    for a in ("M1", "M2"):
        for c in ("M1", "M2"):
            factoring = set()
            for u in b.hom_elements(a, j):
                for v in b.hom_elements(j, c):
                    factoring.add(b.compose_coeff(a, j, c, v, u))
            killed = {x for x in b.hom_elements(a, c) if st.coeff(a, c, x).is_zero()}
            assert killed == factoring


def test_rad2nak_tables():
    b = rad2nak_base(2, 2)
    assert set(b.labels) == {"P1", "P2", "S1", "S2"}
    assert b.is_injective("P1") and not b.is_injective("S1")
    assert b.socle_label("P1") == "S2"
    assert b.envelope_label("S2") == "P1"
    assert b.envelope_label("S1") == "P2"
    # nonzero hom spaces: id, proj, incl, rad
    assert b.hom_length("P1", "S1") == 1
    assert b.hom_length("S2", "P1") == 1
    assert b.hom_length("P2", "P1") == 1
    assert b.hom_length("S1", "S2") == 0
    assert b.hom_length("S1", "P1") == 0
    one = b.ring.one
    # incl o proj is the radical map, proj o incl vanishes
    assert b.compose_coeff("P2", "S2", "P1", one, one) == one
    assert b.compose_coeff("S2", "P1", "S1", one, one).is_zero()
    # the radical square is zero
    assert b.compose_coeff("P1", "P2", "P1", one, one).is_zero() or b.m != 2


def test_rad2nak_m1_is_dual_numbers():
    b = rad2nak_base(1, 3)
    assert b.descriptor() == {"kind": "chain", "arith": "poly", "p": 3, "n": 2}


def test_rad2nak_matrix_model_oracle():
    """Hom-space sizes of the m=2 algebra against the graded matrix model:
    each indecomposable is a graded vector (top grade, socle grade), and a
    morphism is a grade-preserving pair of scalars commuting with the
    radical action."""
    b = rad2nak_base(2, 2)
    p = 2

    def model(label):
        # basis positions by grade, and the action pairs (from grade, to grade)
        i = int(label[1:])
        if label[0] == "S":
            return {i: ["v"]}, []
        j = i % 2 + 1
        return {i: ["top"], j: ["soc"]}, [(i, j)]

    for a in b.labels:
        for c in b.labels:
            ga, acta = model(a)
            gc, actc = model(c)
            slots = [g for g in ga if g in gc]  # one scalar per shared grade
            src_out = dict(acta)
            tgt_out = dict(actc)
            count = 0
            for values in itertools.product(range(p), repeat=len(slots)):
                coeff = dict(zip(slots, values))
                ok = True
                for g, g2 in src_out.items():
                    # f(x * basis at g) = x * f(basis at g)
                    lhs = coeff.get(g2, 0)
                    rhs = coeff.get(g, 0) if tgt_out.get(g) == g2 else 0
                    if lhs % p != rhs % p:
                        ok = False
                for g in slots:
                    if g not in src_out and g in tgt_out:
                        # x kills the source basis vector, so it must kill the image
                        if coeff.get(g, 0) % p:
                            ok = False
                if ok:
                    count += 1
            assert count == p ** b.hom_length(a, c), (a, c, count)


def test_composition_associative_bilinear_exhaustive():
    """Associativity and bilinearity of the hom calculus over F_2 backings."""
    bases = [chain_base("int", 2, 2), chain_base("poly", 2, 3), rad2nak_base(2, 2),
             stable_base(chain_base("int", 2, 3))]
    for b in bases:
        labels = b.labels
        for a, c, d in itertools.product(labels, repeat=3):
            for u in b.hom_elements(a, c):
                for v in b.hom_elements(c, d):
                    for w in b.hom_elements(a, c):
                        lhs = b.compose_coeff(a, c, d, v, u + w)
                        rhs = b.compose_coeff(a, c, d, v, u) + b.compose_coeff(a, c, d, v, w)
                        assert b.coeff(a, d, lhs) == b.coeff(a, d, rhs)
        for a, c, d, e in itertools.product(labels, repeat=4):
            for u in b.hom_elements(a, c):
                for v in b.hom_elements(c, d):
                    for w in b.hom_elements(d, e):
                        uv = b.compose_coeff(a, c, d, v, u)
                        lhs = b.compose_coeff(a, d, e, w, uv)
                        vw = b.compose_coeff(c, d, e, w, v)
                        rhs = b.compose_coeff(a, c, e, vw, u)
                        assert b.coeff(a, e, lhs) == b.coeff(a, e, rhs)


@pytest.mark.parametrize("arith,p,n,message", [
    ("int", 4, 2, "p must be prime"), ("poly", 1, 2, "p must be prime"),
    ("int", 0, 1, "p must be prime"), ("poly", 2, 0, "Loewy length must be >= 1"),
    ("int", 3, -1, "Loewy length must be >= 1"), ("gauss", 2, 2, "unknown chain ring kind"),
])
def test_chain_base_refuses_bad_descriptors(arith, p, n, message):
    with pytest.raises(ValueError, match=message):
        chain_base(arith, p, n)


@pytest.mark.parametrize("desc,key", [
    ({"kind": "stable"}, "of"), ({"kind": "chain", "p": 2, "n": 2}, "arith"),
    ({"kind": "chain", "arith": "int", "p": 2}, "n"), ({"kind": "rad2nak", "p": 2}, "m"),
    ({"kind": "stable", "of": {"kind": "rad2nak", "m": 3}}, "p"),
    ({"arith": "int", "p": 2, "n": 2}, "kind"),
])
def test_base_descriptor_names_a_missing_key(desc, key):
    with pytest.raises(ValueError, match=f"base descriptor has no '{key}' key"):
        base_from_descriptor(desc)


def test_descriptor_roundtrip():
    for desc in [
        {"kind": "chain", "arith": "poly", "p": 3, "n": 2},
        {"kind": "rad2nak", "m": 3, "p": 2},
        {"kind": "stable", "of": {"kind": "chain", "arith": "int", "p": 2, "n": 3}},
    ]:
        assert base_from_descriptor(desc).descriptor() == desc


def test_bases_are_interned_by_descriptor():
    """One object per descriptor, whatever the call that builds it."""
    bases = [chain_base("poly", 3, 2), rad2nak_base(3, 2), stable_base(chain_base("int", 2, 3))]
    for b in bases:
        assert base_from_descriptor(b.descriptor()) is b
    assert chain_base(arith="int", p=2, n=3) is chain_base("int", 2, 3)
    assert stable_base(of=chain_base("int", 2, 3)) is bases[2]
    assert stable_base(bases[2].of) is bases[2]
    for p in (2, 3):
        assert rad2nak_base(1, p) is chain_base("poly", p, 2)
    assert chain_base("int", 2, 3) is not chain_base("poly", 2, 3)
    assert rad2nak_base(2, 3) is not rad2nak_base(3, 2)

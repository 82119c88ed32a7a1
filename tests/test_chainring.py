import pytest

from monocat.chainring import _is_prime, chain_ring


def test_add_int_carry():
    r = chain_ring("int", 2, 2)
    # 3 + 1 = 0 mod 4
    assert r.elem([1, 1]) + r.elem([1, 0]) == r.elem([0, 0])


def test_add_poly_no_carry():
    r = chain_ring("poly", 2, 2)
    assert r.elem([1, 1]) + r.elem([1, 0]) == r.elem([0, 1])


def test_add_int_z8():
    r = chain_ring("int", 2, 3)
    # 3 + 7 = 2 mod 8
    assert r.elem([1, 1, 0]) + r.elem([1, 1, 1]) == r.elem([0, 1, 0])


def test_mul_inverse_z9():
    r = chain_ring("int", 3, 2)
    two, five = r.from_int(2), r.from_int(5)
    assert two * five == r.one
    assert two.inverse() == five


def test_poly_geometric_inverse():
    r = chain_ring("poly", 3, 3)
    a = r.elem([1, 1, 0])       # 1 + x
    b = r.elem([1, 2, 1])       # 1 - x + x^2
    assert a * b == r.one
    assert a.inverse() == b


def test_valuation():
    r = chain_ring("int", 2, 3)
    assert r.elem([0, 0, 1]).valuation() == 2
    assert r.zero.valuation() == 3
    assert r.one.valuation() == 0


def test_inverse_of_non_unit_raises():
    r = chain_ring("int", 2, 2)
    with pytest.raises(ZeroDivisionError):
        r.elem([0, 1]).inverse()


def test_ring_mismatch_raises():
    a = chain_ring("int", 2, 2).one
    b = chain_ring("poly", 2, 2).one
    with pytest.raises(ValueError):
        _ = a + b


@pytest.mark.parametrize("kind", ["int", "poly"])
@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (2, 9), (3, 6)])
def test_ring_axioms_exhaustive(kind, p, n):
    r = chain_ring(kind, p, n)
    elems = list(r.elements())
    assert [a.num for a in elems] == list(range(p ** n))
    pi_n = r.pi_pow(1)
    acc = r.one
    for _ in range(n):
        acc = acc * pi_n
    assert acc.is_zero()  # pi^n = 0
    for a in elems:
        assert r.from_int(a.to_int()) is a
        assert r.elem(a.digits) is a
        assert a + r.zero == a
        assert a * r.one == a
        if a.digits[0] != 0:
            assert a * a.inverse() == r.one
    import random
    rng = random.Random(0)
    sample = [rng.choice(elems) for _ in range(30)]
    for a in sample:
        for b in sample[:10]:
            assert a + b == b + a
            assert a * b == b * a
            for c in sample[:5]:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_shift_and_truncate():
    r = chain_ring("int", 2, 3)
    a = r.elem([0, 1, 1])
    assert a.shift_down(1) == r.elem([1, 1, 0])
    assert a.shift_down(1).shift_up(1) == a
    assert a.truncate(2) == r.elem([0, 1, 0])
    with pytest.raises(ValueError):
        r.one.shift_down(1)


def test_is_prime_matches_a_sieve():
    sieve = [False, False] + [True] * 1998
    for d in range(2, 45):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(range(d * d, 2000, d))
    assert [p for p in range(-3, 2000) if _is_prime(p)] == [p for p in range(2000) if sieve[p]]

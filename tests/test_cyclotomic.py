import pickle
import random
from fractions import Fraction
from itertools import permutations

import pytest

from cylsym.cyclotomic import (
    CycloNum,
    NonIntegralError,
    cyclotomic_poly,
    euler_phi,
    eval_alternant,
    eval_msym,
    sqrt_int,
    zeta_pow,
)
from cylsym.partitions import enumerate_alcove, enumerate_strict, quantum_dim, staircase


def test_cyclotomic_poly_anchors():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    # product over divisors rebuilds x^n - 1
    for n in range(1, 13):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_poly(d)
                new = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        new[i + j] += a * b
                prod = new
        assert prod == [-1] + [0] * (n - 1) + [1]


def _random_elem(rng, n):
    return CycloNum(
        n,
        tuple(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(euler_phi(n))),
    )


def test_field_axioms():
    rng = random.Random(7)
    for n in range(2, 13):
        one = CycloNum.one(n)
        for _ in range(8):
            a, b, c = (_random_elem(rng, n) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert (a * a.inv() - one).is_zero()
        with pytest.raises(ZeroDivisionError):
            CycloNum.zero(n).inv()


def test_zeta_relations():
    for n in range(2, 13):
        assert zeta_pow(n, n).to_integer() == 1
        for m in range(3 * n):
            total = CycloNum.zero(n)
            for j in range(n):
                total = total + zeta_pow(n, j * m)
            expected = n if m % n == 0 else 0
            assert (total - CycloNum.from_rational(n, expected)).is_zero()


def test_zeta_pow_anchors():
    assert zeta_pow(4, 2).to_integer() == -1
    assert (zeta_pow(4, 2) + CycloNum.one(4)).to_integer() == 0
    assert (zeta_pow(3, 0) + zeta_pow(3, 1) + zeta_pow(3, 2)).is_zero()


def test_to_integer_errors():
    with pytest.raises(NonIntegralError):
        zeta_pow(3, 1).to_integer()
    with pytest.raises(NonIntegralError):
        (CycloNum.one(3) * Fraction(1, 2)).to_integer()
    assert CycloNum.zero(5).to_integer() == 0


def test_eval_msym():
    # at p = (n, ..., n) every monomial evaluates to 1, so the value is d_lam
    for n, k in [(2, 2), (3, 2), (4, 3)]:
        for lam in enumerate_alcove(n, k):
            val = eval_msym(lam.parts, (n,) * k, n)
            assert val.to_integer() == quantum_dim(lam.parts, k)
    # lam = (n^k) gives 1 at any point
    assert eval_msym((3, 3), (2, 1), 3).to_integer() == 1
    assert eval_msym((1,), (1,), 2).to_integer() == -1


def test_eval_msym_symmetry():
    rng = random.Random(8)
    for _ in range(40):
        n, k = rng.choice([(3, 2), (4, 3)])
        lam = rng.choice(enumerate_alcove(n, k)).parts
        p = tuple(rng.randrange(-2 * n, 2 * n) for _ in range(k))
        base = eval_msym(lam, p, n)
        for q in set(permutations(p)):
            assert base == eval_msym(lam, q, n)


def test_alternant():
    assert eval_alternant((2,), (3,), 5) == zeta_pow(5, 6)
    # repeated rows vanish
    assert eval_alternant((2, 2), (3, 1), 5).is_zero()
    # Vandermonde-type nonvanishing on the strict alcove
    for n, k in [(4, 2), (5, 2), (6, 3)]:
        rho = staircase(k)
        for sigma in enumerate_strict(n, k):
            assert not eval_alternant(rho, sigma.parts, n).is_zero()


def test_sqrt_int():
    for m in range(1, 13):
        big = 24 * m
        root = sqrt_int(m, big)
        assert (root * root).to_integer() == m


def test_conjugation():
    rng = random.Random(9)
    for n in (3, 4, 5, 12):
        for _ in range(10):
            a, b = _random_elem(rng, n), _random_elem(rng, n)
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert a.conjugate().conjugate() == a
        e = rng.randrange(0, n)
        assert zeta_pow(n, e).conjugate() == zeta_pow(n, -e)


def test_composite_fields_and_value_equality():
    # inverse and conjugation in composite fields past the n <= 12 grid above;
    # Q(zeta_120) is the field of the (5,1) modular check
    rng = random.Random(15)
    for n in (15, 16, 20, 24, 120):
        one = CycloNum.one(n)
        for _ in range(4 if n < 100 else 2):
            a, b = _random_elem(rng, n), _random_elem(rng, n)
            if not a.is_zero():
                assert a * a.inv() == one
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    # equality and hashing are value equality, whatever the scaling
    for n in (5, 12):
        half = CycloNum(n, (Fraction(2, 4),) + (0,) * (euler_phi(n) - 1))
        assert half == CycloNum.one(n) * Fraction(1, 2)
        assert hash(half) == hash(CycloNum.one(n) * Fraction(1, 2))
        a = _random_elem(rng, n) * Fraction(1, 6)
        zeros = [
            CycloNum(n, (Fraction(0, 7),) * euler_phi(n)),
            a - a,
            a * 0,
            zeta_pow(n, 1) * Fraction(3, 9) - zeta_pow(n, 1 + n) * Fraction(1, 3),
        ]
        for zero in zeros:
            assert zero == CycloNum.zero(n)
            assert hash(zero) == hash(CycloNum.zero(n))
        assert pickle.loads(pickle.dumps(a)) == a

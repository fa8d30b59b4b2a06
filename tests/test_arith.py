"""Valuations, factorization, exponent bounds."""

import math

import pytest

from kinderlab import arith
from kinderlab.errors import InvalidConfigError

PRIMES_TO_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_is_prime_table():
    got = [n for n in range(2, 100) if arith.is_prime(n)]
    assert got == PRIMES_TO_100
    assert not arith.is_prime(1) and not arith.is_prime(0)


def test_factorize_roundtrip():
    for n in list(range(2, 200)) + [720, 1024, 59049, 1024128]:
        fac = arith.factorize(n)
        prod = 1
        for p, e in fac:
            assert arith.is_prime(p) and e >= 1
            prod *= p**e
        assert prod == n
        assert [p for p, _ in fac] == sorted(p for p, _ in fac)


def test_factorize_frozen():
    assert arith.factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert arith.factorize(127) == [(127, 1)]
    # order of PSL(2, 127) = 127 * 126 * 128 / 2
    assert arith.factorize(1024128) == [(2, 7), (3, 2), (7, 1), (127, 1)]


def test_nu_p():
    assert arith.nu_p(48, 2) == 4
    assert arith.nu_p(48, 3) == 1
    assert arith.nu_p(7, 2) == 0
    for n, m in ((12, 45), (8, 9), (100, 7)):
        for p in (2, 3, 5):
            assert arith.nu_p(n * m, p) == arith.nu_p(n, p) + arith.nu_p(m, p)


def test_legendre_matches_factorial():
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(0, 60):
            assert arith.legendre_valuation(k, p) == arith.nu_p(math.factorial(k), p)


def test_legendre_frozen():
    assert arith.legendre_valuation(10, 2) == 8
    assert arith.legendre_valuation(100, 2) == 97
    assert arith.legendre_valuation(100, 5) == 24


def test_mu():
    assert arith.mu(1) == 0
    assert arith.mu(8) == 3
    assert arith.mu(60) == 2
    assert arith.mu(1024128) == 7
    for n in range(2, 50):
        assert arith.mu(n) == max(e for _, e in arith.factorize(n))


def test_wall_log_bound():
    # log_2 of the subgroup-count bound n^(mu+1) at n = 8: (3+1)*3 = 12
    assert arith.wall_log_bound(8) == pytest.approx((arith.mu(8) + 1) * math.log2(8))
    assert arith.wall_log_bound(1) >= 0.0
    # monotone enough to dominate sigma for the tiny oracle groups
    assert 2 ** arith.wall_log_bound(8) >= 10  # sigma(D4) = 10
    assert 2 ** arith.wall_log_bound(60) >= 59  # sigma(A5) = 59


def test_bad_inputs():
    with pytest.raises(InvalidConfigError):
        arith.nu_p(0, 2)
    with pytest.raises(InvalidConfigError):
        arith.nu_p(12, 1)
    with pytest.raises(InvalidConfigError):
        arith.legendre_valuation(5, 1)
    with pytest.raises(InvalidConfigError):
        arith.legendre_valuation(-1, 2)
    with pytest.raises(InvalidConfigError):
        arith.factorize(0)
    with pytest.raises(InvalidConfigError):
        arith.mu(0)

"""Field contexts: frozen tables, algebraic laws, validation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinderlab import gf, twisted
from kinderlab.arith import factorize
from kinderlab.gf import (
    _SMALL_ORDER, FieldCtx, FieldError, _irreducible2, _mod2, _sqmod2, make_field,
    make_field_from_order)

# GF(4) with modulus x^2 + x + 1; elements 0, 1, x=2, x+1=3.
F4_MUL = {
    (0, 0): 0, (0, 1): 0, (0, 2): 0, (0, 3): 0,
    (1, 1): 1, (1, 2): 2, (1, 3): 3,
    (2, 2): 3, (2, 3): 1,
    (3, 3): 2,
}


def test_f4_hand_table():
    F = make_field(2, 2, modulus=(1, 1, 1))
    for (a, b), c in F4_MUL.items():
        assert F.mul(a, b) == c
        assert F.mul(b, a) == c
    assert F.inv(2) == 3 and F.inv(3) == 2 and F.inv(1) == 1


def test_f9_squares():
    # GF(9) = F_3[x]/(x^2 + m1 x + m0): x*x must reduce to -m0 - m1 x
    F = make_field(3, 2)
    m0, m1, m2 = F.modulus
    assert m2 == 1
    x = 3  # digits (0, 1)
    want = F.from_vector(((-m0) % 3, (-m1) % 3))
    assert F.mul(x, x) == want


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 3), (5, 2), (3, 3), (2, 10)])
def test_field_laws(p, e):
    F = make_field(p, e)
    rng = random.Random(1000 * p + e)
    for _ in range(200):
        a, b, c = (F.random_element(rng) for _ in range(3))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.add(a, F.neg(a)) == 0
        assert F.sub(a, b) == F.add(a, F.neg(b))
        if b:
            assert F.mul(F.mul(a, F.inv(b)), b) == a
            assert F.mul(b, F.inv(b)) == 1


def trace(F, a: int) -> int:
    """Absolute trace of a down to F_p, an int in [0, p): the sum of its
    Frobenius conjugates, FieldError if that leaves the prime field."""
    t = 0
    cur = a
    for _ in range(F.e):
        t = F.add(t, cur)
        cur = F.frobenius(cur, 1)
    vec = F.to_vector(t)
    if any(vec[1:]):
        raise FieldError("trace landed outside the prime field")
    return vec[0]


@pytest.mark.parametrize("p,e", [(2, 4), (3, 2), (5, 2)])
def test_frobenius_and_trace(p, e):
    F = make_field(p, e)
    rng = random.Random(p * e)
    for _ in range(100):
        a, b = F.random_element(rng), F.random_element(rng)
        assert F.frobenius(a) == F.pow(a, p)
        assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
        assert F.frobenius(a, e) == a
        t = trace(F, a)
        assert t < p  # lands in the prime field
        assert trace(F, F.add(a, b)) == (trace(F, a) + trace(F, b)) % p


def test_vector_roundtrip_and_elements():
    F = make_field(3, 2)
    assert list(F.elements()) == list(range(9))
    for a in F.elements():
        v = F.to_vector(a)
        assert len(v) == 2 and all(0 <= x < 3 for x in v)
        assert F.from_vector(v) == a


def test_primitive_order():
    for p, e in ((2, 3), (3, 2), (7, 1)):
        F = make_field(p, e)
        g = F.primitive
        seen = set()
        x = 1
        for _ in range(F.order - 1):
            seen.add(x)
            x = F.mul(x, g)
        assert x == 1 and len(seen) == F.order - 1


def test_pow_matches_repeated_mul():
    F = make_field(2, 5)
    rng = random.Random(3)
    for _ in range(30):
        a = rng.randrange(1, F.order)
        k = rng.randrange(0, 40)
        acc = 1
        for _ in range(k):
            acc = F.mul(acc, a)
        assert F.pow(a, k) == acc


def test_modulus_validation():
    with pytest.raises(FieldError):
        make_field(2, 2, modulus=(1, 1))  # wrong length
    with pytest.raises(FieldError):
        make_field(2, 2, modulus=(1, 1, 2))  # not monic
    with pytest.raises(FieldError):
        make_field(2, 3, modulus=(1, 0, 0, 1))  # x^3+1 reducible
    with pytest.raises(FieldError):
        make_field(4, 1)  # not a prime


def test_cache_identity():
    assert make_field(2, 3) is make_field(2, 3)
    assert make_field(2, 3) is not make_field(2, 3, modulus=(1, 1, 0, 1)) or (
        make_field(2, 3).modulus == (1, 1, 0, 1)
    )


def test_a_verified_certificate_reuses_the_searched_field(monkeypatch):
    # suzuki_verify names the modulus of the default field suzuki_search built
    built, init = [], FieldCtx.__init__
    monkeypatch.setattr(gf, "_FIELD_CACHE", {})
    monkeypatch.setattr(FieldCtx, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    cert = twisted.suzuki_search(7)
    assert twisted.suzuki_verify(cert)
    assert [args[:2] for args in built] == [(2, 15)]


def test_validate_report():
    for p, e in ((2, 1), (2, 8), (3, 4), (13, 2)):
        rep = make_field(p, e).validate()
        assert rep and all(rep.values()), (p, e, rep)


def test_large_binary_field():
    F = make_field(2, 257)
    rng = random.Random(0)
    for _ in range(10):
        a = rng.randrange(1, F.order)
        assert F.mul(a, F.inv(a)) == 1
        assert F.frobenius(a, 257) == a


def _sqmod2_bit_loop(a: int, f: int) -> int:
    """The bit-at-a-time squaring that `_sqmod2` replaced, kept as its reference."""
    r = 0
    while a:
        low = a & -a
        r |= 1 << (2 * (low.bit_length() - 1))
        a ^= low
    return _mod2(r, f)


def _check_squaring(F, a, i):
    assert _sqmod2(a, F._mod_int) == _sqmod2_bit_loop(a, F._mod_int)
    want = a
    for _ in range(i % F.e):
        want = _sqmod2_bit_loop(want, F._mod_int)
    assert F.frobenius(a, i) == want


@pytest.mark.parametrize("degree", [3, 11, 101, 1001])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_squaring_matches_the_bit_loop_on_default_moduli(degree, data):
    F = make_field(2, degree)
    _check_squaring(F, data.draw(st.integers(0, F.order - 1)), data.draw(st.integers(0, 40)))


@st.composite
def _random_binary_fields(draw):
    """GF(2^d), d <= 101, on a random irreducible modulus: about half of its
    low coefficients set, or about three quarters when dense."""
    d = draw(st.integers(2, 101))
    dense = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))
    while True:
        f = 1 << d | rng.getrandbits(d) | (rng.getrandbits(d) if dense else 0) | 1
        if _irreducible2(f, d):
            # not through make_field, whose cache would fill up with these
            return FieldCtx(2, d, tuple(f >> k & 1 for k in range(d + 1)))


@settings(max_examples=80, deadline=None)
@given(F=_random_binary_fields(), data=st.data())
def test_squaring_matches_the_bit_loop_on_random_moduli(F, data):
    _check_squaring(F, data.draw(st.integers(0, F.order - 1)), data.draw(st.integers(0, 40)))


# GF(p^e) with e > 1 on both sides of _SMALL_ORDER = 2^16: exp/log tables at
# and below it (GF(2^16), GF(251^2)), polynomial arithmetic above (GF(257^2))
EXTENSIONS = [make_field(p, e) for p, e in (
    (2, 2), (3, 2), (2, 8), (5, 3), (3, 5), (2, 16), (251, 2),
    (257, 2), (2, 17), (5, 7), (7, 6), (3, 11), (2, 32))]


@st.composite
def _elements(draw):
    F = draw(st.sampled_from(EXTENSIONS))
    return (F,) + tuple(draw(st.integers(0, F.order - 1)) for _ in range(3))


def test_extensions_straddle_the_table_cutoff():
    assert {F.order <= _SMALL_ORDER for F in EXTENSIONS} == {True, False}
    assert all(F.e > 1 for F in EXTENSIONS)


@settings(max_examples=400, deadline=None)
@given(_elements())
def test_extension_field_axioms(case):
    F, a, b, c = case
    add, mul = F.add, F.mul
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, 0) == a and mul(a, 1) == a and mul(a, 0) == 0
    assert add(a, F.neg(a)) == 0 and F.sub(a, b) == add(a, F.neg(b))
    assert mul(a, b) == F._raw_mul(a, b)
    if a:
        assert mul(a, F.inv(a)) == 1 and F.pow(a, F.order - 1) == 1
        assert mul(mul(b, a), F.inv(a)) == b


EXTENSION_ORDERS_TO_512 = [q for q in range(4, 513)
                           if len(factorize(q)) == 1 and factorize(q)[0][1] > 1]


@pytest.mark.parametrize("q", EXTENSION_ORDERS_TO_512)
def test_table_arrays_agree_with_the_field(q):
    F = make_field_from_order(q)
    add, mul, neg, inv = F.table_arrays()
    els = range(q)
    assert add.tolist() == [[F.add(a, b) for b in els] for a in els]
    assert mul.tolist() == [[F.mul(a, b) for b in els] for a in els]
    assert neg.tolist() == [F.neg(a) for a in els]
    assert inv.tolist() == [0] + [F.inv(a) for a in range(1, q)]


def test_odd_characteristic_above_the_log_tables():
    F = make_field(3, 11)
    assert F.order > _SMALL_ORDER and F._log is None and F._primitive is None
    g, q1 = F.primitive, F.order - 1  # certified lazily, from the primes of 3^11 - 1
    assert F.pow(g, q1) == 1 and all(F.pow(g, q1 // r) != 1 for r, _ in factorize(q1))
    assert F.validate()["primitive_order"] is True
    rng = random.Random(311)
    for _ in range(10):
        a, b = F.random_element(rng), rng.randrange(1, F.order)
        frob = F.frobenius
        assert frob(a) == F._raw_pow(a, 3)
        assert frob(F.add(a, b)) == F.add(frob(a), frob(b))
        assert frob(F.mul(a, b)) == F.mul(frob(a), frob(b))
        x = a
        for _ in range(F.e):
            x = frob(x)
        assert x == a
        k = rng.randrange(1, 50)
        assert F.pow(b, -k) == F.inv(F.pow(b, k)) and F.mul(F.pow(b, -k), F.pow(b, k)) == 1


def test_a_supplied_odd_modulus_is_checked(monkeypatch):
    monkeypatch.setattr(gf, "_FIELD_CACHE", {})  # validate it, not the cached default
    F = make_field(3, 2, modulus=(1, 0, 1))  # x^2 + 1
    assert F.modulus == (1, 0, 1) and F.mul(3, 3) == 2  # x^2 = -1
    with pytest.raises(FieldError, match="^supplied modulus is reducible$"):
        make_field(3, 2, modulus=(2, 0, 1))  # x^2 - 1

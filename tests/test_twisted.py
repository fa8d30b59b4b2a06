"""Characteristic-2 B2 groups and Suzuki spanning certificates."""

import random

import numpy as np
import pytest

from kinderlab import smallgrp, twisted
from kinderlab.errors import InvalidConfigError, PropertyViolationError
from kinderlab.gf import FieldCtx, make_field
from kinderlab.linalg import Subspace
from subquotient import b2_kind

F2 = make_field(2, 1)
F4 = make_field(2, 2)
F8 = make_field(2, 3)


def test_b2_f2_frozen():
    b2 = twisted.b2_build(F2)
    G = b2.group()
    assert G.n == 16
    assert b2.commutator((1, 0, 0, 0), (0, 1, 0, 0)) == (0, 0, 1, 1)
    assert b2.phi((1, 1)) == (1, 1)
    assert b2.phi((1, 0)) == (0, 0) and b2.phi((0, 1)) == (0, 0)
    assert G.fingerprint().exponent == 4
    center = [
        G.labels[i]
        for i in range(G.n)
        if all(G.commutator_idx(i, j) == G.identity for j in range(G.n))
    ]
    assert frozenset(center) == b2.gamma3_labels()


def test_b2_rejects_odd_characteristic():
    with pytest.raises(InvalidConfigError):
        twisted.b2_build(make_field(3, 1))


def test_b2_f4_center_is_gamma3():
    b4 = twisted.b2_build(F4)
    G4 = b4.group()
    assert G4.n == 256
    g3 = b4.gamma3_labels()
    assert len(g3) == 16
    gens = [(1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0)]
    center = [
        lab
        for lab in G4.labels
        if all(b4.commutator(lab, g) == b4.identity() for g in gens)
    ]
    center = [
        lab
        for lab in center
        if all(b4.commutator(lab, other) == b4.identity() for other in G4.labels)
    ]
    assert frozenset(center) == g3


def test_b2_refuses_fields_without_a_product_table():
    F1024 = make_field(2, 10)
    for build in (twisted.B2Group, twisted.b2_build):
        with pytest.raises(InvalidConfigError, match="order <= 512"):
            build(F1024)


def _with_table(F, mul):
    """A fresh copy of F (not the cached one) whose product table is mul."""
    ctx = FieldCtx(F.p, F.e, F.modulus)
    add, _, neg, inv = F.table_arrays()
    ctx._tables = (add, np.asarray(mul, dtype=np.int16), neg, inv)
    return ctx


def _swapped(method):
    return lambda self, *args: method(self, *args)[::-1]


def test_b2_build_refuses_a_table_not_additive_in_the_left_slot():
    mul = F8.table_arrays()[1].copy()
    mul[3, 5] ^= 1
    with pytest.raises(PropertyViolationError, match="not additive in the left slot"):
        twisted.b2_build(_with_table(F8, mul))


def test_b2_build_refuses_a_table_not_additive_in_the_right_slot():
    # row 1 becomes b -> b & 5: every row stays additive and the diagonal
    # (1 & 5 = 1) stays the squares, but the columns are no longer additive
    mul = F8.table_arrays()[1].copy()
    mul[1] = np.arange(8) & 5
    with pytest.raises(PropertyViolationError, match="not additive in the right slot"):
        twisted.b2_build(_with_table(F8, mul))


def test_b2_build_refuses_squares_that_do_not_realize_phi(monkeypatch):
    monkeypatch.setattr(twisted.B2Group, "phi", _swapped(twisted.B2Group.phi))
    with pytest.raises(PropertyViolationError, match="squares do not realize phi"):
        twisted.b2_build(F8)


def test_b2_build_refuses_phi_vanishing_off_the_singular_lines():
    # bitwise AND is biadditive with zero divisors: phi(1, 2) = (1 & 2, 1 & 2) = 0
    mul = np.bitwise_and.outer(np.arange(8), np.arange(8))
    with pytest.raises(PropertyViolationError, match="phi vanishes off the two singular lines"):
        twisted.b2_build(_with_table(F8, mul))


def test_b2_build_refuses_commutators_that_do_not_realize_the_bimap(monkeypatch):
    monkeypatch.setattr(twisted.B2Group, "bimap", _swapped(twisted.B2Group.bimap))
    with pytest.raises(PropertyViolationError, match="commutators do not realize the bimap"):
        twisted.b2_build(F8)


def test_b2_build_refuses_a_non_associative_product_above_order_8():
    F16 = make_field(2, 4)
    mul = np.bitwise_or.outer(np.arange(16), np.arange(16))
    with pytest.raises(PropertyViolationError, match="product is not associative"):
        twisted.b2_build(_with_table(F16, mul))


def test_b2_build_and_labels_make_no_field_mul_call(monkeypatch):
    b8 = twisted.b2_build(F8)
    G8 = b8.group()
    A, B = _canonical_reps(F8)
    calls = []
    mul = FieldCtx.mul
    monkeypatch.setattr(FieldCtx, "mul", lambda self, a, b: calls.append((a, b)) or mul(self, a, b))
    twisted.b2_build(F8)
    twisted.b2_labels(b8, G8, A, B)
    assert calls == []
    assert F8.mul(2, 3) == 6 and calls == [(2, 3)]  # the wrapper is live


def _canonical_reps(F):
    w = F.primitive
    q = F.order
    A = {i: (F.pow(w, i % (q - 1)), 0, 0, 0) for i in (-1, 0, 1)}
    B = {i: (0, F.pow(w, i % (q - 1)), 0, 0) for i in (-1, 0, 1)}
    return A, B


def test_b2_labels_f8_canonical():
    b8 = twisted.b2_build(F8)
    G8 = b8.group()
    q = F8.order
    w = F8.primitive
    A, B = _canonical_reps(F8)
    lab = twisted.b2_labels(b8, G8, A, B)
    assert sorted(lab.a_series) == list(range(-1, q))
    for k, a in lab.a_series.items():
        assert a[0] == F8.pow(w, k % (q - 1)) and a[1] == 0
    for j, a in lab.a_series.items():
        for i in (-1, 0, 1):
            wi = F8.pow(w, i % (q - 1))
            wj = F8.pow(w, j % (q - 1))
            want = (0, 0, F8.mul(wj, wi), F8.mul(wj, F8.mul(wi, wi)))
            assert b8.commutator(a, B[i]) == want
    assert lab.gamma4 == b8.gamma4_labels()
    assert lab.complement == frozenset((0, 0, z1, 0) for z1 in F8.elements())
    for z1 in F8.elements():
        for z2 in F8.elements():
            assert lab.coset_value[(0, 0, z1, z2)] == z1
    assert lab.q_image == frozenset(F8.elements())


def test_b2_labels_representative_independence():
    b8 = twisted.b2_build(F8)
    G8 = b8.group()
    q = F8.order
    w = F8.primitive
    A, B = _canonical_reps(F8)
    base = twisted.b2_labels(b8, G8, A, B)
    rng = random.Random(7)
    for _ in range(3):
        A2 = {i: (F8.pow(w, i % (q - 1)), 0, rng.randrange(q), rng.randrange(q)) for i in (-1, 0, 1)}
        B2 = {i: (0, F8.pow(w, i % (q - 1)), rng.randrange(q), rng.randrange(q)) for i in (-1, 0, 1)}
        l2 = twisted.b2_labels(b8, G8, A2, B2)
        assert l2.gamma4 == base.gamma4
        assert l2.complement == base.complement
        assert l2.coset_value == base.coset_value
        assert l2.q_image == base.q_image


def test_b2_labels_rejects_bad_representatives():
    b8 = twisted.b2_build(F8)
    G8 = b8.group()
    A, B = _canonical_reps(F8)
    with pytest.raises(InvalidConfigError):
        twisted.b2_labels(b8, G8, {**A, 0: (F8.primitive, 0, 0, 0)}, B)
    with pytest.raises(InvalidConfigError):
        twisted.b2_labels(b8, G8, A, {**B, 1: (9, 9, 9, 9)})
    with pytest.raises(InvalidConfigError):
        twisted.b2_labels(twisted.b2_build(F2), twisted.b2_build(F2).group(), A, B)


def test_b2_labels_convert_q_once_and_check_its_labels():
    b8 = twisted.b2_build(F8)
    G8 = b8.group()
    A, B = _canonical_reps(F8)
    twisted._label_array.cache_clear()
    first = twisted.b2_labels(b8, G8, A, B)
    assert twisted.b2_labels(b8, G8, A, B) == first
    info = twisted._label_array.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    labs = twisted._label_array(G8, F8.order)
    assert not labs.flags.writeable and labs.tolist() == [list(x) for x in G8.labels]
    # G8's labels lie in GF(8), not in GF(4): refused, and not cached
    A4, B4 = _canonical_reps(F4)
    for _ in range(2):
        with pytest.raises(InvalidConfigError, match="not quadruples over GF\\(4\\)"):
            twisted.b2_labels(twisted.b2_build(F4), G8, A4, B4)


def test_b2_kind_recovers_its_code():
    F16 = make_field(2, 4)
    b16 = twisted.b2_build(F16)
    w = F16.primitive
    winv = F16.pow(w, F16.order - 2)
    code = Subspace.from_vectors(
        F2, 4, [F16.to_vector(1), F16.to_vector(w), F16.to_vector(winv)]
    )
    assert code.dim == 3
    wset = frozenset(F16.from_vector(v) for v in code.enumerate_vectors())
    assert F16.mul(w, w) not in wset
    K = b2_kind(b16, code)
    assert K.n == 2 ** (4 + 3 + 8)
    A = {i: (F16.pow(w, i % 15), 0, 0, 0) for i in (-1, 0, 1)}
    B = {i: (0, F16.pow(w, i % 15), 0, 0) for i in (-1, 0, 1)}
    lab = twisted.b2_labels(b16, K, A, B)
    assert lab.q_image == wset
    assert lab.gamma4 == b16.gamma4_labels()


def test_b2_labels_detects_non_generic_subgroup():
    F16 = make_field(2, 4)
    b16 = twisted.b2_build(F16)
    w = F16.primitive
    winv = F16.pow(w, F16.order - 2)
    code = Subspace.from_vectors(
        F2, 4, [F16.to_vector(1), F16.to_vector(w), F16.to_vector(winv)]
    )
    wset = sorted(
        F16.from_vector(v) for v in code.enumerate_vectors()
    )
    labels = [
        (r, s, z1, z2)
        for r in wset
        for s in wset
        for z1 in F16.elements()
        for z2 in F16.elements()
    ]
    NG = smallgrp.SmallGroup(labels, b16.mul, name="r and s both restricted")
    A = {i: (F16.pow(w, i % 15), 0, 0, 0) for i in (-1, 0, 1)}
    B = {i: (0, F16.pow(w, i % 15), 0, 0) for i in (-1, 0, 1)}
    with pytest.raises(PropertyViolationError):
        twisted.b2_labels(b16, NG, A, B)


def suzuki_form(F, x: int, y: int) -> int:
    """x*y^(2^(e+1)) + y*x^(2^(e+1)) over F_2^(2e+1): `twisted._form`, which
    the search and verify call, on Frobenius images computed here."""
    if F.p != 2 or F.e % 2 == 0:
        raise InvalidConfigError("the form lives over F_2 fields of odd degree")
    e = (F.e - 1) // 2
    return twisted._form(F, x, F.frobenius(x, e + 1), y, F.frobenius(y, e + 1))


@pytest.mark.parametrize("deg", [15, 17, 31])
def test_suzuki_form_is_the_two_products(deg):
    # degree 15 has tables; 17 and 31 reduce the sum of the two products once
    Fd = make_field(2, deg)
    rng = random.Random(deg)
    for _ in range(50):
        x, xf, y, yf = (rng.randrange(Fd.order) for _ in range(4))
        assert twisted._form(Fd, x, xf, y, yf) == Fd.mul(x, yf) ^ Fd.mul(y, xf)


def test_suzuki_form_frozen():
    # In F_2[t]/(t^3+t+1) with t |-> 2: f(t, t^2) = t * (t^2)^4 + t^2 * t^4 = 1
    F = make_field(2, 3, modulus=(1, 1, 0, 1))
    assert suzuki_form(F, 2, F.mul(2, 2)) == 1


@pytest.mark.parametrize("deg", [3, 11, 101])
def test_suzuki_form_laws(deg):
    Fd = make_field(2, deg)
    rng = random.Random(deg)
    for _ in range(15):
        x, y, z = (rng.randrange(Fd.order) for _ in range(3))
        fxy = suzuki_form(Fd, x, y)
        assert suzuki_form(Fd, y, x) == fxy
        assert suzuki_form(Fd, x, x) == 0
        assert suzuki_form(Fd, x ^ z, y) == fxy ^ suzuki_form(Fd, z, y)
        assert suzuki_form(Fd, x, y ^ z) == fxy ^ suzuki_form(Fd, x, z)


def test_suzuki_form_big_degree_sample():
    Fd = make_field(2, 1001)
    rng = random.Random(1001)
    x, y, z = (rng.randrange(Fd.order) for _ in range(3))
    fxy = suzuki_form(Fd, x, y)
    assert suzuki_form(Fd, y, x) == fxy
    assert suzuki_form(Fd, x ^ z, y) == fxy ^ suzuki_form(Fd, z, y)


def test_suzuki_form_domain_errors():
    with pytest.raises(InvalidConfigError):
        suzuki_form(make_field(2, 4), 1, 2)  # even degree
    with pytest.raises(InvalidConfigError):
        suzuki_form(make_field(3, 3), 1, 2)  # odd characteristic


def test_certificate_roundtrip():
    cert = twisted.suzuki_search(1, seed=0)
    assert isinstance(cert, twisted.SpanCertificate)
    assert cert.degree == 3 and len(cert.pairs) == 3
    assert len(cert.elements) <= 6
    assert twisted.suzuki_verify(cert)
    rt = twisted.SpanCertificate.from_json(cert.to_json())
    assert rt == cert and twisted.suzuki_verify(rt)


def test_certificate_tampering_false():
    cert = twisted.suzuki_search(1, seed=0)
    # zeroed element: still evaluable, spanning claim now false
    z = twisted.SpanCertificate(cert.e, cert.modulus, (0,) + cert.elements[1:], cert.pairs)
    assert twisted.suzuki_verify(z) is False
    # padded past the size bound
    fat = twisted.SpanCertificate(
        cert.e,
        cert.modulus,
        cert.elements + tuple(range(2, 9))[: 7 - len(cert.elements)],
        cert.pairs,
    )
    assert len(fat.elements) == 7 and twisted.suzuki_verify(fat) is False
    # too few pairs
    short = twisted.SpanCertificate(cert.e, cert.modulus, cert.elements, cert.pairs[:2])
    assert twisted.suzuki_verify(short) is False


def test_certificate_malformed_raises():
    cert = twisted.suzuki_search(1, seed=0)
    with pytest.raises(InvalidConfigError):
        twisted.suzuki_verify(
            twisted.SpanCertificate(1, (1, 0, 0, 1), cert.elements, cert.pairs)
        )
    with pytest.raises(InvalidConfigError):
        twisted.suzuki_verify(
            twisted.SpanCertificate(1, cert.modulus, cert.elements, ((0, 99),))
        )
    with pytest.raises(InvalidConfigError):
        twisted.SpanCertificate.from_json("{not json")
    with pytest.raises(InvalidConfigError):
        twisted.SpanCertificate.from_json('{"e": 1}')


def test_search_sweep_small():
    for e in range(1, 11):
        cert = twisted.suzuki_search(e, seed=11)
        assert isinstance(cert, twisted.SpanCertificate), e
        assert twisted.suzuki_verify(cert)
        assert len(cert.elements) <= twisted._smax(2 * e + 1)


def test_search_failure_path():
    res = twisted.suzuki_search(3, budget=0, seed=0)
    assert isinstance(res, twisted.SearchFailure)
    assert res.e == 3 and res.restarts == 0


def test_search_degree_cap():
    with pytest.raises(InvalidConfigError):
        twisted.suzuki_search(501, seed=0)  # degree 1003 over the cap


# x^1003 + x^8 + x^6 + x^5 + x^4 + x + 1, irreducible over F_2
MODULUS_1003 = tuple(int(i in (0, 1, 4, 5, 6, 8, 1003)) for i in range(1004))


def test_verify_degree_cap_comes_before_the_field(monkeypatch):
    monkeypatch.setattr(twisted, "make_field", lambda *a, **k: pytest.fail("make_field reached"))
    cert = twisted.SpanCertificate(501, MODULUS_1003, (1,), ((0, 0),))
    with pytest.raises(InvalidConfigError, match="supported degrees"):
        twisted.suzuki_verify(cert)


def test_bit_echelon_matches_subspace():
    rng = random.Random(4)
    for _ in range(20):
        vecs = [rng.randrange(1, 1 << 6) for _ in range(5)]
        be = twisted.BitEchelon()
        for v in vecs:
            be.add(v)
        S = Subspace.from_vectors(
            F2, 6, [tuple((v >> i) & 1 for i in range(6)) for v in vecs]
        )
        assert be.rank == S.dim
        probe = rng.randrange(1 << 6)
        in_span = S.contains(tuple((probe >> i) & 1 for i in range(6)))
        assert (be.reduce(probe) == 0) == in_span

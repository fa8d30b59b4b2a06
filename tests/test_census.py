"""The census on structure constants: the pseudo-isometry decision against
`find_isomorphism`, the payload fields read from R against the table
fingerprint, and what the census calls."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinderlab import bimap, nursery, smallgrp
from kinderlab.errors import CapExceededError, PropertyViolationError
from kinderlab.gf import make_field
from kinderlab.linalg import Subspace, enumerate_superspaces, np_rank

F2, F3, F4, F9 = make_field(2, 1), make_field(3, 1), make_field(2, 2), make_field(3, 2)
NURSERIES = {
    "matrix(2,1,F2)": lambda: nursery.make_nursery("matrix", a=2, c=1, ctx=F2),
    "matrix(1,1,F4)": lambda: nursery.make_nursery("matrix", a=1, c=1, ctx=F4),
    "matrix(2,1,F3)": lambda: nursery.make_nursery("matrix", a=2, c=1, ctx=F3),
    "unitary(3,2)": lambda: nursery.make_nursery("unitary", p=3, e=2),
    "unitary(2,2)": lambda: nursery.make_nursery("unitary", p=2, e=2),
    "b2_odd(F9)": lambda: nursery.make_nursery("b2_odd", ctx=F9),
    "ree_small(1)": lambda: nursery.make_nursery("ree_small", e=1),
}


@functools.cache
def kinds(name, ell):
    N = NURSERIES[name]()
    return [nursery.kind_from_subspace(N, v, relaxed=True)
            for v in enumerate_superspaces(Subspace.zero(N.ctx, N.rdim), ell)]


def assert_pseudo_isometry(A, B, found):
    """(alpha, beta) is invertible and carries q (p = 2) or b (p odd) of
    every vector, and every pair of vectors, of A to B's."""
    alpha, beta = found
    p, n, d = A.p, A.n, A.d
    ctx = make_field(p, 1)
    assert np_rank(alpha, ctx) == n and np_rank(beta, ctx) == d
    src = A.vectors @ A.basis % p  # every vector of A, in A's coordinates
    dst = A.vectors @ alpha % p  # its image, in B's
    code = p ** np.arange(n - 1, -1, -1)
    if p == 2:
        assert (A.q[src @ code] @ beta.T % p == B.q[dst @ code]).all()
    bA = np.einsum("ai,ijk,bj->abk", src, A.bracket, src) @ beta.T % p
    assert (bA == np.einsum("ai,ijk,bj->abk", dst, B.bracket, dst) % p).all()


@functools.cache
def reference(name, ell, a, b):
    ks = kinds(name, ell)
    return smallgrp.find_isomorphism(ks[a].group(), ks[b].group()) is not None


def check_pair(name, ell, a, b):
    ks = kinds(name, ell)
    A, B = ks[a].form(), ks[b].form()
    found = bimap.pseudo_isometry(A, B)
    assert (found is not None) == reference(name, ell, a, b)
    if found is not None:
        assert A.invariants == B.invariants
        assert_pseudo_isometry(A, B, found)


# the kinds of F3 at ell = 1 have order 243, where one find_isomorphism
# between isomorphic kinds takes about 2 s: they are drawn below by hand
DRAWN = [("matrix(2,1,F2)", 1), ("matrix(2,1,F2)", 2), ("matrix(2,1,F2)", 3), ("matrix(1,1,F4)", 1),
         ("unitary(3,2)", 1)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DRAWN), st.data())
def test_the_decision_equals_find_isomorphism_on_kinder(kind_set, data):
    count = len(kinds(*kind_set))
    a, b = (data.draw(st.integers(0, count - 1)) for _ in range(2))
    check_pair(*kind_set, a, b)


def test_the_decision_equals_find_isomorphism_on_f3_kinder():
    buckets = {}
    for i, k in enumerate(kinds("matrix(2,1,F3)", 1)):
        buckets.setdefault(k.form().invariants, []).append(i)
    (a, *_), (b, *_) = buckets.values()
    # an isomorphic pair in each bucket, and the buckets against each other
    for i, j in [tuple(bucket[:2]) for bucket in buckets.values()] + [(a, b), (b, a)]:
        check_pair("matrix(2,1,F3)", 1, i, j)


def test_the_search_exhausts_on_f3_kinder_whose_forms_share_their_shape():
    # at ell = 2 three of the five classes have dim V 4, dim W 2 and no
    # radical, and differ only in the histogram of ranks: the search must
    # exhaust on them without the bucket
    N = NURSERIES["matrix(2,1,F3)"]()
    ks = [nursery.kind_from_subspace(N, v, relaxed=True)
          for v in enumerate_superspaces(Subspace.zero(F3, N.rdim), 2)]
    reps = {}
    for k in ks:
        reps.setdefault(k.form().invariants, k)
    shaped = [k for key, k in reps.items() if key[:3] == (4, 2, 0)]
    assert len(shaped) == 3
    for A, B in itertools.permutations(shaped, 2):
        assert bimap.pseudo_isometry(A.form(), B.form()) is None
        assert smallgrp.find_isomorphism(A.group(), B.group()) is None


def synthetic_group(phi, p):
    """The group on F_p^n x F_p^d with (v, w)(v', w') = (v + v', w + w' + phi(v, v'))."""
    n, _, d = phi.shape
    labels = list(itertools.product(itertools.product(range(p), repeat=n), itertools.product(range(p), repeat=d)))

    def mul(g, h):
        v, w = np.array(g[0]), np.array(h[0])
        return tuple((v + w) % p), tuple((np.array(g[1]) + h[1] + v @ phi.transpose(2, 0, 1) @ w) % p)

    return smallgrp.SmallGroup(labels, mul)


@functools.cache
def synthetic_pool():
    """Forms at p = 2 with dim V 4 and dim W 2 whose values span W, from a
    seeded generator, and every pair of them with equal invariants."""
    rng, forms = np.random.default_rng(5), []
    while len(forms) < 40:
        phi = rng.integers(0, 2, (4, 4, 2))
        if np_rank(np.concatenate([(phi + phi.transpose(1, 0, 2)).reshape(16, 2),
                                   np.einsum("iik->ik", phi)]) % 2, F2) == 2:
            forms.append(phi)
    shapes = [bimap.ClassTwoForm(phi, 2) for phi in forms]
    pairs = [(a, b) for a, b in itertools.combinations(range(40), 2)
             if shapes[a].invariants == shapes[b].invariants]
    return forms, shapes, pairs


@functools.cache
def synthetic_reference(a, b):
    forms = synthetic_pool()[0]
    return smallgrp.find_isomorphism(synthetic_group(forms[a], 2), synthetic_group(forms[b], 2)) is not None


def test_the_pool_has_non_isomorphic_pairs_with_equal_buckets():
    pairs = synthetic_pool()[2]
    outcomes = {synthetic_reference(a, b) for a, b in pairs[:20]}
    assert outcomes == {False, True}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_the_decision_equals_find_isomorphism_within_buckets(data):
    forms, shapes, pairs = synthetic_pool()
    a, b = data.draw(st.sampled_from(pairs))
    found = bimap.pseudo_isometry(shapes[a], shapes[b])
    assert (found is not None) == synthetic_reference(a, b)
    if found is not None:
        assert_pseudo_isometry(shapes[a], shapes[b], found)


# each kind set of the nurseries small enough for a table: item by item, the
# fields read from R against the table fingerprint
FIELD_SETS = [("matrix(2,1,F2)", 2), ("matrix(2,1,F2)", 3), ("matrix(1,1,F4)", 0), ("matrix(1,1,F4)", 1),
              ("matrix(1,1,F4)", 2), ("unitary(2,2)", 1), ("b2_odd(F9)", 1), ("ree_small(1)", 0)]


@pytest.mark.parametrize("kind_set", FIELD_SETS, ids=["%s-ell%d" % k for k in FIELD_SETS])
def test_the_payload_fields_from_r_equal_the_table_fingerprint(kind_set):
    for k in kinds(*kind_set):
        fp = k.group().fingerprint()
        assert k.census_fields() == {"order": fp.order, "exponent": fp.exponent, "center_order": fp.center_order,
                                     "derived_orders": list(fp.derived_orders)}


def refuse(*args, **kwargs):
    raise AssertionError("the census called a table invariant or the general search")


def test_the_census_calls_no_fingerprint_and_no_general_search(monkeypatch):
    for name in ("find_isomorphism", "iso_classes"):
        monkeypatch.setattr(smallgrp, name, refuse)
    for name in ("fingerprint", "generating_set"):
        monkeypatch.setattr(smallgrp.SmallGroup, name, refuse)
    rep = nursery.census(NURSERIES["b2_odd(F9)"](), 1, relaxed=True)  # kind groups of their own
    assert [c["members"] for c in rep.classes] == [4]
    monkeypatch.setattr(nursery.Kind, "group", refuse)  # Gamma_1 kept: no kind group at all
    rep = nursery.census(NURSERIES["matrix(2,1,F2)"](), 2, relaxed=True)
    assert [c["members"] for c in rep.classes] == [3, 18, 9, 2, 3]


def test_the_small_f3_census():
    rep = nursery.census(NURSERIES["matrix(2,1,F3)"](), 1, relaxed=True)
    assert rep.kinder_count == 40 and sorted(c["members"] for c in rep.classes) == [16, 24]


def test_the_f3_census_at_ell_2():
    # the one census whose witnesses close on 729-element kind tables built from label products
    rep = nursery.census(NURSERIES["matrix(2,1,F3)"](), 2, relaxed=True)
    assert rep.kinder_count == 130 and sorted(c["members"] for c in rep.classes) == [4, 4, 18, 32, 72]


# a nursery that keeps Gamma_1, and one whose kinds are groups of their own
@pytest.mark.parametrize("name,ell", [("matrix(2,1,F2)", 2), ("b2_odd(F9)", 1)])
def test_a_lifted_map_with_a_generator_moved_out_of_its_coset_is_refused(monkeypatch, name, ell):
    search = bimap.pseudo_isometry

    def moved(A, B):  # the first generator's image times the second's
        found = search(A, B)
        if found is not None:
            found[0][0] = (found[0][0] + found[0][1]) % A.p
        return found

    monkeypatch.setattr(nursery, "pseudo_isometry", moved)
    with pytest.raises(PropertyViolationError, match="search returned a non-isomorphism"):
        nursery.census(NURSERIES[name](), ell, relaxed=True)


def test_a_gl_w_over_the_bound_is_refused():
    # dim W = 5 at p = 2: |GL(W)| = 9999360, over bimap.GL_BOUND
    phi = np.zeros((4, 4, 5), dtype=np.int64)
    for k, (i, j) in enumerate(itertools.combinations(range(4), 2)):
        phi[i, j, k % 5] = 1
    phi[0, 0, 4] = phi[1, 1, 4] = 1
    A = bimap.ClassTwoForm(phi, 2)
    assert A.d == 5 and A.core == 4
    with pytest.raises(CapExceededError, match=r"GL\(5, 2\) has 9999360 elements, over bound 32768"):
        bimap.pseudo_isometry(A, A)

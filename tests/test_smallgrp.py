"""Concrete groups with published subgroup counts, plus structural laws."""

import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kinderlab import nursery, twisted
from kinderlab import smallgrp as sg
from kinderlab.errors import CapExceededError, PropertyViolationError
from kinderlab.gf import make_field
from kinderlab.linalg import Subspace, enumerate_superspaces, gaussian_binomial
from subquotient import (LabelProducts, center_idx, conjugate, derived_series_orders, exponent,
                         is_abelian, quotient, recorded_classes, subgroup)

F2 = make_field(2, 1)
F3 = make_field(3, 1)


def _quaternion_group():
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    table = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }

    def qmul(a, b):
        sign = 1
        if a.startswith("-"):
            sign, a = -sign, a[1:]
        if b.startswith("-"):
            sign, b = -sign, b[1:]
        s2, c = table[(a, b)]
        sign *= s2
        return c if sign == 1 else "-" + c

    return sg.SmallGroup(units, qmul, name="Q8")


# (group factory, subgroup count, class count) with textbook values
CENSUS = [
    (lambda: sg.cyclic_group(12), 6, 6),
    (lambda: sg.symmetric_group(3), 6, 4),
    (lambda: sg.dihedral_group(4), 10, 5),
    (_quaternion_group, 6, 4),
    (lambda: sg.symmetric_group(4), 30, 9),
    (lambda: sg.alternating_group(4), 10, 5),
    (lambda: sg.unitriangular_group(3, F2), 10, 5),
]


@pytest.mark.parametrize("factory,count,classes", CENSUS, ids=lambda v: getattr(v, "__name__", str(v)))
def test_sigma_counts(factory, count, classes):
    if not callable(factory):
        pytest.skip()
    G = factory()
    assert sg.sigma_counts(G) == (count, classes)


def test_elementary_abelian_census():
    E8 = sg.direct_product(
        sg.direct_product(sg.cyclic_group(2), sg.cyclic_group(2)), sg.cyclic_group(2)
    )
    s, si = sg.sigma_counts(E8)
    assert s == sum(gaussian_binomial(3, l, 2) for l in range(4)) == 16
    assert si == 4  # one class per rank


def test_cyclic_structure():
    C12 = sg.cyclic_group(12)
    assert is_abelian(C12) and exponent(C12) == 12
    assert sorted(set(C12.element_orders())) == [1, 2, 3, 4, 6, 12]
    assert C12.order_of(C12.index_of(1)) == 12


def test_s3_structure():
    S3 = sg.symmetric_group(3)
    assert not is_abelian(S3)
    assert derived_series_orders(S3) == (6, 3, 1)
    assert len(center_idx(S3)) == 1


def test_unitriangular_f3():
    U = sg.unitriangular_group(3, F3)
    assert U.n == 27 and exponent(U) == 3 and not is_abelian(U)
    assert len(center_idx(U)) == 3
    assert derived_series_orders(U) == (27, 3, 1)


def test_group_laws_random():
    G = sg.dihedral_group(6)
    rng = random.Random(5)
    for _ in range(100):
        i, j, k = (rng.randrange(G.n) for _ in range(3))
        assert G.mul_idx(G.mul_idx(i, j), k) == G.mul_idx(i, G.mul_idx(j, k))
        assert G.mul_idx(i, G.inverse_idx(i)) == G.identity
        # [i, j] = i^-1 j^-1 i j
        comm = G.mul_idx(
            G.mul_idx(G.inverse_idx(i), G.inverse_idx(j)), G.mul_idx(i, j)
        )
        assert G.commutator_idx(i, j) == comm


def test_isomorphism_witnesses():
    C6a = sg.cyclic_group(6)
    C6b = sg.direct_product(sg.cyclic_group(2), sg.cyclic_group(3))
    m = sg.find_isomorphism(C6a, C6b)
    assert m is not None and sg.verify_isomorphism(C6a, C6b, m)

    U3 = sg.unitriangular_group(3, F2)
    D4 = sg.dihedral_group(4)
    m2 = sg.find_isomorphism(U3, D4)
    assert m2 is not None and sg.verify_isomorphism(U3, D4, m2)

    assert sg.find_isomorphism(_quaternion_group(), D4) is None
    assert sg.find_isomorphism(sg.cyclic_group(8), D4) is None


def test_quotient():
    S4 = sg.symmetric_group(4)
    v4 = next(
        t
        for t in sg.all_subgroups(S4)
        if len(t) == 4
        and all(S4.order_of(i) <= 2 for i in t)
        and all(conjugate(S4, x, g) in t for x in t for g in range(S4.n))
    )
    Q = quotient(S4, v4)
    assert Q.n == 6
    assert sg.find_isomorphism(Q, sg.symmetric_group(3)) is not None

    D4 = sg.dihedral_group(4)
    QD = quotient(D4, center_idx(D4))
    assert QD.n == 4 and exponent(QD) == 2


def test_from_generators():
    S3 = sg.symmetric_group(3)
    gens = S3.generating_set()
    H = sg.SmallGroup.from_generators(
        lambda a, b: S3.labels[S3.mul_idx(S3.index_of(a), S3.index_of(b))],
        [S3.labels[i] for i in gens],
    )
    assert H.n == 6
    assert sg.find_isomorphism(H, S3) is not None


def test_element_orders_above_the_table_cap_start_no_column():
    # 4096 elements: a column per element would hold n^2 entries (128 MB)
    b8 = twisted.b2_build(make_field(2, 3))
    G = b8.group()
    assert G.n > sg.SUBGROUP_ORDER_CAP and G._T is None
    tracemalloc.start()
    try:
        orders = G.element_orders()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert all(col is None for col in G._cols)

    def label_order(g):  # the power walk on labels
        k, x = 1, g
        while x != b8.identity():
            x, k = b8.mul(x, g), k + 1
        return k
    assert orders == [label_order(g) for g in G.labels]


def test_closure_and_subgroup():
    G = sg.dihedral_group(5)
    r = next(i for i in range(G.n) if G.order_of(i) == 5)
    cyc = G.closure_idx([r])
    assert len(cyc) == 5
    H = subgroup(G, cyc)
    assert H.n == 5 and is_abelian(H)


def test_fingerprint_relabeling_invariance():
    D4 = sg.dihedral_group(4)
    rng = random.Random(17)
    perm = list(range(D4.n))
    rng.shuffle(perm)
    newlab = {D4.labels[i]: "g%d" % perm[i] for i in range(D4.n)}
    back = {v: k for k, v in newlab.items()}
    D4p = sg.SmallGroup(
        sorted(newlab.values()),
        lambda a, b: newlab[D4.labels[D4.mul_idx(D4.index_of(back[a]), D4.index_of(back[b]))]],
    )
    assert D4.fingerprint() == D4p.fingerprint()
    assert sg.find_isomorphism(D4, D4p) is not None


def test_index_of_keyerror():
    G = sg.cyclic_group(4)
    with pytest.raises(KeyError):
        G.index_of("nope")


def test_caps():
    G = sg.cyclic_group(sg.SUBGROUP_ORDER_CAP + 1)  # no table, so no lattice
    with pytest.raises(CapExceededError, match="over table cap"):
        sg.all_subgroups(G)
    with pytest.raises(CapExceededError, match="over table cap"):
        sg.sigma_counts(G, iso_order_cap=G.n)


def test_sigma_multiplicative_coprime():
    C35 = sg.direct_product(sg.cyclic_group(5), sg.cyclic_group(7))
    assert sg.sigma_counts(C35) == (4, 4)
    a = sg.sigma_counts(sg.dihedral_group(4))
    b = sg.sigma_counts(sg.cyclic_group(27))
    ab = sg.sigma_counts(sg.direct_product(sg.dihedral_group(4), sg.cyclic_group(27)))
    assert ab == (a[0] * b[0], a[1] * b[1])


def test_mul_idx_starts_columns_only_up_to_the_table_cap():
    small = sg.cyclic_group(12)
    assert small.mul_idx(3, 5) == 8 and small._cols[5] is not None
    big = sg.cyclic_group(sg.SUBGROUP_ORDER_CAP + 1)
    assert big.mul_idx(3, 5) == 8 and big._cols[5] is None
    assert big.inverse_idx(5) == big.n - 5 and all(c is None for c in big._cols)
    # nor do closures, above the cap
    assert len(big.closure_idx([7])) == big.n and all(c is None for c in big._cols)
    assert big.order_of(683) == 3 and big.commute([3], [5]).all()
    assert not big.commutators([3], [5]).any()
    assert big._T is None and all(c is None for c in big._cols)


def test_element_orders_below_the_table_cap_hold_the_table_and_its_walk():
    # a column per element would hold n^2 list entries (32 MB at n = 2048)
    G = sg.cyclic_group(sg.SUBGROUP_ORDER_CAP)
    tracemalloc.start()
    try:
        orders = G.element_orders()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 20 * 2**20  # the int16 table and the power walk, 8 MB each
    assert orders == [G.n // math.gcd(i, G.n) for i in range(G.n)]
    assert G._T is not None and all(c is None for c in G._cols)


def _census_kind():
    nur = nursery.make_nursery("matrix", a=2, c=1, ctx=F2)
    v = next(enumerate_superspaces(Subspace.zero(F2, nur.rdim), 2))
    return nursery.kind_from_subspace(nur, v, relaxed=True).group()


WALK_GROUPS = {
    "C8xC27": sg.direct_product(sg.cyclic_group(8), sg.cyclic_group(27)),  # an element of order 216
    "Sym3^3": sg.direct_product(sg.symmetric_group(3),
                                sg.direct_product(sg.symmetric_group(3), sg.symmetric_group(3))),
    "kind": _census_kind(),  # its table given as an array, cut from Gamma_1's checked table
}


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(WALK_GROUPS)), seed=st.integers(0, 2**32))
def test_power_walk_equals_repeated_products(name, seed):
    G0 = WALK_GROUPS[name]
    perm = list(range(G0.n))
    random.Random(seed).shuffle(perm)
    labels = [G0.labels[i] for i in perm]
    table = None
    if name == "kind":  # the kind's array on the new label order, as a family hands it over
        table = np.argsort(perm)[G0._T[np.ix_(perm, perm)]].astype(np.int16)
    G = sg.SmallGroup(labels, G0._mul_label, columns=table)
    ref = LabelProducts(G)
    orders, inverses, S = G._walk
    assert table is None or G._T is table  # kept as given
    for x in range(G.n):
        powers = ref.powers(x)  # x^0, x^1, ... up to x^order = e
        order = len(powers) - 1
        assert orders[x] == order == G.order_of(x)
        assert inverses[x] == powers[-2] == G.inverse_idx(x)
        assert all(S[k, x] == powers[k % order] for k in range(len(S)))
    assert len(S) - 1 == exponent(G0) == max(orders)


def test_order_and_inverse_above_the_table_cap_stay_lazy():
    G = twisted.b2_build(make_field(2, 3)).group()
    assert G.n == 4096 > sg.SUBGROUP_ORDER_CAP
    for i in range(0, G.n, 97):
        assert G.mul_idx(i, G.inverse_idx(i)) == G.identity
        x, k = i, 1
        while x != G.identity:
            x, k = G.mul_idx(x, i), k + 1
        assert G.order_of(i) == k
    assert G._T is None and "_walk" not in vars(G)
    with pytest.raises(CapExceededError):
        G._walk


BRACKET_GROUPS = {
    "D4": sg.dihedral_group(4),
    "Q8": _quaternion_group(),
    "Sym4": sg.symmetric_group(4),
    "UT3(F3)": sg.unitriangular_group(3, F3),
    "kind": _census_kind(),
}


def _bracket(G, x, y):
    """x^-1 y^-1 x y, one product at a time."""
    return G.mul_idx(G.mul_idx(G.inverse_idx(x), G.inverse_idx(y)), G.mul_idx(x, y))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(BRACKET_GROUPS)), seed=st.integers(0, 2**32),
       tabled=st.booleans(), data=st.data())
def test_commutators_equal_commutator_idx_on_relabellings(name, seed, tabled, data):
    G0 = BRACKET_GROUPS[name]
    labels = list(G0.labels)
    random.Random(seed).shuffle(labels)
    labels.append(labels.pop(labels.index(G0.labels[G0.identity])))  # the identity last, not at 0
    G = sg.SmallGroup(labels, G0._mul_label)
    ref = LabelProducts(G)
    if tabled:
        G.table()
    index = st.integers(0, G.n - 1)
    xs = data.draw(st.lists(index, min_size=1, max_size=12))
    ys = data.draw(st.lists(index, min_size=1, max_size=12))
    got = G.commutators(xs, ys)
    assert G.identity == G.n - 1 and got.shape == (len(xs), len(ys))
    assert got.tolist() == [[_bracket(ref, x, y) for y in ys] for x in xs]
    assert got.tolist() == [[G.commutator_idx(x, y) for y in ys] for x in xs]
    assert G._T is not None  # below the cap the table is built, asked for or not
    assert G.span_idx(got.ravel().tolist()) == ref.closure_idx(got.ravel().tolist())


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(BRACKET_GROUPS)), seed=st.integers(0, 2**32), tabled=st.booleans(),
       data=st.data())
def test_commute_is_a_trivial_bracket(name, seed, tabled, data):
    G0 = BRACKET_GROUPS[name]
    labels = list(G0.labels)
    random.Random(seed).shuffle(labels)
    G = sg.SmallGroup(labels, G0._mul_label)
    ref = LabelProducts(G)
    if tabled:
        G.table()
    index = st.integers(0, G.n - 1)
    xs = data.draw(st.lists(index, max_size=12))
    ys = data.draw(st.lists(index, max_size=12))
    got = G.commute(xs, ys)
    assert got.dtype == bool and got.shape == (len(xs), len(ys))
    assert got.tolist() == [[_bracket(ref, x, y) == ref.identity for y in ys] for x in xs]
    assert G._T is not None


COLUMN_GROUPS = dict(BRACKET_GROUPS, **{
    "Sym3xC50": sg.direct_product(sg.symmetric_group(3), sg.cyclic_group(50)),  # columns share ints
})


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(COLUMN_GROUPS)), seed=st.integers(0, 2**32), data=st.data())
def test_a_column_read_before_the_table_is_whole(name, seed, data):
    # _search, _is_isomorphism and _cyclic_extension read columns unchecked
    G0 = COLUMN_GROUPS[name]
    labels = list(G0.labels)
    random.Random(seed).shuffle(labels)
    G = sg.SmallGroup(labels, G0._mul_label)
    ref = LabelProducts(G)
    assert G._T is None
    for j in data.draw(st.lists(st.integers(0, G.n - 1), min_size=1, max_size=4)):
        assert G._column(j) == [ref.mul_idx(i, j) for i in range(G.n)]


def test_commutators_above_the_table_cap_start_no_column():
    b2 = twisted.b2_build(make_field(2, 3))
    G = b2.group()
    assert G.n == 4096 > sg.SUBGROUP_ORDER_CAP
    rng = random.Random(8)
    xs = [rng.randrange(G.n) for _ in range(12)]
    ys = [rng.randrange(G.n) for _ in range(12)]
    got = G.commutators(xs, ys)
    assert [[G.labels[c] for c in row] for row in got.tolist()] == [
        [b2.commutator(G.labels[x], G.labels[y]) for y in ys] for x in xs]
    assert got.tolist() == [[_bracket(G, x, y) for y in ys] for x in xs]
    assert G._T is None and all(col is None for col in G._cols)


def test_span_idx_closes_only_on_elements_that_enlarge_it():
    G = sg.symmetric_group(4)
    a, b = G.index_of((1, 0, 2, 3)), G.index_of((1, 2, 3, 0))
    calls, closure = [], G.closure_idx
    with mock.patch.object(G, "closure_idx", lambda seeds: calls.append(list(seeds)) or closure(seeds)):
        sub = G.span_idx([G.identity, a, a, G.mul_idx(a, a), b, G.mul_idx(b, a)])
    assert sub == tuple(range(G.n)) and calls == [[a], [a, b]]
    assert G.span_idx([]) == G.span_idx([G.identity]) == (G.identity,)
    assert G.span_gens([G.identity, a, a, G.mul_idx(a, a), b, G.mul_idx(b, a)]) == (a, b)
    assert G.span_gens([]) == G.span_gens([G.identity]) == ()


ISO_GROUPS = {
    "D4": sg.dihedral_group(4),
    "Q8": _quaternion_group(),
    "UT3(F3)": sg.unitriangular_group(3, F3),
    "Sym3^2": sg.direct_product(sg.symmetric_group(3), sg.symmetric_group(3)),
    "kind": _census_kind(),
}


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(ISO_GROUPS)), seed=st.integers(0, 2**32))
def test_find_isomorphism_on_relabellings(name, seed):
    G = ISO_GROUPS[name]
    labels = list(G.labels)
    random.Random(seed).shuffle(labels)
    H = sg.SmallGroup(labels, G._mul_label)
    mapping = sg.find_isomorphism(G, H)
    assert mapping is not None and sg.verify_isomorphism(G, H, mapping)
    assert G.fingerprint() == H.fingerprint()


def test_iso_classes_rejects_a_wrong_map(monkeypatch):
    # a bijection that is no isomorphism is a failed self-check, not a bad parameter
    def swapped(G, H, node_budget=None):
        # the identity map with the identity's image swapped: a bijection, not a homomorphism
        mapping = list(range(H.n))
        other = (G.identity + 1) % G.n
        mapping[G.identity], mapping[other] = other, G.identity
        return mapping

    monkeypatch.setattr(sg, "find_isomorphism", swapped)
    with pytest.raises(PropertyViolationError):
        sg.iso_classes([sg.cyclic_group(4), sg.cyclic_group(4)])


def test_sigma_counts_refuses_a_group_over_the_iso_cap_before_its_lattice(monkeypatch):
    # G is one of its own subgroups, so its order alone decides the iso cap
    def no_lattice(*args, **kwargs):
        pytest.fail("the lattice of a group over the iso cap was enumerated")

    monkeypatch.setattr(sg, "all_subgroups", no_lattice)
    s3 = sg.symmetric_group(3)
    G = sg.direct_product(sg.direct_product(s3, s3), sg.direct_product(s3, s3))
    assert G.n == 1296
    with pytest.raises(CapExceededError, match="a subgroup exceeds the iso cap 512"):
        sg.sigma_counts(G)
    with pytest.raises(CapExceededError, match="a subgroup exceeds the iso cap 8"):
        sg.sigma_counts(sg.cyclic_group(16), iso_order_cap=8)


def _relabelled(G, seed):
    labels = list(G.labels)
    random.Random(seed).shuffle(labels)
    return sg.SmallGroup(labels, G._mul_label)


def _reference_sigma(G):
    """(sigma, sigma_iso) and the class partition by the path `sigma_counts`
    took before: one SmallGroup per subgroup, its table restricted from G's,
    and `iso_classes` on those groups (fingerprints and searches on each
    subgroup's own table)."""
    subs = sg.all_subgroups(G)
    classes, _ = sg.iso_classes([subgroup(G, s) for s in subs])
    return (len(subs), len(classes)), classes


def _sigma_with_classes(G):
    """sigma_counts(G) and the class partition it counted, each class of
    conjugacy class representatives expanded to every subgroup of their
    classes, as indices into the whole lattice."""
    seen, classify = [], sg._classify

    def spy(*args):
        seen.append(classify(*args))
        return seen[-1]

    with mock.patch.object(sg, "_classify", spy):
        counts = sg.sigma_counts(G)
    [(classes, _)] = seen
    reps, conjugates = list(G._sub_classes), recorded_classes(G)
    index = {s: r for r, s in enumerate(sorted(G._sub_gens, key=lambda t: (len(t), t)))}
    return counts, sorted(sorted(index[t] for k in c for t in conjugates[reps[k]]) for c in classes)


_S3 = sg.symmetric_group(3)
LATTICE_GROUPS = {
    "UT3(F2)": sg.unitriangular_group(3, F2),
    "UT3(F3)": sg.unitriangular_group(3, F3),
    "Alt5": sg.alternating_group(5),
    "D4": sg.dihedral_group(4),
    "C8xC27": sg.direct_product(sg.cyclic_group(8), sg.cyclic_group(27)),
    "D4xC27": sg.direct_product(sg.dihedral_group(4), sg.cyclic_group(27)),
    "Sym3^2": sg.direct_product(_S3, _S3),
    "Sym4": sg.symmetric_group(4),
    "D4xC2": sg.direct_product(sg.dihedral_group(4), sg.cyclic_group(2)),
    "C4xC4": sg.direct_product(sg.cyclic_group(4), sg.cyclic_group(4)),
}


def test_a_tabled_group_makes_no_label_products():
    G = _relabelled(LATTICE_GROUPS["Sym3^2"], 6)
    ref = LabelProducts(_relabelled(LATTICE_GROUPS["Sym3^2"], 6))  # the same labels, law intact
    G.table()
    G._mul_label = None  # a label product now raises TypeError
    xs = list(range(0, G.n, 5))
    assert [G.mul_idx(x, 7) for x in xs] == [ref.mul_idx(x, 7) for x in xs]
    assert G.closure_idx(xs[:2]) == G.span_idx(xs[:2]) == ref.closure_idx(xs[:2])
    assert [(G.order_of(x), G.inverse_idx(x)) for x in xs] == [
        (ref.order_of(x), ref.inverse_idx(x)) for x in xs]
    assert G.element_orders() == [ref.order_of(x) for x in range(G.n)]
    assert G.commutators(xs, xs).tolist() == [[_bracket(ref, x, y) for y in xs] for x in xs]
    assert G.commute(xs, xs).tolist() == [[ref.mul_idx(x, y) == ref.mul_idx(y, x) for y in xs]
                                          for x in xs]
    assert sg.sigma_counts(G) == sg.sigma_counts(LATTICE_GROUPS["Sym3^2"])


def test_fingerprint_starts_no_column():
    G = _relabelled(LATTICE_GROUPS["D4xC27"], 5)
    G.fingerprint()
    assert G._T is not None and all(c is None for c in G._cols)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(LATTICE_GROUPS)), seed=st.integers(0, 2**32))
def test_sigma_counts_classes_equal_the_per_subgroup_path(name, seed):
    G = _relabelled(LATTICE_GROUPS[name], seed)
    assert _sigma_with_classes(G) == _reference_sigma(G)


def test_sigma_counts_classes_equal_the_per_subgroup_path_on_sym3_cubed():
    # one fixed relabelling: the reference path takes about half a second here
    G = _relabelled(sg.direct_product(_S3, sg.direct_product(_S3, _S3)), 3)
    got, ref = _sigma_with_classes(G), _reference_sigma(G)
    assert got == ref and got[0] == (904, 26)


def test_conjugacy_classes_of_sym3_squared():
    # Sym3^2: 60 subgroups in 22 conjugacy classes, each the orbit of its
    # representative under conjugation by every element
    G = _relabelled(LATTICE_GROUPS["Sym3^2"], 8)
    subs = sg.all_subgroups(G)
    classes = recorded_classes(G)
    assert len(subs) == 60 and len(classes) == 22
    for rep, c in classes.items():
        assert c == {tuple(sorted(conjugate(G, x, g) for x in rep)) for g in range(G.n)}


def test_abelian_group_has_a_class_per_subgroup():
    G = _relabelled(LATTICE_GROUPS["C8xC27"], 4)
    subs = sg.all_subgroups(G)
    assert G._sub_classes == dict.fromkeys(subs, 1)


def test_a_conjugation_that_is_no_automorphism_is_refused():
    # a wrong inverse of a generator makes x -> T[h, T[x, wrong]] a translate
    # of conjugation, which takes e off e: the lattice must refuse it
    G = _relabelled(LATTICE_GROUPS["Sym3^2"], 9)
    orders, inverse, S = G._walk
    h = G.span_gens(range(G.n))[0]
    bad = inverse.copy()
    bad[h] = next(x for x in range(G.n) if x not in (inverse[h], G.identity))
    G.__dict__["_walk"] = (orders, bad, S)
    with pytest.raises(PropertyViolationError, match="conjugation is not a homomorphism"):
        sg.all_subgroups(G)


def test_a_wrong_conjugate_is_refused(monkeypatch):
    # the class of the first Sylow 2-subgroup of Sym3 x C4 found is given a
    # fourth member: a subgroup of an earlier class, which then sits in two
    # classes, or a set of 8 elements that is no subgroup, a fourth Sylow
    # 2-subgroup
    G = _relabelled(sg.direct_product(_S3, sg.cyclic_group(4)), 10)
    whole = sg._conjugacy_class
    for plant, match in [("earlier", "conjugacy classes hold 27 subgroups, not 26"),
                         ("bogus", r"4 subgroups of order 2\^3, not 1 mod 2")]:
        found, planted = [], []

        def planting(sub, gens, conj):
            orbit = whole(sub, gens, conj)
            if len(sub) == 8 and not planted:
                assert len(orbit) == 3
                wrong = found[-1] if plant == "earlier" else sub[:-1] + (
                    next(x for x in range(G.n) if x not in sub),)
                orbit[wrong] = gens
                planted.append(wrong)
            found.extend(orbit)
            return orbit

        monkeypatch.setattr(sg, "_conjugacy_class", planting)
        with pytest.raises(PropertyViolationError, match=match):
            sg.all_subgroups(G)
        assert len(planted) == 1


# (group factory, sigma, sigma_iso, whether two types share an order)
@pytest.mark.parametrize("factory,count,classes,shared", [
    (lambda: sg.dihedral_group(4), 10, 5, True),  # C4, C2^2
    (_quaternion_group, 6, 4, False),
    (lambda: sg.symmetric_group(4), 30, 9, True),  # C4, C2^2
    (lambda: sg.direct_product(_S3, _S3), 60, 11, True),  # C6, Sym3
], ids=["D4", "Q8", "Sym4", "Sym3^2"])
def test_sigma_counts_with_fingerprints_of_order_alone(monkeypatch, factory, count, classes, shared):
    # every subgroup of one order shares a bucket, so only the search (element
    # invariants and exhausted branches) tells the types apart
    invariants, search, misses = sg.SmallGroup.subset_invariants, sg._search, []

    def order_only(self, subsets):
        return [(sg.IsoFingerprint(order=fp.order, order_hist=(), center_order=0, derived_orders=(),
                                   abelian_hist=(), exponent=0, class_profile=()), inv)
                for fp, inv in invariants(self, subsets)]

    def counted(A, gens, B, candidates):
        image = search(A, gens, B, candidates)
        misses.append(image is None)
        return image

    monkeypatch.setattr(sg.SmallGroup, "subset_invariants", order_only)
    monkeypatch.setattr(sg, "_search", counted)
    assert sg.sigma_counts(factory()) == (count, classes)
    assert any(misses) == shared


@pytest.mark.parametrize("factory,swap", [
    # the identity's image traded with the next member's
    (lambda: sg.dihedral_group(4), lambda orders: (orders.index(1), (orders.index(1) + 1) % len(orders))),
    # an involution's image traded with an element of order 4's: the identity stays, the law breaks
    (lambda: sg.direct_product(sg.cyclic_group(4), sg.cyclic_group(2)),
     lambda orders: (orders.index(2), orders.index(4)) if 4 in orders else None),
], ids=["identity", "law"])
def test_sigma_counts_rejects_a_wrong_map(monkeypatch, factory, swap):
    # the counterpart of test_iso_classes_rejects_a_wrong_map on member lists
    search = sg._search

    def spoiled(A, gens, B, candidates):
        image = search(A, gens, B, candidates)
        pair = swap([order for order, _ in A.inv])
        if image is not None and pair is not None:
            i, j = pair
            image[i], image[j] = image[j], image[i]
        return image

    monkeypatch.setattr(sg, "_search", spoiled)
    with pytest.raises(PropertyViolationError, match="search returned a non-isomorphism"):
        sg.sigma_counts(factory())


def test_find_isomorphism_refuses_a_wrong_map(monkeypatch):
    # two elements of order 3 swapped in the map the search found: still a
    # bijection that keeps every element's order, but no isomorphism
    G, H = ISO_GROUPS["Sym3^2"], _relabelled(ISO_GROUPS["Sym3^2"], 4)
    search, threes = sg._search, [i for i, o in enumerate(G.element_orders()) if o == 3]

    def spoiled(A, gens, B, candidates):
        image = search(A, gens, B, candidates)
        i, j = threes[:2]
        image[i], image[j] = image[j], image[i]
        return image

    assert sg.verify_isomorphism(G, H, sg.find_isomorphism(G, H))
    monkeypatch.setattr(sg, "_search", spoiled)
    with pytest.raises(PropertyViolationError, match="search returned a non-isomorphism"):
        sg.find_isomorphism(G, H)


def test_find_isomorphism_stops_at_the_node_budget(monkeypatch):
    monkeypatch.setattr(sg, "_ISO_NODE_BUDGET", 0)
    G = ISO_GROUPS["Sym3^2"]
    with pytest.raises(CapExceededError, match="^isomorphism search budget exhausted$"):
        sg.find_isomorphism(_relabelled(G, 1), _relabelled(G, 2))


def test_verify_isomorphism_rejects_bad_maps():
    G, H = ISO_GROUPS["Sym3^2"], _relabelled(ISO_GROUPS["Sym3^2"], 4)
    good = sg.find_isomorphism(G, H)
    assert sg.verify_isomorphism(G, H, good)
    orders = G.element_orders()
    two, three = orders.index(2), orders.index(3)

    def swapped(i, j):
        image = list(good)
        image[i], image[j] = image[j], image[i]
        return image

    repeated = list(good)
    repeated[two] = repeated[three]
    for bad in (good[:-1], repeated, swapped(G.identity, two), swapped(two, three)):
        assert not sg.verify_isomorphism(G, H, bad)


def test_a_cut_keeps_the_member_order_and_the_parent_products():
    G = _relabelled(ISO_GROUPS["Sym3^2"], 6)
    members = list(G.closure_idx([G.generating_set()[0]]))
    random.Random(6).shuffle(members)
    H = G.cut(members, name="cyclic")
    assert H.labels == tuple(G.labels[i] for i in members)
    assert H.table().tolist() == sg.SmallGroup(H.labels, G._mul_label).table().tolist()
    missing = [i for i in members if i != G.identity]
    with pytest.raises(PropertyViolationError, match="a product leaves the cyclic"):
        G.cut(missing, name="cyclic")


def test_a_cut_above_the_table_cap_has_no_table():
    G = sg.cyclic_group(sg.SUBGROUP_ORDER_CAP + 2)
    H = G.cut(range(0, G.n, 2))
    assert G._T is None and H._T is None
    assert H.labels == tuple(range(0, G.n, 2))
    assert H.labels[H.mul_idx(3, 4)] == 14

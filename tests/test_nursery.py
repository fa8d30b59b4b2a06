"""Nurseries, kinder, and the reconstruction pipeline."""

import math
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from kinderlab import genericity, nursery, smallgrp
from kinderlab.errors import CapExceededError, InvalidConfigError, PropertyViolationError, need
from kinderlab.gf import make_field
from kinderlab.linalg import Subspace, enumerate_subspaces, enumerate_superspaces, gaussian_binomial
from subquotient import exponent

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


def test_matrix_11_f2_is_heisenberg():
    N = nursery.make_nursery("matrix", a=1, c=1, ctx=F2)
    assert (N.order, N.rdim, N.mdim) == (8, 1, 1)
    G1 = N.gamma1_group()
    U3 = smallgrp.unitriangular_group(3, F2)
    assert smallgrp.find_isomorphism(G1, U3) is not None
    assert smallgrp.sigma_counts(G1) == (10, 5)


def test_matrix_21_f2_shape():
    N2 = nursery.make_nursery("matrix", a=2, c=1, ctx=F2)
    assert N2.order == 256
    assert len(N2.s_coords) == 3
    assert N2.s_subspace().dim == 3
    K = nursery.kind_from_subspace(N2, N2.s_subspace())
    assert K.order == 128
    assert K.group().n == 128


def test_matrix_extension_field():
    N = nursery.make_nursery("matrix", a=1, c=1, ctx=F4)
    assert N.rdim == 2 and N.mdim == 2 and N.order == 64
    G = N.gamma1_group()
    assert G.n == 64


def test_unitary_kinds():
    NU = nursery.make_nursery("unitary", p=2, e=1)
    assert (NU.order, NU.rdim, NU.mdim) == (8, 1, 1)
    NU3 = nursery.make_nursery("unitary", p=3, e=1)
    G = NU3.gamma1_group()
    assert G.n == 27 and exponent(G) == 3
    assert G.fingerprint().derived_orders == (27, 3, 1)
    NU22 = nursery.make_nursery("unitary", p=2, e=2)
    assert NU22.rdim == 2 and NU22.mdim == 2 and NU22.order == 64
    assert len(NU22.s_coords) == 2


def test_b2_odd_extraspecial():
    N3 = nursery.make_nursery("b2_odd", ctx=F3)
    assert N3.order == 27
    G3 = N3.gamma1_group()
    fp = G3.fingerprint()
    assert fp.center_order == 3 and fp.derived_orders == (27, 3, 1) and exponent(G3) == 3


def test_ree_small():
    NR = nursery.make_nursery("ree_small", e=1)
    assert NR.order == 3**9 and NR.rdim == 3 and NR.mdim == 3


def _altered(**change):
    """matrix(2,1,F2)'s constructor arguments, with some replaced."""
    N = nursery.make_nursery("matrix", a=2, c=1, ctx=F2)
    args = {"R": N.R, "s_coords": N.s_coords, "t_vectors": N.t_vectors, **change}
    return nursery.ModuleNursery("altered", F2, **args)


UNIT, E01, E10 = [[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]


@pytest.mark.parametrize("change, match", [
    (dict(R=np.zeros((4, 2, 1))), "rdim, mdim, mdim"),
    (dict(R=[[[1, 0], [0, 0]]]), "lacks a unit"),
    (dict(R=[UNIT, E01, E10], s_coords=[(1, 0, 0)]), "not closed under products"),
    (dict(s_coords=[(1, 0, 0)]), "wrong length"),
    (dict(s_coords=[(0, 1, 0, 0)]), "must contain the unit"),
    (dict(s_coords=[(1, 0, 0, 1)]), "proper subalgebra"),
    (dict(t_vectors=[(1, 0)]), "annihilator condition"),
    (dict(t_vectors=[]), "annihilator condition"),
    (dict(t_vectors=[(1, 0, 0)]), "probe has the wrong length"),
])
def test_constructor_rejects_an_inconsistent_algebra(change, match):
    with pytest.raises(InvalidConfigError, match=match):
        _altered(**change)


def test_constructor_refuses_gamma2_over_the_cap_before_any_check():
    # M of dimension 8 over F2: |Gamma_2| = 2^16 > GROUP_ORDER_CAP, so the
    # all-zero array, which has no unit, is refused for its size alone
    with pytest.raises(CapExceededError, match="2\\^16 over cap %d" % nursery.GROUP_ORDER_CAP):
        nursery.ModuleNursery("big", F2, np.zeros((1, 8, 8)), [(1,)], [])
    assert nursery.ModuleNursery("small", F2, [np.eye(7)], [(1,)], np.eye(7, dtype=int)).mdim == 7


def test_make_nursery_rejects_unknown():
    with pytest.raises(InvalidConfigError):
        nursery.make_nursery("mystery")


@pytest.mark.parametrize("kind, params, missing", [
    ("matrix", dict(a=2), "c, ctx"),
    ("matrix", dict(a=2, c=1), "ctx"),
    ("unitary", dict(p=2), "e"),
    ("b2_odd", {}, "ctx"),
    ("ree_small", {}, "e"),
])
def test_make_nursery_names_missing_parameters(kind, params, missing):
    with pytest.raises(InvalidConfigError, match="missing parameters: %s$" % missing):
        nursery.make_nursery(kind, **params)


def test_kind_validation():
    N2 = nursery.make_nursery("matrix", a=2, c=1, ctx=F2)
    with pytest.raises(InvalidConfigError):
        nursery.kind_from_subspace(N2, Subspace.zero(F2, 4))  # misses S
    with pytest.raises(InvalidConfigError):
        nursery.kind_from_subspace(N2, Subspace.zero(F2, 3))  # wrong ambient
    # relaxed mode admits it
    K0 = nursery.kind_from_subspace(N2, Subspace.zero(F2, 4), relaxed=True)
    assert K0.order == 16


def test_random_kind_anchoring():
    N2 = nursery.make_nursery("matrix", a=2, c=1, ctx=F2)
    rng = random.Random(0)
    for ell in (3, 4):
        K = nursery.random_kind(N2, ell, rng)
        assert K.subspace.dim == ell
        for s in N2.s_coords:
            assert K.subspace.contains(s)
    with pytest.raises(InvalidConfigError):
        nursery.random_kind(N2, 1, rng)  # below dim span(S)


def derived_equals_gamma3(kind) -> bool:
    """Whether [Q,Q] is all of Gamma_3, i.e. V.M spans M: the reference that
    genericity's derived_full frequency is checked against."""
    n = kind.nursery
    cols = [col for xc in kind.subspace.basis for col in n.r_matrix(xc).T.tolist()]
    return Subspace.from_vectors(n.ctx, n.mdim, cols).dim == n.mdim


def test_derived_equals_gamma3():
    N2 = nursery.make_nursery("matrix", a=2, c=1, ctx=F2)
    assert derived_equals_gamma3(
        nursery.kind_from_subspace(N2, Subspace.full(F2, 4))
    )
    e11 = Subspace.from_vectors(F2, 4, [[1, 0, 0, 0]])
    assert not derived_equals_gamma3(
        nursery.kind_from_subspace(N2, e11, relaxed=True)
    )
    scal = Subspace.from_vectors(F2, 4, [[1, 0, 0, 1]])
    assert derived_equals_gamma3(
        nursery.kind_from_subspace(N2, scal, relaxed=True)
    )


def test_derived_fraction_matches_genericity():
    N2 = nursery.make_nursery("matrix", a=2, c=1, ctx=F2)
    rep = genericity.exhaustive_mode("derived_full", {"a": 2, "b": 2, "c": 1, "q": 2, "ell": 2})
    cnt = 0
    total = 0
    for V in enumerate_subspaces(4, 2, F2):
        total += 1
        cnt += derived_equals_gamma3(nursery.kind_from_subspace(N2, V, relaxed=True))
    assert total == gaussian_binomial(4, 2, 2) == 35
    assert (cnt, total) == (rep.success, rep.trials)


def test_reconstruct_exact():
    N = nursery.make_nursery("matrix", a=1, c=1, ctx=F2)
    K1 = nursery.kind_from_subspace(N, Subspace.full(F2, 1))
    rng = random.Random(7)
    rho, mu = nursery.random_frames(K1, rng)
    rec = nursery.reconstruct(K1, rho, mu)
    assert rec.X == frozenset(N.gamma2_labels())
    assert rec.Y == frozenset(N.gamma3_labels())
    assert rec.Z == frozenset([N.identity_label()])
    assert len(rec.X) == 4 and len(rec.Y) == 2


@pytest.mark.parametrize(
    "kindspec",
    [("matrix", dict(a=2, c=1, ctx=F2)), ("matrix", dict(a=1, c=1, ctx=F4)), ("unitary", dict(p=3, e=1))],
    ids=["matrix-2-1-F2", "matrix-1-1-F4", "unitary-3-1"],
)
def test_reconstruct_random_kinder(kindspec):
    name, params = kindspec
    N = nursery.make_nursery(name, **params)
    g2 = frozenset(N.gamma2_labels())
    g3 = frozenset(N.gamma3_labels())
    rng = random.Random(42)
    lo = N.s_subspace().dim
    for _ in range(10):
        K = nursery.random_kind(N, rng.randint(lo, N.rdim), rng)
        rho, mu = nursery.random_frames(K, rng)
        rec = nursery.reconstruct(K, rho, mu)
        assert rec.X == g2 and rec.Y == g3 and rec.Z == frozenset([N.identity_label()])


def test_reconstruct_rejects_collapsed_probes():
    N2 = nursery.make_nursery("matrix", a=2, c=1, ctx=F2)
    K = nursery.kind_from_subspace(N2, Subspace.full(F2, 4))
    rng = random.Random(5)
    rho, mu = nursery.random_frames(K, rng)
    zr = (0,) * 4
    bad = {t: (zr, (0, 1), (0, 0)) for t in N2.t_vectors}
    with pytest.raises(PropertyViolationError):
        nursery.reconstruct(K, rho, bad)


def _gl_order(nn: int, q: int) -> int:
    out = 1
    for i in range(nn):
        out *= q**nn - q**i
    return out


def bound_log(formula: str, **params) -> float:
    """Exact base-p exponents of the counting bounds, clamped at 0: the
    formulas the census and the orbit counts are checked against."""
    if formula == "nursery_count":
        r, ell, s, m, t = need(params, "r", "ell", "s", "m", "t")
        return float(max(0, (ell - s) * (r - ell) - ell * s - m * t))
    if formula == "coro_ud_lower":
        a, e, ell = need(params, "a", "e", "ell")
        return float(max(0, (ell - 3) * (a * a * e - ell) - 3 * ell - a * a * e))
    if formula == "orbit_upper":
        a, b, c, e, p = need(params, "a", "b", "c", "e", "p")
        if min(a, b, c, e) < 1:
            raise InvalidConfigError("block sizes and degree must be positive")
        q = p**e
        if a > c >= 1:
            order = e * _gl_order(a, q) * _gl_order(b, q) * _gl_order(c, q) // (q - 1)
        elif a == c > 1:
            order = 2 * e * _gl_order(a, q) ** 2 * _gl_order(b, q) // (q - 1)
        elif a == c == 1:
            sp = q ** (b * b)
            for i in range(1, b + 1):
                sp *= q ** (2 * i) - 1
            order = e * (q - 1) * sp
        else:
            raise InvalidConfigError("orbit bound takes the blocks with a >= c")
        return math.log(order, p)
    raise InvalidConfigError("unknown bound formula %r" % formula)


def test_bound_log():
    assert bound_log("nursery_count", r=4, ell=2, s=1, m=2, t=1) == 0.0
    assert bound_log("coro_ud_lower", a=2, e=1, ell=2) == 0.0
    ob = bound_log("orbit_upper", a=2, b=2, c=1, e=1, p=2)
    assert abs(ob - math.log2(36)) < 1e-12
    assert bound_log("nursery_count", r=8, ell=4, s=3, m=4, t=2) == float(
        max(0, (4 - 3) * (8 - 4) - 4 * 3 - 4 * 2)
    )
    with pytest.raises(InvalidConfigError):
        bound_log("unknown_formula")
    with pytest.raises(InvalidConfigError, match="missing parameters: t$"):
        bound_log("nursery_count", r=4, ell=2, s=1, m=2)


def test_census_against_subgroup_oracle():
    N = nursery.make_nursery("matrix", a=1, c=1, ctx=F2)
    rep0 = nursery.census(N, 0, relaxed=True)
    rep1 = nursery.census(N, 1, relaxed=True)
    assert (rep0.kinder_count, rep0.class_count) == (1, 1)
    assert (rep1.kinder_count, rep1.class_count) == (1, 1)
    G1 = N.gamma1_group()
    gam2 = set(N.gamma2_labels())
    over = [
        s
        for s in smallgrp.all_subgroups(G1)
        if gam2 <= {G1.labels[i] for i in s}
    ]
    assert len(over) == rep0.kinder_count + rep1.kinder_count


def test_census_strict_and_relaxed():
    N2 = nursery.make_nursery("matrix", a=2, c=1, ctx=F2)
    rep = nursery.census(N2, 3)
    assert (rep.kinder_count, rep.class_count) == (1, 1)
    assert rep.bound_exponent == 0.0 == bound_log(
        "nursery_count", r=N2.rdim, ell=3, s=len(N2.s_coords), m=N2.mdim, t=len(N2.t_vectors))
    repr_ = nursery.census(N2, 2, relaxed=True)
    assert repr_.kinder_count == 35
    assert sum(c["members"] for c in repr_.classes) == 35
    payload = repr_.to_payload()
    import json

    json.dumps(payload)


def test_census_holds_only_its_class_representatives(monkeypatch):
    # kind k is made while the kinds leading the classes found before it are
    # held, and nothing else; a kind group is built only where the nursery
    # keeps no Gamma_1, and only for a kind a witness is lifted to or from
    refs, live, found, groups = [], [], [], []
    make, classify, group = nursery.kind_from_subspace, smallgrp._classify, nursery.Kind.group

    def tracked(*args, **kw):
        K = make(*args, **kw)
        refs.append(weakref.ref(K))
        live.append(sum(r() is not None for r in refs))
        return K

    def spy(*args):
        found.append(classify(*args))
        return found[-1]

    def built(self):
        groups.append(weakref.ref(group(self)))
        return groups[-1]()

    monkeypatch.setattr(nursery, "kind_from_subspace", tracked)
    monkeypatch.setattr(smallgrp, "_classify", spy)
    monkeypatch.setattr(nursery.Kind, "group", built)
    for N, ell, built_groups in ((nursery.make_nursery("matrix", a=2, c=1, ctx=F2), 2, 0),
                                 (nursery.make_nursery("b2_odd", ctx=make_field(3, 2)), 1, 4)):
        refs.clear(), live.clear(), found.clear(), groups.clear()
        rep = nursery.census(N, ell, relaxed=True)
        [(classes, _)] = found
        assert len(live) == rep.kinder_count and len(classes) == rep.class_count
        assert all(n <= sum(c[0] < k for c in classes) + 1 for k, n in enumerate(live))
        assert len(groups) == built_groups
        assert sum(r() is not None for r in refs + groups) == 0


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_iso_classes_of_a_generator_equal_those_of_the_list(ell):
    N2 = nursery.make_nursery("matrix", a=2, c=1, ctx=F2)
    spaces = list(enumerate_superspaces(Subspace.zero(F2, N2.rdim), ell))

    def group(v):
        return nursery.kind_from_subspace(N2, v, relaxed=True).group()

    assert smallgrp.iso_classes(map(group, spaces)) == smallgrp.iso_classes([group(v) for v in spaces])


def test_census_caps():
    N2 = nursery.make_nursery("matrix", a=2, c=1, ctx=F2)
    with pytest.raises(CapExceededError):
        nursery.census(N2, 2, relaxed=True, max_kinder=10)
    with pytest.raises(InvalidConfigError):
        nursery.census(N2, 9)
    # kinder of order 2^12 under the default order cap, but their witnesses are
    # verified on complete tables: refused before any of the 1395 kinds is read
    N3 = nursery.make_nursery("matrix", a=3, c=1, ctx=F2)
    with pytest.raises(CapExceededError, match="over cap %d" % smallgrp.SUBGROUP_ORDER_CAP):
        nursery.census(N3, 6)


def test_kind_group_cap(monkeypatch):
    N2 = nursery.make_nursery("matrix", a=2, c=1, ctx=F2)
    K = nursery.kind_from_subspace(N2, Subspace.full(F2, 4))
    monkeypatch.setattr(nursery, "GROUP_ORDER_CAP", 16)
    with pytest.raises(CapExceededError):
        K.group()
    assert K._group is None


def test_kind_group_cap_holds_once_the_group_is_cached(monkeypatch):
    N2 = nursery.make_nursery("matrix", a=2, c=1, ctx=F2)
    K = nursery.kind_from_subspace(N2, N2.s_subspace())
    assert K.group().n == K.order
    monkeypatch.setattr(nursery, "GROUP_ORDER_CAP", K.order - 1)
    with pytest.raises(CapExceededError):
        K.group()


def test_reconstruct_solves_chi_once_per_coset(monkeypatch):
    N2 = nursery.make_nursery("matrix", a=2, c=1, ctx=F2)
    K = nursery.kind_from_subspace(N2, Subspace.full(F2, 4))
    rho, mu = nursery.random_frames(K, random.Random(9))
    want = nursery.reconstruct(K, rho, mu)
    solves = []
    r_coords = nursery.ModuleNursery.r_coords

    def counted(self, mat):
        solves.append(mat)
        return r_coords(self, mat)

    monkeypatch.setattr(nursery.ModuleNursery, "r_coords", counted)
    got = nursery.reconstruct(K, rho, mu)
    assert got == want and len(got.chi) == K.order == 256
    assert len(solves) == 2**4  # |Q / X|: one solve per coset of the second term


def test_reconstruct_above_table_cap_starts_few_columns():
    # order 3^7 = 2187, above SUBGROUP_ORDER_CAP: the kind has no table and
    # reconstruct must not start a column per element (n^2 entries)
    N = nursery.make_nursery("matrix", a=2, c=1, ctx=F3)
    rng = random.Random(3)
    K = nursery.random_kind(N, 3, rng)
    assert K.order == 2187 > smallgrp.SUBGROUP_ORDER_CAP
    rho, mu = nursery.random_frames(K, rng)
    rec = nursery.reconstruct(K, rho, mu)
    assert rec.X == N.gamma2_labels() and rec.Y == N.gamma3_labels()
    assert rec.Z == {N.identity_label()}
    xs = [tuple(v) for v in K.subspace.enumerate_vectors()]
    assert len(rec.chi) == K.order and all(rec.chi[lab] == lab[0] for lab in N.labels(x_vectors=xs))
    started = sum(col is not None for col in K.group()._cols)
    assert started <= len(N.t_vectors) + N.mdim + 1


def test_reconstruct_above_table_cap_tests_commutation_in_two_products_a_pair():
    # the mu probes and the test that X is abelian only ask whether two
    # elements commute: two label products a pair, with no bracket's inverse;
    # X is abelian when the 2 mdim elements that span it commute (it is
    # elementary abelian of order p^(2 mdim), each spanning element a factor p)
    N = nursery.make_nursery("matrix", a=2, c=1, ctx=F3)
    rng = random.Random(3)
    K = nursery.random_kind(N, 3, rng)
    rho, mu = nursery.random_frames(K, rng)
    G, products, costs = K.group(), [0], []
    assert G.n == 2187 > smallgrp.SUBGROUP_ORDER_CAP
    mul, commute = G._mul_label, G.commute

    def counted(a, b):
        products[0] += 1
        return mul(a, b)

    def probe(xs, ys):
        before = products[0]
        got = commute(xs, ys)
        costs.append((len(xs), len(ys), products[0] - before))
        return got

    G._mul_label, G.commute = counted, probe
    rec = nursery.reconstruct(K, rho, mu)
    assert rec.X == N.gamma2_labels() and rec.Z == {N.identity_label()}
    first, *_, abelian = costs
    assert first[:2] == (2187, 1) and first[2] <= 2 * 2187
    x = 2 * N.mdim
    assert abelian[:2] == (x, x) and abelian[2] <= 2 * x * x


def test_a_matrix_nursery_over_the_cap_never_builds_its_bimap(monkeypatch):
    # mdim = a c e is known before the (a c e) x (a a e) x (a c e) array: at
    # a = c = 16 over F2 the array alone held +256 MB of peak RSS
    def no_bimap(*args):
        pytest.fail("the bimap of a nursery over the Gamma_2 cap was built")

    monkeypatch.setattr(nursery, "matrix_multiplication_bimap", no_bimap)
    for a, c in ((8, 8), (16, 16), (2, 4)):
        with pytest.raises(CapExceededError, match="second term of order 2\\^%d over cap" % (2 * a * c)):
            nursery.make_nursery("matrix", a=a, c=c, ctx=F2)
    with pytest.raises(CapExceededError, match="second term of order 3\\^12 over cap"):
        nursery.make_nursery("matrix", a=3, c=2, ctx=F3)


def test_reconstruct_on_a_tabled_kind_starts_few_columns():
    # the full 256-element kind of matrix(2,1,F2) holds a table: its brackets
    # are gathers on it, and only the closures of Y start columns
    N = nursery.make_nursery("matrix", a=2, c=1, ctx=F2)
    K = nursery.kind_from_subspace(N, Subspace.full(F2, N.rdim))
    G = K.group()
    assert G.n == 256 and G._T is not None
    rho, mu = nursery.random_frames(K, random.Random(4))
    tracemalloc.start()
    try:
        rec = nursery.reconstruct(K, rho, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.X == N.gamma2_labels() and rec.Y == N.gamma3_labels()
    xs = [tuple(v) for v in K.subspace.enumerate_vectors()]
    assert all(rec.chi[lab] == lab[0] for lab in N.labels(x_vectors=xs))
    assert sum(col is not None for col in G._cols) <= len(N.t_vectors) + N.mdim + 1
    assert peak <= 0.25 * 2**20  # a list column per element peaks at about 0.65 MiB


def test_orbit_upper_on_square_blocks():
    # a = c > 1: 2 e |GL(a, q)|^2 |GL(b, q)| / (q - 1); a = c = 1: e (q - 1) |Sp(2b, q)|
    assert bound_log("orbit_upper", a=2, b=1, c=2, e=1, p=2) == pytest.approx(
        math.log2(2 * 6**2 * 1), abs=1e-12)
    assert bound_log("orbit_upper", a=1, b=2, c=1, e=1, p=2) == pytest.approx(
        math.log2(720), abs=1e-12)

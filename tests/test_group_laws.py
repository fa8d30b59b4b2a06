"""The vectorised group laws against their label-level references.

A nursery whose Gamma_1 has at most EXHAUSTIVE_ORDER_CAP elements checks
Gamma_1's table, one numpy evaluation of
(x, u, w)(x', u', w') = (x + x', u + u', w + w' + x.u'), on every pair and
cuts every kind's table from it; in a larger nursery each kind up to
SUBGROUP_ORDER_CAP elements evaluates the law on its own and keeps the
per-kind check, so the mutated per-kind laws are planted there (a 729-element
kind of matrix(2,1,F3)).  The reference is a SmallGroup on the same labels
whose table is completed from `mul_label` products, and each
construction-time check of a nursery must reject a mutated law, action or
`SmallGroup.commutators` gather.  The B2 law on
[n, 4] arrays is compared with `B2Group.commutator` row by row, and
`b2_labels` with the label scan it replaced, kept here as
`b2_labels_by_scan`.  Each nursery's algebra array is compared with the
`Matrix` construction it replaced, kept here as `matrix_construction`.
"""

import functools
import random
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kinderlab import nursery, smallgrp, twisted
from kinderlab.errors import InvalidConfigError, PropertyViolationError
from kinderlab.gf import make_field
from kinderlab.linalg import CoordSolver, Matrix, Subspace, rank_nullspace, unflatten_matrix
from matrix_ops import flatten_matrix
from subquotient import b2_kind

F2 = make_field(2, 1)

NURSERIES = {
    "matrix(1,1,F2)": ("matrix", dict(a=1, c=1, ctx=F2)),
    "matrix(1,1,F3)": ("matrix", dict(a=1, c=1, ctx=make_field(3, 1))),
    "matrix(1,1,F4)": ("matrix", dict(a=1, c=1, ctx=make_field(2, 2))),
    "matrix(2,1,F2)": ("matrix", dict(a=2, c=1, ctx=F2)),
    "matrix(2,1,F3)": ("matrix", dict(a=2, c=1, ctx=make_field(3, 1))),
    "matrix(2,1,F4)": ("matrix", dict(a=2, c=1, ctx=make_field(2, 2))),
    "b2_odd(F3)": ("b2_odd", dict(ctx=make_field(3, 1))),
    "b2_odd(F5)": ("b2_odd", dict(ctx=make_field(5, 1))),
    "b2_odd(F9)": ("b2_odd", dict(ctx=make_field(3, 2))),
    "unitary(2,1)": ("unitary", dict(p=2, e=1)),
    "unitary(3,1)": ("unitary", dict(p=3, e=1)),
    "unitary(2,2)": ("unitary", dict(p=2, e=2)),
    "unitary(3,2)": ("unitary", dict(p=3, e=2)),
    "ree_small(1)": ("ree_small", dict(e=1)),
}


@functools.lru_cache(maxsize=None)
def stock(name):
    kind, params = NURSERIES[name]
    return nursery.make_nursery(kind, **params)


def tabled_dims(N):
    return [ell for ell in range(N.rdim + 1)
            if N.p ** (ell + 2 * N.mdim) <= smallgrp.SUBGROUP_ORDER_CAP]


def relaxed_kind(N, ell, rng):
    """A uniform dimension-ell kind of N that need not contain S: the span
    `nursery.random_kind` draws, grown from the zero subspace."""
    span = Subspace.zero(N.ctx, N.rdim)
    while span.dim < ell:
        v = tuple(rng.randrange(N.p) for _ in range(N.rdim))
        if not span.contains(v):
            span = Subspace.from_vectors(N.ctx, N.rdim, span.basis + (v,))
    return nursery.kind_from_subspace(N, span, relaxed=True)


def reference_table(labels, mul):
    return smallgrp.SmallGroup(labels, mul).table().tolist()


@functools.lru_cache(maxsize=None)
def gamma1_reference(name):
    N = stock(name)
    return reference_table(list(N.labels()), N.mul_label)


def fresh(name):
    kind, params = NURSERIES[name]
    return nursery.make_nursery(kind, **params)


def test_every_stock_nursery_has_tabled_kinder():
    for name in NURSERIES:
        assert tabled_dims(stock(name)), name


def matrix_construction(kind, params):
    """(basis matrices of R, generator matrices, probes) as Matrix arithmetic
    builds them: the left action of each unit matrix of M_a(K) on M_{a x c}(K),
    or the multiplication matrices of K (times 2 for b2_odd), or of the
    fixed field on the skew space of GF(p^2e), each acting on columns."""
    def action(images):  # images[j] = the image of the j-th unit vector
        return Matrix(pf, [list(row) for row in zip(*images)])

    if kind == "matrix":
        a, c, ctx = params["a"], params["c"], params["ctx"]
        pf, e = make_field(ctx.p, 1), ctx.e
        mvecs, rvecs = Matrix.identity(pf, a * c * e).rows, Matrix.identity(pf, a * a * e).rows
        munits = [unflatten_matrix(v, ctx, a, c) for v in mvecs]

        def left(x):
            return action([flatten_matrix(x.mul(u)) for u in munits])

        omega = ctx.primitive if ctx.order > 2 else 1
        corner = Matrix(ctx, [[omega if i == j == 0 else 0 for j in range(a)] for i in range(a)])
        cycle = Matrix(ctx, [[1 if j == (i + 1) % a else 0 for j in range(a)] for i in range(a)])
        s = [left(m) for m in (Matrix.identity(ctx, a), corner, cycle)]
        return [left(unflatten_matrix(v, ctx, a, a)) for v in rvecs], s, mvecs[::e]
    if kind == "unitary":
        p, e = params["p"], params["e"]
        F, pf = make_field(p, 2 * e), make_field(p, 1)
        digits = [F.from_vector(v) for v in Matrix.identity(pf, F.e).rows]

        def kernel_of(combine):
            cols = [list(F.to_vector(combine(F.frobenius(b, e), b))) for b in digits]
            return [F.from_vector(v) for v in rank_nullspace(Matrix(pf, cols).transpose())[2].basis]

        fixed, skew = kernel_of(F.sub), kernel_of(F.add)
        solver = CoordSolver([F.to_vector(v) for v in skew], pf)

        def mult(g):
            return action([solver.coords(F.to_vector(F.mul(g, v))) for v in skew])

        s = [mult(1)] + ([mult(F.pow(F.primitive, 1 + p**e))] if e > 1 else [])
        return [mult(g) for g in fixed], s, [tuple(int(i == 0) for i in range(e))]
    if kind == "b2_odd":
        K, scale = params["ctx"], 2
        s_elements = [K.inv(2)] + ([K.primitive] if K.e > 1 else [])
    else:
        K, scale = make_field(3, 2 * params["e"] + 1), 1
        s_elements = [1, K.primitive]
    pf = make_field(K.p, 1)
    basis = [K.from_vector(v) for v in Matrix.identity(pf, K.e).rows]

    def mult(g):
        return action([K.to_vector(K.mul(K.mul(scale, g), b)) for b in basis])

    return [mult(g) for g in basis], [mult(g) for g in s_elements], [K.to_vector(1)]


WIDER = {**NURSERIES, "matrix(1,2,F9)": ("matrix", dict(a=1, c=2, ctx=make_field(3, 2))),
         "matrix(3,1,F2)": ("matrix", dict(a=3, c=1, ctx=F2))}


@pytest.mark.parametrize("name", sorted(WIDER))
def test_algebra_array_equals_the_matrix_construction(name):
    kind, params = WIDER[name]
    N = nursery.make_nursery(kind, **params)
    rbasis, s_matrices, t_vectors = matrix_construction(kind, params)
    solver = CoordSolver([flatten_matrix(b) for b in rbasis], N.ctx)

    def coords(m):
        return solver.coords(flatten_matrix(m))

    assert N.R.dtype == np.int64 and not N.R.flags.writeable
    assert N.R.tolist() == [[list(row) for row in b.rows] for b in rbasis]
    assert N.s_coords == tuple(dict.fromkeys(map(coords, s_matrices)))
    assert N.one_coords == coords(Matrix.identity(N.ctx, N.mdim))
    assert N.t_vectors == tuple(map(tuple, t_vectors))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(NURSERIES)), pick=st.integers(0, 2**16),
       seed=st.integers(0, 2**32))
def test_kind_table_equals_label_products(name, pick, seed):
    N = stock(name)
    dims = tabled_dims(N)
    K = relaxed_kind(N, dims[pick % len(dims)], random.Random(seed))
    G = K.group()
    labels = list(N.labels(x_vectors=[tuple(v) for v in K.subspace.enumerate_vectors()]))
    assert G.labels == tuple(labels)
    assert G.table().tolist() == reference_table(labels, N.mul_label)
    assert G.identity == G.index_of(N.identity_label())


@pytest.mark.parametrize("name", ["matrix(1,1,F2)", "matrix(1,1,F4)", "unitary(3,1)",
                                  "b2_odd(F5)", "matrix(2,1,F2)"])
def test_gamma1_table_equals_label_products(name):
    assert stock(name).gamma1_group().table().tolist() == gamma1_reference(name)


@functools.lru_cache(maxsize=None)
def tabled_gamma1s():
    return sorted(name for name in NURSERIES
                  if stock(name).order <= nursery.EXHAUSTIVE_ORDER_CAP)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_commutator_gather_equals_commutator_label(data):
    name = data.draw(st.sampled_from(tabled_gamma1s()))
    N = stock(name)
    labels = list(N.labels())
    G = smallgrp.SmallGroup(labels, N.mul_label,
                            columns=np.array(gamma1_reference(name), dtype=np.int16))
    comm = G.commutators(range(G.n), range(G.n))
    pairs = st.tuples(st.integers(0, N.order - 1), st.integers(0, N.order - 1))
    for g, h in data.draw(st.lists(pairs, min_size=1, max_size=30)):
        assert labels[comm[g, h]] == N.commutator_label(labels[g], labels[h])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_cut_table_equals_the_checked_law_table(seed):
    for name in tabled_gamma1s():
        N = stock(name)
        for ell in tabled_dims(N):
            K = relaxed_kind(N, ell, random.Random(seed))
            labels = list(N.labels(x_vectors=[tuple(v) for v in K.subspace.enumerate_vectors()]))
            law = N._checked_law_table(K.subspace, labels, factors=(0, len(labels) - 1))
            assert K.group().table().tolist() == law.tolist(), (name, ell)


def test_kinder_of_a_tabled_gamma1_make_no_label_products(monkeypatch):
    N, N4 = stock("matrix(2,1,F2)"), stock("matrix(1,1,F4)")
    calls = Counter()
    for meth in ("mul_label", "_law_table"):
        def counted(self, *args, _meth=meth, _orig=getattr(nursery.ModuleNursery, meth)):
            calls[_meth] += 1
            return _orig(self, *args)

        monkeypatch.setattr(nursery.ModuleNursery, meth, counted)
    assert nursery.census(N, 2, relaxed=True).kinder_count == 35
    assert relaxed_kind(N4, 2, random.Random(0)).group().n == 64
    assert not calls


def test_a_cut_that_is_no_subgroup_fails_loudly():
    xs = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)]  # not their sum
    with pytest.raises(PropertyViolationError, match="leaves the kind"):
        stock("matrix(2,1,F2)").group_on(types.SimpleNamespace(enumerate_vectors=lambda: iter(xs)))


def test_columns_share_the_index_ints():
    N = stock("matrix(2,1,F3)")
    G = relaxed_kind(N, 2, random.Random(0)).group()
    assert G.n == 729
    cols = G._column
    assert all(cols(j)[i] is cols(G.identity)[cols(j)[i]] for j in (1, 500) for i in (3, 700))


def test_a_kind_holds_one_table():
    # a 729-element kind holds its int16 array (1.06 MB) and the columns read
    # so far, not also a list per column (4.09 MB more)
    K = relaxed_kind(stock("matrix(2,1,F3)"), 2, random.Random(0))
    tracemalloc.start()
    try:
        G = K.group()
        built = tracemalloc.get_traced_memory()[0]
        G.fingerprint(), G.generating_set()
        used = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert G.n == 729 and built <= 1.5e6 and used <= 2.5e6


def _dihedral(n):
    """D_2n on labels (r, s), r + s n its code, with its label product and
    its law evaluated on every pair of codes at once (row j holds i*j)."""
    labels = [(r, s) for s in (0, 1) for r in range(n)]

    def mul(g, h):
        return ((g[0] + (-h[0] if g[1] else h[0])) % n, (g[1] + h[1]) % 2)

    i, j = np.arange(2 * n)[None, :], np.arange(2 * n)[:, None]
    table = (i // n + j // n) % 2 * n + (i % n + np.where(i // n, -1, 1) * (j % n)) % n
    return labels, mul, table.astype(np.int16)


@pytest.mark.parametrize("n", [3, 4, 7])
def test_check_law_table_hands_any_integer_family_to_smallgroup(n):
    labels, mul, table = _dihedral(n)
    gens = [1, n]  # a rotation and a reflection
    G = smallgrp.SmallGroup(labels, mul, columns=smallgrp.check_law_table(table, labels, mul, gens))
    assert G.table().tolist() == smallgrp.SmallGroup(labels, mul).table().tolist()
    bad = table.copy()
    bad[n + 1, [0, 1]] = bad[n + 1, [1, 0]]  # a row that is no generator's
    with pytest.raises(PropertyViolationError, match="not associative"):
        smallgrp.check_law_table(bad, labels, mul, gens)
    with pytest.raises(InvalidConfigError):
        smallgrp.check_law_table(table[:-1], labels, mul, gens)


def _corrupt(monkeypatch, edit):
    law = nursery.ModuleNursery._law_table

    def broken(self, xs):
        table = law(self, xs).copy()
        edit(table)
        return table

    monkeypatch.setattr(nursery.ModuleNursery, "_law_table", broken)


# a kind of matrix(2,1,F3) (Gamma_1 of 6561 elements, over EXHAUSTIVE_ORDER_CAP)
# has 729 elements and its own checked law table; its probe generators are
# 1, 3, 9, 27, 81 and 243, with the factors 0 and 728


def f3_kind_group():
    return relaxed_kind(stock("matrix(2,1,F3)"), 2, random.Random(0)).group()


def test_wrong_law_fails_loudly(monkeypatch):
    def swap(table):
        # column 3 stays a permutation but is wrong on the probed pair (1, 3)
        table[3, [1, 9]] = table[3, [9, 1]]

    _corrupt(monkeypatch, swap)
    with pytest.raises(PropertyViolationError, match="disagrees with mul_label"):
        f3_kind_group()


def test_non_permutation_column_fails_loudly(monkeypatch):
    def repeat(table):
        table[5, 7] = table[5, 8]

    _corrupt(monkeypatch, repeat)
    with pytest.raises(PropertyViolationError, match="not a permutation"):
        f3_kind_group()


# construction-time failures: Gamma_1 of matrix(2,1,F2) has 256 elements,
# so its law is checked on the complete table


def test_column_swap_away_from_the_probes_fails_loudly(monkeypatch):
    # column 77 stays a permutation, and 77, 101 and 203 are none of the
    # generators (v_k, 0, 0), (0, e_k, 0), (0, 0, e_k) or the identity;
    # likewise 400, 500 and 601 on the F3 kind
    def swap(table):
        if len(table) == 256:
            table[77, [101, 203]] = table[77, [203, 101]]
        else:
            table[400, [500, 601]] = table[400, [601, 500]]

    _corrupt(monkeypatch, swap)
    with pytest.raises(PropertyViolationError, match="not associative"):
        fresh("matrix(2,1,F2)")
    with pytest.raises(PropertyViolationError, match="not associative"):
        f3_kind_group()


def test_wrong_action_off_the_basis_fails_loudly(monkeypatch):
    act = nursery.ModuleNursery.act

    def wrong(self, x, u):
        got = act(self, x, u)
        return ((got[0] + 1) % self.p,) + got[1:] if x == (1, 1, 0, 1) else got

    monkeypatch.setattr(nursery.ModuleNursery, "act", wrong)
    with pytest.raises(PropertyViolationError, match="disagrees with mul_label"):
        fresh("matrix(2,1,F2)")


def test_non_permutation_column_fails_at_construction(monkeypatch):
    def repeat(table):
        table[5, 7] = table[5, 8]

    _corrupt(monkeypatch, repeat)
    with pytest.raises(PropertyViolationError, match="not a permutation"):
        fresh("matrix(2,1,F2)")


def _plant(monkeypatch, edit):
    gather = smallgrp.SmallGroup.commutators

    def planted(self, xs, ys):
        return edit(gather(self, xs, ys).copy())

    monkeypatch.setattr(smallgrp.SmallGroup, "commutators", planted)


def test_swapped_commutator_factors_fail_loudly(monkeypatch):
    # [u, x] = (0, 0, -x.u) differs from [x, u] in odd characteristic
    _plant(monkeypatch, lambda comm: comm.T)
    with pytest.raises(PropertyViolationError, match="realize the action"):
        fresh("matrix(1,1,F3)")


def test_swapped_commutator_factors_fail_above_the_table_cap(monkeypatch):
    comm = nursery.ModuleNursery.commutator_label
    monkeypatch.setattr(nursery.ModuleNursery, "commutator_label",
                        lambda self, g, h: comm(self, h, g))
    assert stock("b2_odd(F9)").order > nursery.EXHAUSTIVE_ORDER_CAP
    with pytest.raises(PropertyViolationError, match="realize the action"):
        fresh("b2_odd(F9)")


def test_commutator_outside_the_third_term_fails_loudly(monkeypatch):
    def escape(comm):
        comm[3, 5] = 4  # (0, u, 0) with u != 0: |M| = 4, so Gamma_3 is 0..3
        return comm

    _plant(monkeypatch, escape)
    with pytest.raises(PropertyViolationError, match="escapes the third term"):
        fresh("matrix(2,1,F2)")


def test_nonabelian_second_term_fails_loudly(monkeypatch):
    def bracket(comm):
        comm[1, 2] = 1  # a bracket of two elements of Gamma_3, in Gamma_3 but not 1
        return comm

    _plant(monkeypatch, bracket)
    with pytest.raises(PropertyViolationError, match="not abelian"):
        fresh("matrix(2,1,F2)")


def test_nonabelian_second_term_fails_above_the_table_cap(monkeypatch):
    comm = nursery.ModuleNursery.commutator_label

    def bracket(self, g, h):
        return h if not any(g[0]) and not any(h[0]) else comm(self, g, h)

    monkeypatch.setattr(nursery.ModuleNursery, "commutator_label", bracket)
    with pytest.raises(PropertyViolationError, match="not abelian"):
        fresh("b2_odd(F9)")


def test_kind_above_table_cap_stays_lazy():
    N = stock("matrix(2,1,F3)")
    K = nursery.random_kind(N, 3, random.Random(1))
    assert K.order == 2187 > smallgrp.SUBGROUP_ORDER_CAP
    G = K.group()
    assert all(c is None for c in G._cols)


# ---------------------------------------------------------------------------
# B2


B2_FIELDS = {2 ** e: make_field(2, e) for e in (1, 2, 3, 4)}


@functools.lru_cache(maxsize=None)
def b2_over(q):
    return twisted.b2_build(B2_FIELDS[q])


def _rows(cols):
    return [tuple(x) for x in np.stack(np.broadcast_arrays(*cols), axis=-1).tolist()]


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from(sorted(B2_FIELDS)), data=st.data())
def test_batched_b2_law_equals_labels(q, data):
    """The column law, and bimap and phi on arrays, against the law and the
    formulas on ints, and the law on ints against the cocycle by FieldCtx.mul."""
    b2, F = b2_over(q), B2_FIELDS[q]
    quad = st.tuples(*[st.integers(0, q - 1)] * 4)
    gs = data.draw(st.lists(quad, min_size=1, max_size=20))
    hs = data.draw(st.lists(quad, min_size=len(gs), max_size=len(gs)))
    g, h = np.array(gs, dtype=np.int16).T, np.array(hs, dtype=np.int16).T
    assert _rows(b2.commutator_batch(g, h)) == [b2.commutator(x, y) for x, y in zip(gs, hs)]
    assert _rows(b2.mul_batch(g, h)) == [b2.mul(x, y) for x, y in zip(gs, hs)]
    assert _rows(b2.inverse_batch(g)) == [b2.inverse(x) for x in gs]
    # one fixed right factor, given as ints, broadcasts against every row
    assert _rows(b2.commutator_batch(g, hs[0])) == [b2.commutator(x, hs[0]) for x in gs]
    assert _rows(b2.bimap(g[:2], h[:2])) == [b2.bimap(x[:2], y[:2]) for x, y in zip(gs, hs)]
    assert _rows(b2.phi(g[:2])) == [b2.phi(x[:2]) for x in gs]
    for (r, s, z1, z2), (r2, s2, w1, w2) in zip(gs, hs):
        assert b2.mul((r, s, z1, z2), (r2, s2, w1, w2)) == (
            r ^ r2, s ^ s2, z1 ^ w1 ^ F.mul(r2, s), z2 ^ w2 ^ F.mul(r2, F.mul(s, s)))
        assert b2.phi((r, s)) == (F.mul(r, s), F.mul(r, F.mul(s, s)))
        assert b2.bimap((r, s), (r2, s2)) == (
            F.mul(r, s2) ^ F.mul(r2, s), F.mul(r, F.mul(s2, s2)) ^ F.mul(r2, F.mul(s, s)))


def b2_labels_by_scan(b2, Q, A, B):
    """The A series and the image of Q by the scans `b2_labels` replaced."""
    F = b2.ctx
    q = F.order
    comm = b2.commutator
    a_lab = dict(A)
    for k in range(1, q - 1):
        target = b2.mul(
            comm(a_lab[k - 2], B[1]),
            b2.mul(comm(a_lab[k - 1], B[0]), b2.inverse(comm(a_lab[k], B[0]))),
        )
        found = next((x for x in Q.labels if comm(x, B[-1]) == target), None)
        if found is None:
            return None
        a_lab[k + 1] = found
    return dict(sorted(a_lab.items())), {comm(x, A[0]) for x in Q.labels}


def _reps(F, rng=None):
    w, q = F.primitive, F.order

    def z():
        return rng.randrange(q) if rng else 0

    A = {i: (F.pow(w, i % (q - 1)), 0, z(), z()) for i in (-1, 0, 1)}
    B = {i: (0, F.pow(w, i % (q - 1)), z(), z()) for i in (-1, 0, 1)}
    return A, B


@pytest.mark.parametrize("q", [4, 8])
def test_b2_labels_match_the_scan_on_full_groups(q):
    b2 = b2_over(q)
    G = b2.group()
    for seed in [None, 0, 1, 2, 3]:
        A, B = _reps(b2.ctx, None if seed is None else random.Random(seed))
        lab = twisted.b2_labels(b2, G, A, B)
        series, brackets = b2_labels_by_scan(b2, G, A, B)
        assert lab.a_series == series
        assert lab.q_image == frozenset(lab.coset_value[c] for c in brackets)


def _f16_code():
    F16 = B2_FIELDS[16]
    w = F16.primitive
    vecs = [F16.to_vector(1), F16.to_vector(w), F16.to_vector(F16.pow(w, 14))]
    return Subspace.from_vectors(F2, 4, vecs)


def test_b2_labels_match_the_scan_on_the_f16_kind():
    b16 = b2_over(16)
    K = b2_kind(b16, _f16_code())
    assert K.n == 2**15
    A, B = _reps(b16.ctx)
    lab = twisted.b2_labels(b16, K, A, B)
    series, brackets = b2_labels_by_scan(b16, K, A, B)
    assert lab.a_series == series
    assert lab.q_image == frozenset(lab.coset_value[c] for c in brackets)


def test_b2_labels_non_generic_subgroup_raises_like_the_scan():
    b16 = b2_over(16)
    wset = sorted(B2_FIELDS[16].from_vector(v) for v in _f16_code().enumerate_vectors())
    labels = [(r, s, z1, z2) for r in wset for s in wset for z1 in range(16) for z2 in range(16)]
    NG = smallgrp.SmallGroup(labels, b16.mul)
    A, B = _reps(b16.ctx)
    assert b2_labels_by_scan(b16, NG, A, B) is None
    with pytest.raises(PropertyViolationError, match="no solution at step 2"):
        twisted.b2_labels(b16, NG, A, B)

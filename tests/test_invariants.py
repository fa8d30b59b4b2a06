"""The batched subgroup invariants against the per-group Python reference.

The reference is the fingerprint used before `SmallGroup.subset_invariants`:
conjugacy classes by a breadth-first search under conjugation by a
generating set, the derived subgroup as the normal closure of the
generators' commutators, and the abelianisation read off an explicit
quotient group.  It shares nothing with the batched routine but the
group's own products.
"""

import math
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kinderlab import nursery
from kinderlab import smallgrp as sg
from kinderlab.gf import make_field
from kinderlab.linalg import Subspace, enumerate_superspaces
from subquotient import center_idx, conjugate, element_invariant, quotient, subgroup

F2 = make_field(2, 1)
F3 = make_field(3, 1)


def conjugacy_classes(G):
    gens = G.generating_set()
    unseen = set(range(G.n))
    classes = []
    while unseen:
        start = min(unseen)
        orbit = {start}
        queue = [start]
        for x in queue:
            for g in gens:
                y = conjugate(G, x, g)
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        unseen -= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def normal_closure(G, seeds):
    gens = G.generating_set()
    current = set(G.closure_idx(seeds))
    while True:
        extra = [y for x in current for g in gens if (y := conjugate(G, x, g)) not in current]
        if not extra:
            return tuple(sorted(current))
        current = set(G.closure_idx(list(current) + extra))


def derived_subgroup(G):
    gens = G.generating_set()
    return normal_closure(G, [G.commutator_idx(i, j) for i in gens for j in gens])


def order(G, i):
    # by products, not G.order_of, which may read a batch's orders
    k, x = 1, i
    while x != G.identity:
        k, x = k + 1, G.mul_idx(x, i)
    return k


def element_invariants(G):
    size = [0] * G.n
    for cl in conjugacy_classes(G):
        for x in cl:
            size[x] = len(cl)
    return [(order(G, i), size[i]) for i in range(G.n)]


def _hist(values):
    out = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return tuple(sorted(out.items()))


def reference_fingerprint(G):
    series = [G.n]
    current = G
    while True:
        d = derived_subgroup(current)
        if len(d) == current.n:
            break
        current = subgroup(current, d)
        series.append(current.n)
        if current.n == 1:
            break
    orders = [order(G, i) for i in range(G.n)]
    gens = G.generating_set()
    center = [i for i in range(G.n) if all(G.mul_idx(i, g) == G.mul_idx(g, i) for g in gens)]
    ab = quotient(G, derived_subgroup(G))
    return sg.IsoFingerprint(
        order=G.n,
        order_hist=_hist(orders),
        center_order=len(center),
        derived_orders=tuple(series),
        abelian_hist=_hist(order(ab, i) for i in range(ab.n)),
        exponent=math.lcm(*orders),
        class_profile=_hist(element_invariants(G)),
    )


def relabelled(G, seed):
    labels = list(G.labels)
    random.Random(seed).shuffle(labels)
    return sg.SmallGroup(labels, G._mul_label, name=G.name)


def _s3():
    return sg.symmetric_group(3)


# the groups of the lattice benchmark
LATTICE = {
    "UT3(F2)": lambda: sg.unitriangular_group(3, F2),
    "UT3(F3)": lambda: sg.unitriangular_group(3, F3),
    "Alt5": lambda: sg.alternating_group(5),
    "D4": lambda: sg.dihedral_group(4),
    "C8xC27": lambda: sg.direct_product(sg.cyclic_group(8), sg.cyclic_group(27)),
    "D4xC27": lambda: sg.direct_product(sg.dihedral_group(4), sg.cyclic_group(27)),
    "Sym3^2": lambda: sg.direct_product(_s3(), _s3()),
    "Sym3^3": lambda: sg.direct_product(_s3(), sg.direct_product(_s3(), _s3())),
}


@pytest.mark.parametrize("name", sorted(LATTICE))
def test_lattice_batch_matches_reference(name):
    G = relabelled(LATTICE[name](), 29)
    subs = sg.all_subgroups(G)
    batch = G.subset_invariants(subs)
    assert len(batch) == len(subs)
    for s, (fp, inv) in zip(subs, batch):
        H = subgroup(G, s)  # a fresh restriction, without the batch's invariants
        assert inv == element_invariants(H)
        assert fp == reference_fingerprint(H)


@pytest.mark.parametrize("G", [
    sg.symmetric_group(5),
    sg.direct_product(sg.dihedral_group(4), sg.cyclic_group(125)),
], ids=["Sym5", "D4xC125"])
def test_lone_groups_match_reference(G):
    G = relabelled(G, 3)
    assert G.fingerprint() == reference_fingerprint(G)
    assert [element_invariant(G, i) for i in range(G.n)] == element_invariants(G)
    assert center_idx(G) == tuple(
        i for i in range(G.n) if all(G.mul_idx(i, j) == G.mul_idx(j, i) for j in range(G.n)))


def test_census_kinder_match_reference():
    nur = nursery.make_nursery("matrix", a=2, c=1, ctx=F2)
    spaces = list(enumerate_superspaces(Subspace.zero(F2, nur.rdim), 2))
    assert len(spaces) == 35
    for v in spaces:
        G = nursery.kind_from_subspace(nur, v, relaxed=True).group()
        ref = subgroup(G, range(G.n))
        assert G.fingerprint() == reference_fingerprint(ref)
        assert [element_invariant(G, i) for i in range(G.n)] == element_invariants(ref)


@pytest.mark.parametrize("name", ["Sym3^2", "D4xC27", "Alt5"])
def test_lone_fingerprint_equals_lattice_entry(name):
    G = relabelled(LATTICE[name](), 41)
    subs = sg.all_subgroups(G)
    batch = G.subset_invariants(subs)
    for k in range(0, len(subs), 7):
        H = subgroup(G, subs[k])
        assert (H.fingerprint(), [element_invariant(H, i) for i in range(H.n)]) == batch[k]
    assert batch[-1] == (G.fingerprint(), [element_invariant(G, i) for i in range(G.n)])


def test_batches_of_any_size_agree(monkeypatch):
    # tiny batches: one subgroup per row batch, and one row of i per self-join chunk
    G = relabelled(LATTICE["Sym3^2"](), 5)
    subs = sg.all_subgroups(G)
    whole = G.subset_invariants(subs)
    monkeypatch.setattr(sg, "_BATCH_CELLS", 50)
    assert G.subset_invariants(subs) == whole
    assert G.subset_invariants([range(G.n)]) == whole[-1:]


@pytest.mark.parametrize("name, cells", [
    ("Sym3^2", 80),  # two subgroups a batch, and two of one shape split between gathers
    ("Alt5", 30),  # squarings of large commutator sets, a few rows of them at a time
])
def test_batches_split_rows_and_squarings(monkeypatch, name, cells):
    G = relabelled(LATTICE[name](), 5)
    subs = sg.all_subgroups(G)
    whole = G.subset_invariants(subs)
    monkeypatch.setattr(sg, "_BATCH_CELLS", cells)
    assert G.subset_invariants(subs) == whole
    assert G.subset_invariants([range(G.n)]) == whole[-1:]


@pytest.mark.parametrize("cells", [7, 1 << 20])
def test_commutator_rows_in_chunks_of_any_size(monkeypatch, cells):
    # each row holds e and every [x, g], x in H, g in H's recorded generators or else its members
    monkeypatch.setattr(sg, "_BATCH_CELLS", cells)
    for name in ["Sym3^2", "D4xC27"]:
        G, bare = relabelled(LATTICE[name](), 5), relabelled(LATTICE[name](), 5)  # bare: none recorded
        subs = sg.all_subgroups(G)
        bare.table()
        for H, batch in [(G, subs), (bare, subs[::5])]:
            rows = sg._commutator_rows(H, batch)
            for row, s in zip(rows, batch):
                gens = H._sub_gens.get(s, s)
                want = {H.identity} | {H.commutator_idx(x, g) for x in s for g in gens}
                assert set(row.nonzero()[0].tolist()) == want


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(["UT3(F3)", "D4", "C8xC27", "Sym3^2", "D4xC27"]), seed=st.integers(0, 2**32))
def test_recorded_generators_give_the_invariants_of_the_members(name, seed):
    G = relabelled(LATTICE[name](), seed)
    subs = sg.all_subgroups(G)
    fresh = relabelled(LATTICE[name](), seed)  # nothing recorded: each subset generates itself
    assert G._sub_gens and not fresh._sub_gens
    assert G.subset_invariants(subs) == fresh.subset_invariants(subs)


def test_lone_fingerprint_memory_is_chunked():
    # a lone group has no recorded generators, so its commutators take n^2 pairs
    G = relabelled(sg.direct_product(sg.dihedral_group(4), sg.cyclic_group(125)), 3)
    G.table(), G._walk
    tracemalloc.start()
    try:
        G.fingerprint()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.n == 1000 and peak <= 10 * 2**20

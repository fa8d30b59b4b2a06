"""The subgroup lattice by cyclic extension against an independent oracle.

The oracle is the bottom-up join closure `all_subgroups` used before the
cyclic extension method: every subgroup found so far is joined with every
cyclic subgroup, closing each join from its generators, until nothing new
appears.  It shares nothing with the new code but `closure_idx`.
"""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kinderlab import arith
from kinderlab import smallgrp as sg
from kinderlab.errors import CapExceededError, InvalidConfigError, PropertyViolationError
from kinderlab.gf import make_field
from subquotient import LabelProducts, recorded_classes, subgroup


def join_lattice(G):
    cyclic = {}
    for i in range(G.n):
        c = G.closure_idx([i])
        if c not in cyclic:
            cyclic[c] = (i,)
    subs = {(G.identity,): ()}
    subs.update(cyclic)
    frontier = list(subs)
    cyclic_items = sorted(cyclic.items(), key=lambda kv: (len(kv[0]), kv[0]))
    while frontier:
        fresh = []
        for S in frontier:
            sset = set(S)
            for C, cgens in cyclic_items:
                if set(C) <= sset:
                    continue
                gens = tuple(dict.fromkeys(subs[S] + cgens))
                J = G.closure_idx(gens)
                if J not in subs:
                    subs[J] = gens
                    fresh.append(J)
        frontier = fresh
    return sorted(subs, key=lambda t: (len(t), t))


def _s3():
    return sg.symmetric_group(3)


SOLVABLE = {
    "Sym4": lambda: sg.symmetric_group(4),
    "UT3(F3)": lambda: sg.unitriangular_group(3, make_field(3, 1)),
    "Sym3^2": lambda: sg.direct_product(_s3(), _s3()),
    "D4xC3": lambda: sg.direct_product(sg.dihedral_group(4), sg.cyclic_group(3)),
}
def _sl25():
    """SL(2,5), matrices (a, b, c, d) of determinant 1 over F5: perfect, of
    order 120 = 2 * 60, so the order rule cannot certify its perfect core."""
    labels = [m for m in itertools.product(range(5), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % 5 == 1]
    return sg.SmallGroup(labels, lambda x, y: (
        (x[0] * y[0] + x[1] * y[2]) % 5, (x[0] * y[1] + x[1] * y[3]) % 5,
        (x[2] * y[0] + x[3] * y[2]) % 5, (x[2] * y[1] + x[3] * y[3]) % 5), name="SL(2,5)")


def _psl27():
    """PSL(2,7) on the projective line over F7 (7 standing for infinity), by
    x -> x + 1 and x -> -1/x: simple, of order 168."""
    shift = tuple((x + 1) % 7 for x in range(7)) + (7,)
    flip = (7,) + tuple(-pow(x, -1, 7) % 7 for x in range(1, 7)) + (0,)
    return sg.SmallGroup.from_generators(sg._pcompose, [shift, flip], name="PSL(2,7)")


# not solvable; the order rule certifies each one's perfect core (Alt5, Alt5, PSL(2,7))
NOT_SOLVABLE = {
    "Alt5": lambda: sg.alternating_group(5),
    "Sym5": lambda: sg.symmetric_group(5),
    "PSL(2,7)": _psl27,
}
GROUPS = {name: make() for name, make in {**SOLVABLE, **NOT_SOLVABLE, "SL(2,5)": _sl25}.items()}


def relabelled(G, seed):
    labels = list(G.labels)
    random.Random(seed).shuffle(labels)
    return sg.SmallGroup(labels, G._mul_label)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(SOLVABLE)), seed=st.integers(0, 2**32))
def test_cyclic_extension_matches_join_oracle_solvable(name, seed):
    G = relabelled(GROUPS[name], seed)
    assert sg.all_subgroups(G) == join_lattice(relabelled(GROUPS[name], seed))


def _stages(monkeypatch):
    """The lattice stages all_subgroups runs, as a list of names: the
    extension from the trivial group, from the perfect core, or the joins."""
    calls, extension, joins = [], sg._cyclic_extension, sg._join_completion

    def extend(G, subs, add, *layer):
        calls.append("extension from the core" if layer else "extension")
        extension(G, subs, add, *layer)

    def join(G, subs, add):
        calls.append("joins")
        joins(G, subs, add)

    monkeypatch.setattr(sg, "_cyclic_extension", extend)
    monkeypatch.setattr(sg, "_join_completion", join)
    return calls


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(NOT_SOLVABLE)), seed=st.integers(0, 2**32))
def test_completion_matches_join_oracle_not_solvable(name, seed):
    G = relabelled(GROUPS[name], seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        stages = _stages(monkeypatch)
        assert sg.all_subgroups(G) == join_lattice(relabelled(GROUPS[name], seed))
    assert stages == ["extension", "extension from the core"]


def test_an_uncertified_core_takes_the_join_path(monkeypatch):
    # SL(2,5) is its own perfect core, and 60 divides 120: the rule cannot
    # rule out a perfect proper subgroup, so joins complete the lattice
    G = relabelled(GROUPS["SL(2,5)"], 19)
    stages = _stages(monkeypatch)
    subs = sg.all_subgroups(G)
    assert stages == ["extension", "joins"]
    assert len(subs) == 76 and subs == join_lattice(relabelled(GROUPS["SL(2,5)"], 19))


@pytest.mark.parametrize("name, order", [
    ("Alt5", 60), ("Sym5", 60), ("PSL(2,7)", 168), ("SL(2,5)", 120), ("Sym4", 1)])
def test_perfect_core_is_the_end_of_the_derived_series(name, order):
    G = relabelled(GROUPS[name], 23)
    P, gens = sg._perfect_core(G)
    assert len(P) == order and G.closure_idx(gens) == P
    assert G.span_idx(G.commutators(P, P).ravel().tolist()) == P


def _count_closures(G):
    """The seeds of every closure G makes from now on, in order."""
    calls = []
    inner = G.closure_idx

    def counted(seeds):
        calls.append(list(seeds))
        return inner(seeds)

    G.closure_idx = counted
    return calls


def _span_closures(G):
    """The closures of the one span of G that all_subgroups takes its
    conjugations from, span_gens(range(n)): one per generator it finds."""
    gens = G.span_gens(range(G.n))
    return [list(gens[:k]) for k in range(1, len(gens) + 1)]


def test_solvable_lattice_closes_only_the_span_of_g():
    # cyclic extension reads its subgroups off the table: the span of G is
    # the only closure the lattice of a solvable group takes
    G = relabelled(GROUPS["Sym4"], 3)
    span = _span_closures(G)
    calls = _count_closures(G)
    assert len(sg.all_subgroups(G)) == 30
    assert calls == span


@pytest.mark.parametrize("name,count", [("Sym4", 30), ("D4xC3", 20)])
def test_cap_count_on_the_extension_path(name, count, monkeypatch):
    G = relabelled(GROUPS[name], 5)
    monkeypatch.setattr(sg, "_SUBGROUP_COUNT_CAP", count)
    assert len(sg.all_subgroups(G)) == count
    span = _span_closures(G)
    calls = _count_closures(G)
    monkeypatch.setattr(sg, "_SUBGROUP_COUNT_CAP", count - 1)
    with pytest.raises(CapExceededError):
        sg.all_subgroups(G)
    assert calls == span


def test_cap_count_on_the_completion_path(monkeypatch):
    # the 58 proper subgroups of Alt5 are solvable; Alt5 itself is the 59th
    G = relabelled(GROUPS["Alt5"], 7)
    monkeypatch.setattr(sg, "_SUBGROUP_COUNT_CAP", 59)
    assert len(sg.all_subgroups(G)) == 59
    calls = _count_closures(G)
    monkeypatch.setattr(sg, "_SUBGROUP_COUNT_CAP", 58)
    with pytest.raises(CapExceededError):
        sg.all_subgroups(G)
    assert calls


@pytest.mark.parametrize("name, stage, order, drop, match", [
    # Sym4 is solvable: cyclic extension alone builds its lattice
    ("Sym4", "_cyclic_extension", 8, 1, "not 1 mod 2"),  # 3 Sylow 2-subgroups
    ("Sym4", "_cyclic_extension", 3, 1, "not 1 mod 3"),  # 4 subgroups of order 3
    # Alt5 is not, but the rule certifies it: a second extension, from Alt5
    # itself, finishes the lattice, and the check follows it
    ("Alt5", "_cyclic_extension from the core", 4, 1, "not 1 mod 2"),  # 5 Klein four-groups
    ("Alt5", "_cyclic_extension from the core", 5, 1, "not 1 mod 5"),  # 6 Sylow 5-subgroups
    ("Alt5", "_cyclic_extension from the core", 3, 3, "do not divide"),  # 10 -> 7, still 1 mod 3
    # the rule cannot certify SL(2,5): joins complete it, and the check follows them
    ("SL(2,5)", "_join_completion", 4, 1, "not 1 mod 2"),  # 15 cyclic groups of order 4
    ("SL(2,5)", "_join_completion", 5, 1, "not 1 mod 5"),  # 6 Sylow 5-subgroups
    ("SL(2,5)", "_join_completion", 3, 3, "do not divide"),  # 10 -> 7, still 1 mod 3
])
def test_a_lattice_short_of_a_p_subgroup_fails_loudly(monkeypatch, name, stage, order, drop, match):
    G = relabelled(GROUPS[name], 13)
    stage, seeded = stage.split()[0], stage.endswith("from the core")
    run, lost = getattr(sg, stage), []

    def lossy(G, subs, add, *layer):  # the seeded stage drops only after the extension from the core
        run(G, subs, add, *layer)
        if bool(layer) == seeded:
            lost.extend([s for s in subs if len(s) == order][:drop])
            for sub in lost:
                del subs[sub]

    monkeypatch.setattr(sg, stage, lossy)
    with pytest.raises(PropertyViolationError, match=match):
        sg.all_subgroups(G)
    assert len(lost) == drop


def test_restricted_tables_equal_label_products():
    G = relabelled(GROUPS["Sym4"], 11)
    G.table()
    for sub in sg.all_subgroups(G):
        H = subgroup(G, sub)
        fresh = sg.SmallGroup(H.labels, G._mul_label)
        assert H.identity == fresh.identity
        assert H.table().tolist() == fresh.table().tolist()
    with pytest.raises(InvalidConfigError):
        subgroup(G, [G.identity, next(i for i in range(G.n) if G.order_of(i) == 3)])


def test_table_completes_lazy_columns():
    G = relabelled(GROUPS["D4xC3"], 2)
    ref = LabelProducts(G)
    # a few products first: the first builds the whole table, which table() returns
    for i in range(0, G.n, 5):
        G.mul_idx(i, (3 * i + 1) % G.n)
    cols = G.table()
    assert all(cols[j][i] == ref.mul_idx(i, j) for i in range(G.n) for j in range(G.n))
    assert G.closure_idx([1, 2]) == ref.closure_idx([1, 2])


def _scan_cyclic_extension(G, subs, add, layer=None):
    """`_cyclic_extension` as it was before its masks: a Python scan of every
    extender against every subgroup of the layer, kept verbatim as the
    reference, from `layer` ((subgroup, generators) pairs already added) or
    else from the trivial group."""
    cols = G.table().tolist()
    n, e = G.n, G.identity
    # (x, p, x^p, x^-1) for every x of order p^a > 1
    extenders = []
    for x in range(n):
        cx = cols[x]
        powers = [x]  # x^1 .. x^order
        while powers[-1] != e:
            powers.append(cx[powers[-1]])
        if len(powers) > 1:
            factors = arith.factorize(len(powers))
            if len(factors) == 1:
                p = factors[0][0]
                extenders.append((x, p, powers[p - 1], powers[-2]))

    if layer is None:
        add((e,), ())
        layer = [((e,), ())]
    while layer:
        fresh = []
        for V, gens in layer:
            in_v = bytearray(n)
            for v in V:
                in_v[v] = 1
            covered = bytearray(in_v)
            gcols = [cols[g] for g in gens]
            for x, p, xp, xinv in extenders:
                if covered[x] or not in_v[xp]:
                    continue
                cx = cols[x]
                if any(not in_v[cx[gc[xinv]]] for gc in gcols):  # some x^-1 g x not in V
                    continue
                mask = bytearray(in_v)
                coset_rep = x
                for _ in range(1, p):
                    cy = cols[coset_rep]
                    for v in V:
                        w = cy[v]
                        mask[w] = covered[w] = 1
                    coset_rep = cx[coset_rep]
                W = tuple(itertools.compress(range(n), mask))
                if W in subs:
                    continue
                add(W, gens + (x,))
                fresh.append((W, gens + (x,)))
        layer = fresh


EXTENSION_GROUPS = {
    "UT3(F3)": GROUPS["UT3(F3)"],
    "D4": sg.dihedral_group(4),
    "Sym4": GROUPS["Sym4"],
    "Sym3^2": GROUPS["Sym3^2"],
    "C8xC27": sg.direct_product(sg.cyclic_group(8), sg.cyclic_group(27)),
    "D4xC27": sg.direct_product(sg.dihedral_group(4), sg.cyclic_group(27)),
    "Alt5": GROUPS["Alt5"],
}


def _extension_matches_the_scan(G):
    with mock.patch.object(sg, "_cyclic_extension", _scan_cyclic_extension):
        reference = sg.all_subgroups(G)
    assert sg.all_subgroups(G) == reference
    # the generators recorded with each subgroup generate it
    assert all(G.closure_idx(gens) == sub for sub, gens in G._sub_gens.items())
    # from the trivial group, as called without a layer: the solvable subgroups
    subs = {}
    sg._cyclic_extension(G, subs, subs.__setitem__)
    solvable = [s for s, (fp, _) in zip(reference, G.subset_invariants(reference))
                if fp.derived_orders[-1] == 1]
    assert sorted(subs, key=lambda t: (len(t), t)) == solvable
    assert all(G.closure_idx(gens) == sub for sub, gens in subs.items())


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(EXTENSION_GROUPS)), seed=st.integers(0, 2**32))
def test_extension_by_masks_matches_the_scan(name, seed):
    _extension_matches_the_scan(relabelled(EXTENSION_GROUPS[name], seed))


def test_extension_by_masks_matches_the_scan_on_sym3_cubed():
    # one fixed relabelling: 904 subgroups, of which the scan tests 80,456 (extender, V) pairs
    s3 = sg.symmetric_group(3)
    _extension_matches_the_scan(relabelled(sg.direct_product(s3, sg.direct_product(s3, s3)), 29))


@pytest.mark.parametrize("name", ["Alt5", "Sym4", "D4xC27", "Sym3^2"])
def test_recorded_generators_generate_their_subgroups(name):
    # all_subgroups keeps each subgroup's generators on G, for subset_invariants
    G = relabelled(EXTENSION_GROUPS[name], 17)
    subs = sg.all_subgroups(G)
    assert sorted(G._sub_gens, key=lambda t: (len(t), t)) == subs
    assert all(G.closure_idx(G._sub_gens[sub]) == sub for sub in subs)


def _classless(sub, gens, conj):
    """Each subgroup its own class, so that every subgroup is extended: the
    lattice as `_cyclic_extension` with a plain `subs.__setitem__` built it
    before classes."""
    return {sub: gens}


_F2, _F3 = make_field(2, 1), make_field(3, 1)
# perfbench's lattice groups, those of criteria 1 and 13, and SL(2,5), whose lattice takes the joins
CLASS_GROUPS = {
    "UT3(F2)": sg.unitriangular_group(3, _F2),
    "UT3(F3)": GROUPS["UT3(F3)"],
    "Alt5": GROUPS["Alt5"],
    "D4": EXTENSION_GROUPS["D4"],
    "C8": sg.cyclic_group(8),
    "C27": sg.cyclic_group(27),
    "C8xC27": EXTENSION_GROUPS["C8xC27"],
    "D4xC27": EXTENSION_GROUPS["D4xC27"],
    "Sym3^2": GROUPS["Sym3^2"],
    "Sym3^3": sg.direct_product(_s3(), GROUPS["Sym3^2"]),
    "UT3(F2)xUT3(F3)": sg.direct_product(sg.unitriangular_group(3, _F2), GROUPS["UT3(F3)"]),
    "D4xC125": sg.direct_product(sg.dihedral_group(4), sg.cyclic_group(125)),
    "SL(2,5)": GROUPS["SL(2,5)"],
}


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(CLASS_GROUPS)), seed=st.integers(0, 2**32))
def test_extension_on_class_representatives_matches_every_subgroup_extended(name, seed):
    G = relabelled(CLASS_GROUPS[name], seed)
    with mock.patch.object(sg, "_conjugacy_class", _classless):
        reference, counts = sg.all_subgroups(G), sg.sigma_counts(G, iso_order_cap=1024)
    # the whole list, and so the count of each order, and (sigma, sigma_iso)
    assert sg.all_subgroups(G) == reference and sg.sigma_counts(G, iso_order_cap=1024) == counts
    classes = recorded_classes(G)  # the classes are the conjugacy classes
    # with the conjugations cut to the first, the classes only get finer
    whole, orbits = sg._conjugacy_class, []

    def cut(sub, gens, conj):
        orbits.append(whole(sub, gens, conj[:1]))
        return orbits[-1]

    with mock.patch.object(sg, "_conjugacy_class", cut):
        assert sg.all_subgroups(G) == reference
        assert sorted(t for orbit in orbits for t in orbit) == sorted(reference)
        assert all(any(c.issuperset(orbit) for c in classes.values()) for orbit in orbits)
        assert sg.sigma_counts(G, iso_order_cap=1024) == counts

"""Code subgroups of (Sym_3)^k: weight recovery and class counting."""

import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kinderlab import altcodes, arith, smallgrp
from kinderlab.errors import CapExceededError, InvalidConfigError, PropertyViolationError
from kinderlab.gf import make_field
from kinderlab.linalg import Subspace, enumerate_subspaces, rref
from subquotient import LabelProducts, exponent, gamma_quotient, is_abelian

F2 = make_field(2, 1)


def test_sym3_tables():
    assert altcodes.SIGN3 == (0, 1, 1, 0, 0, 1)
    assert altcodes.MUL3[0] == (0, 1, 2, 3, 4, 5)
    # MUL3 is a group table: associativity and inverses
    for a in range(6):
        for b in range(6):
            assert altcodes.SIGN3[altcodes.MUL3[a][b]] == (
                altcodes.SIGN3[a] ^ altcodes.SIGN3[b]
            )
            for c in range(6):
                assert (
                    altcodes.MUL3[altcodes.MUL3[a][b]][c]
                    == altcodes.MUL3[a][altcodes.MUL3[b][c]]
                )


def test_build_gamma_shapes():
    G1 = altcodes.build_gamma(1)
    assert G1.group.n == 6 and len(G1.gamma2_idx) == 3
    assert smallgrp.find_isomorphism(G1.group, smallgrp.symmetric_group(3)) is not None
    G2 = altcodes.build_gamma(2)
    assert G2.group.n == 36
    G3 = altcodes.build_gamma(3)
    Q = gamma_quotient(G3)
    assert Q.n == 8 and is_abelian(Q) and exponent(Q) == 2


def test_build_gamma_cap():
    with pytest.raises(CapExceededError):
        altcodes.build_gamma(7)


def test_build_gamma_checks_that_its_generators_generate(monkeypatch):
    monkeypatch.setattr(smallgrp.SmallGroup, "closure_idx", lambda self, seeds: tuple(seeds))
    with pytest.raises(PropertyViolationError, match="coordinate generators"):
        altcodes.build_gamma(2)


def test_subgroup_from_code_keeps_the_labels_the_sign_map_selects():
    G3 = altcodes.build_gamma(3)
    for ell in range(4):
        for code in enumerate_subspaces(3, ell, F2):
            H = altcodes.subgroup_from_code(G3, code)
            assert H.labels == tuple(
                lab for lab in G3.group.labels if code.contains(G3.sign(lab)))


def test_subgroup_orders():
    G3 = altcodes.build_gamma(3)
    assert altcodes.subgroup_from_code(G3, Subspace.zero(F2, 3)).n == 27
    assert altcodes.subgroup_from_code(G3, Subspace.full(F2, 3)).n == 216
    line = Subspace.from_vectors(F2, 3, [[1, 1, 0]])
    assert altcodes.subgroup_from_code(G3, line).n == 54
    with pytest.raises(InvalidConfigError):
        altcodes.subgroup_from_code(G3, Subspace.zero(F2, 2))


def test_hamming_examples():
    G3 = altcodes.build_gamma(3)
    H = altcodes.subgroup_from_code(G3, Subspace.full(F2, 3))
    assert altcodes.hamming_recover(H, (0, 0, 0)) == 0
    assert altcodes.hamming_recover(H, (3, 0, 4)) == 0  # inside Gamma_2
    assert altcodes.hamming_recover(H, (1, 0, 1)) == 2
    line = altcodes.subgroup_from_code(G3, Subspace.from_vectors(F2, 3, [[1, 1, 0]]))
    with pytest.raises(InvalidConfigError):
        altcodes.hamming_recover(line, (1, 0, 1))  # not a member


def test_hamming_exhaustive_k3():
    G3 = altcodes.build_gamma(3)
    for ell in range(4):
        for code in enumerate_subspaces(3, ell, F2):
            H = altcodes.subgroup_from_code(G3, code)
            for lab in H.labels:
                assert altcodes.hamming_recover(H, lab) == G3.weight(lab)


def test_hamming_relabeling_invariant():
    G3 = altcodes.build_gamma(3)
    H = altcodes.subgroup_from_code(
        G3, Subspace.from_vectors(F2, 3, [[1, 1, 0], [0, 1, 1]])
    )
    rng = random.Random(11)
    perm = list(range(H.n))
    rng.shuffle(perm)
    newlab = {H.labels[i]: "x%03d" % perm[i] for i in range(H.n)}
    back = {v: k for k, v in newlab.items()}
    H2 = smallgrp.SmallGroup(
        sorted(newlab.values()),
        lambda a, b: newlab[altcodes._mul_tuple(back[a], back[b])],
    )
    for lab in H.labels[:40]:
        assert altcodes.hamming_recover(H2, newlab[lab]) == altcodes.hamming_recover(H, lab)


def hamming_recover_by_pairs(H, h) -> int:
    """The reference recovery on label products alone: the odd part by one
    order per element and each bracket x^-1 y^-1 x y by products, closed all
    at once."""
    hi, ref = H.index_of(h), LabelProducts(H)
    cube = [i for i in range(H.n) if ref.order_of(i) in (1, 3)]
    assert len(cube) == 3 ** arith.nu_p(H.n, 3)
    inv, mul = ref.inverse_idx, ref.mul_idx
    comms = {mul(mul(inv(hi), inv(g)), mul(hi, g)) for g in cube}
    return round(math.log(len(ref.closure_idx(comms)), 3))


@functools.lru_cache(maxsize=None)
def _gammas(k):
    return altcodes.build_gamma(k)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(k=st.integers(1, 4), data=st.data(), seed=st.integers(0, 2**32), tabled=st.booleans())
def test_hamming_recover_equals_the_pairwise_reference_on_relabellings(k, data, seed, tabled):
    gam = _gammas(k)
    dim = data.draw(st.integers(0, k if tabled else min(k, 2)))
    codes = list(enumerate_subspaces(k, dim, F2))
    H0 = altcodes.subgroup_from_code(gam, codes[data.draw(st.integers(0, len(codes) - 1))])
    labels = list(H0.labels)
    random.Random(seed).shuffle(labels)
    H = smallgrp.SmallGroup(labels, altcodes._mul_tuple)  # its identity anywhere
    if tabled:
        H.table()
    for h in data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=6)):
        w = altcodes.hamming_recover(H, h)
        assert w == hamming_recover_by_pairs(H, h) == gam.weight(h)
    assert H._T is not None  # below the cap the recovery reads the table, asked for or not


def _classes(k, l):
    """(orbit count, permutation bound as a Fraction) from the class table."""
    table = altcodes.code_class_table(k, l)
    return table["classes"], Fraction(**table["bound"])


def test_code_classes_frozen():
    for k in (1, 2, 3, 4):
        cnt, bnd = _classes(k, 0)
        assert cnt == 1 and bnd == Fraction(1, math.factorial(k))
    assert _classes(2, 1) == (2, Fraction(1))
    c42, b42 = _classes(4, 2)
    assert b42 == Fraction(16, 24)
    assert c42 >= math.ceil(b42)
    with pytest.raises(InvalidConfigError):
        _classes(3, 4)
    with pytest.raises(CapExceededError):
        _classes(7, 2)


def _classes_bruteforce(k, l):
    """Canonical min-RREF over all k! coordinate permutations."""
    perms = list(itertools.permutations(range(k)))
    canon = set()
    for S in enumerate_subspaces(k, l, F2):
        best = None
        for p in perms:
            rows = [[row[p[i]] for i in range(k)] for row in S.basis]
            basis, _ = rref(rows, F2)
            if best is None or basis < best:
                best = basis
        canon.add(best)
    return len(canon)


def test_code_classes_vs_bruteforce():
    for k in range(1, 5):
        for l in range(k + 1):
            assert _classes(k, l)[0] == _classes_bruteforce(k, l)


def test_iso_classes_match_code_classes_k3():
    G3 = altcodes.build_gamma(3)
    groups = [
        altcodes.subgroup_from_code(G3, S)
        for l in range(4)
        for S in enumerate_subspaces(3, l, F2)
    ]
    classes, _ = smallgrp.iso_classes(groups)
    total = sum(_classes(3, l)[0] for l in range(4))
    assert len(classes) == total == 8


def test_iso_classes_of_a_generator_equal_those_of_the_list():
    G3 = altcodes.build_gamma(3)
    codes = [S for l in range(4) for S in enumerate_subspaces(3, l, F2)]
    groups = [altcodes.subgroup_from_code(G3, S) for S in codes]
    fresh = (altcodes.subgroup_from_code(G3, S) for S in codes)
    assert smallgrp.iso_classes(fresh) == smallgrp.iso_classes(groups)


def test_code_class_table_payload():
    import json

    table = altcodes.code_class_table(4, 2)
    json.dumps(table)
    assert table["subspaces"] == 35
    assert table["classes"] == len(altcodes._orbits(4, 2)[1]) == _classes_bruteforce(4, 2)
    assert sum(c["size"] for c in table["table"]) == 35
    assert table["bound"] == {"numerator": 2, "denominator": 3}


def _merge_3_and_1(orbits):
    three, one = next(o for o in orbits if len(o) == 3), next(o for o in orbits if len(o) == 1)
    return [o for o in orbits if o not in (three, one)] + [three + one]


@pytest.mark.parametrize("damage, match", [
    (_merge_3_and_1, "does not divide"),  # an orbit of 4 in a group of order 3! = 6
    (lambda orbits: [orbits[0][1:]] + orbits[1:], "do not add up"),  # a subspace dropped
])
def test_code_class_table_rejects_a_damaged_orbit_list(monkeypatch, damage, match):
    # at (3, 1) the seven lines fall into orbits of sizes 3, 3 and 1; the bound
    # ceil(2^2 / 3!) = 1 is met by either damaged list
    real = altcodes._orbits
    assert sorted(map(len, real(3, 1)[1])) == [1, 3, 3]
    monkeypatch.setattr(altcodes, "_orbits", lambda k, l: (real(k, l)[0], damage(real(k, l)[1])))
    with pytest.raises(PropertyViolationError, match=match):
        altcodes.code_class_table(3, 1)


@pytest.mark.parametrize("k, l", [(3, 9), (2, -1), (-1, 1), (0, 0), (3, 4)])
def test_code_class_table_rejects_k_and_l_out_of_range(k, l):
    with pytest.raises(InvalidConfigError):
        altcodes.code_class_table(k, l)


def test_a_code_subgroup_of_a_tabled_gamma_makes_no_label_products(monkeypatch):
    gam = altcodes.build_gamma(4)
    assert gam.group._T is not None  # built by build_gamma's products, not by the first cut
    gam.group.table()
    calls = []

    def counted(mul):
        return lambda g, h: calls.append((g, h)) or mul(g, h)

    monkeypatch.setattr(altcodes, "_mul_tuple", counted(altcodes._mul_tuple))
    monkeypatch.setattr(gam.group, "_mul_label", counted(gam.group._mul_label))
    code = Subspace.from_vectors(F2, 4, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    tracemalloc.start()
    try:
        H = altcodes.subgroup_from_code(gam, code)
        hs = [H.labels[i] for i in (0, 100, 300, 647)]
        weights = [altcodes.hamming_recover(H, h) for h in hs]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert H.n == 648 and weights == [gam.weight(h) for h in hs]
    assert not calls
    assert held <= 2e6  # the cut table, its power walk and the columns read

"""Every cap that is a module constant is still enforced: at the constant,
monkeypatched to the size of a small call, the call passes, and one below it
raises CapExceededError.  (The subgroup count cap has its own tests in
test_lattice.py, on both lattice paths.)"""

import pytest

from kinderlab import altcodes, linalg, nursery, smallgrp, twisted
from kinderlab.errors import CapExceededError
from kinderlab.gf import make_field

F2 = make_field(2, 1)
F3 = make_field(3, 1)
N2 = nursery.make_nursery("matrix", a=2, c=1, ctx=F2)
KIND = nursery.kind_from_subspace(N2, N2.s_subspace())  # one Kind: refused past the bound once cached

# (module, constant, size, call): call() returns the size it builds or enumerates
CAPS = {
    "from_generators": (smallgrp, "SUBGROUP_ORDER_CAP", 6, lambda: smallgrp.SmallGroup.from_generators(
        smallgrp._pcompose, [(1, 0, 2), (1, 2, 0)]).n),
    "build_gamma": (altcodes, "ELEMENT_CAP", 36, lambda: altcodes.build_gamma(2).group.n),
    "gamma1_group": (nursery, "GROUP_ORDER_CAP", 8,
                     lambda: nursery.make_nursery("matrix", a=1, c=1, ctx=F2).gamma1_group().n),
    "Kind.group": (nursery, "GROUP_ORDER_CAP", 128, lambda: KIND.group().n),
    "B2Group.group": (twisted, "GROUP_ORDER_CAP", 16, lambda: twisted.b2_build(F2).group().n),
    "enumerate_vectors": (linalg, "ENUM_CAP", 9,
                          lambda: len(list(linalg.Subspace.full(F3, 2).enumerate_vectors()))),
    "enumerate_subspaces": (linalg, "ENUM_CAP", 13,
                            lambda: len(list(linalg.enumerate_subspaces(3, 1, F3)))),
    "enumerate_superspaces": (linalg, "ENUM_CAP", 4, lambda: len(list(linalg.enumerate_superspaces(
        linalg.Subspace.from_vectors(F3, 3, [(1, 0, 0)]), 2)))),
}


@pytest.mark.parametrize("name", sorted(CAPS))
def test_cap_holds_at_its_bound_and_refuses_one_past_it(name, monkeypatch):
    module, constant, size, call = CAPS[name]
    monkeypatch.setattr(module, constant, size)
    assert call() == size
    monkeypatch.setattr(module, constant, size - 1)
    with pytest.raises(CapExceededError):
        call()

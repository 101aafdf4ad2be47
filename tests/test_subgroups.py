"""Subgroup enumeration up to conjugacy."""

import pytest

from treeperm.config import DEFAULT_CAPS
from treeperm.errors import ResourceLimitError
from treeperm.groups import symmetric
from treeperm.subgroups import enumerate_subgroups_up_to_conjugacy


def test_sym3_classes():
    classes = enumerate_subgroups_up_to_conjugacy(symmetric(3))
    assert [c.order for c in classes] == [1, 2, 3, 6]
    assert sum(c.class_size for c in classes) == 6


def test_sym4_classes_and_transitive_filter():
    classes = enumerate_subgroups_up_to_conjugacy(symmetric(4))
    assert len(classes) == 11
    assert sum(c.class_size for c in classes) == 30
    transitive = sorted(c.order for c in classes if c.is_transitive)
    assert transitive == [4, 4, 8, 12, 24]  # C4, V, D4, A4, S4


def test_sym5_classes():
    classes = enumerate_subgroups_up_to_conjugacy(symmetric(5))
    assert len(classes) == 19
    assert sum(c.class_size for c in classes) == 156
    transitive = sorted(c.order for c in classes if c.is_transitive)
    assert transitive == [5, 10, 20, 60, 120]  # C5, D5, F20, A5, S5


def test_representatives_are_actual_subgroups():
    ambient = symmetric(4)
    for cls in enumerate_subgroups_up_to_conjugacy(ambient):
        assert cls.rep.order() == cls.order
        assert cls.rep.is_subgroup_of(ambient)


def test_deterministic_ordering():
    a = enumerate_subgroups_up_to_conjugacy(symmetric(4))
    b = enumerate_subgroups_up_to_conjugacy(symmetric(4))
    assert [c.element_indices for c in a] == [c.element_indices for c in b]


def test_cap_is_loud():
    caps = DEFAULT_CAPS.with_overrides(subgroup_cap=100)
    with pytest.raises(ResourceLimitError) as info:
        enumerate_subgroups_up_to_conjugacy(symmetric(5), caps)
    assert "--subgroup-cap" in str(info.value)


def test_one_chain_build_per_class(monkeypatch):
    from treeperm import bsgs
    builds = []
    init = bsgs.StabilizerChain.__init__

    def counting_init(self, degree):
        builds.append(degree)
        init(self, degree)

    monkeypatch.setattr(bsgs.StabilizerChain, "__init__", counting_init)
    classes = enumerate_subgroups_up_to_conjugacy(symmetric(5))
    assert [c.rep.order() for c in classes] == [c.order for c in classes]
    # one chain for the ambient group's order, one per class rep
    assert len(builds) <= len(classes) + 1

import pytest

import topobell
from topobell import entangled, linalg, optics

REMOVED = {
    entangled: ("SpinBranch", "TwoQuantonState", "singlet_source"),
    linalg: ("as_operator", "as_state", "dagger", "is_unitary", "apply",
             "joint_probabilities", "norm", "DEFAULT_TOL"),
    optics: ("custom_beam_splitter", "NonUnitaryError", "CUSTOM_SPLITTER_TOL",
             "polarizing_splitter_candidate", "spin_eigenstates"),
}


def test_every_exported_name_resolves():
    for name in topobell.__all__:
        assert getattr(topobell, name) is not None


@pytest.mark.parametrize("module, name",
                         [(module, name) for module, names in REMOVED.items() for name in names])
def test_removed_names_are_gone(module, name):
    assert name not in topobell.__all__
    assert not hasattr(topobell, name)
    assert not hasattr(module, name)

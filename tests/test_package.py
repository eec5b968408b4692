import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import topobell
from topobell import chsh, cli, entangled, linalg, optics, oracle, verify

SRC = Path(topobell.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"

REMOVED = {
    chsh: ("_check_contrast", "_scalar", "_doubled_mu_lambda", "chsh_terms"),
    cli: ("_parse_angle", "_checked_contrast"),
    entangled: ("SpinBranch", "TwoQuantonState", "singlet_source", "run_scenario_a",
                "run_scenario_b", "run_scenario_c", "run_scenario_ab", "_finite_array",
                "_SCENARIO_MODES", "_scenario_modes", "_interferometer", "_check_spec"),
    entangled.TopoPhaseSpec: ("broadcast",),
    linalg: ("as_operator", "as_state", "dagger", "is_unitary", "apply",
             "joint_probabilities", "norm", "DEFAULT_TOL", "tensor_product"),
    optics: ("custom_beam_splitter", "NonUnitaryError", "CUSTOM_SPLITTER_TOL",
             "polarizing_splitter_candidate", "spin_eigenstates", "_finite"),
    oracle: ("_ID", "_SWAP", "_require_type", "_left_product", "GridSpec", "BudgetExceededError"),
    verify: ("DEFAULT_LIGHT_DRAWS", "DEFAULT_HEAVY_DRAWS", "_Background", "_Shared",
             "FAULT_SCENARIO_C_SIGN", "KNOWN_FAULTS"),
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


def test_the_grid_search_takes_only_a_contrast_and_roles():
    assert list(inspect.signature(oracle.grid_search_max_S).parameters) == ["c", "roles"]


def test_run_suites_takes_only_a_budget():
    assert list(inspect.signature(verify.run_suites).parameters) == ["draws"]


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def _readme_cli_examples():
    """The ``topobell`` lines of README's sh blocks, joined across ``\\`` and cut at # and >."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = (line.split("#")[0].split(">")[0].split() for line in lines)
    return [words for words in commands if words[:1] == ["topobell"]]


@pytest.mark.parametrize("words", _readme_cli_examples(), ids=" ".join)
def test_readme_cli_example_exits_zero(capsys, words):
    assert cli.main(words[1:]) == 0 and capsys.readouterr().err == ""


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_only_the_checks_module_decides_what_is_finite(path):
    # "finite" is decided in one place; a second isfinite would let the rules drift apart
    assert (path.name == "_checks.py") == ("isfinite" in path.read_text())


def test_importing_the_cli_loads_no_thread_pool():
    # concurrent.futures adds milliseconds to every start-up; verify imports it when it runs
    code = "import sys, topobell.cli; sys.exit('concurrent.futures' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], cwd=SRC.parent, check=True)

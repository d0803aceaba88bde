"""Which entriv modules a cold start loads.

The CLI imports a verb's computation modules when the verb runs, so a fresh
process pays only for the modules that verb uses.  One top-level import in
cli.py would load them all again; these checks run fresh interpreters.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def _python(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV, capture_output=True,
                          text=True, timeout=60)


def test_importing_the_cli_loads_no_computation_module():
    probe = _python("-c", "import sys, entriv.cli; print(*sorted(m for m in sys.modules "
                          "if m.split('.')[0] == 'entriv'))")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == ["entriv", "entriv.cli"]


# The benchmark's cold-start verbs and the computation modules each one needs.
COLD_VERBS = [
    (["theta", "--n", "4", "--prime", "3"], {"stunted_ktheory", "core_algebra"}),
    (["suspend", "--input", "manifests/inputs/pair_a.json", "--k", "1"],
     {"sym_seq", "rep_theory", "perms"}),
    (["formality", "--input", "manifests/inputs/complex_rp2.json"], {"core_algebra"}),
    (["steenrod", "witness", "--n", "3"], {"steenrod_cochains", "core_algebra", "hochschild"}),
]


@pytest.mark.parametrize("argv, modules", COLD_VERBS,
                         ids=[" ".join(argv[:2]) for argv, _ in COLD_VERBS])
def test_cold_verb_loads_only_its_modules(argv, modules):
    # -X importtime lists every module on stderr when it is first imported
    run = _python("-X", "importtime", "-m", "entriv.cli", *argv)
    assert run.returncode == 0, run.stderr
    loaded = set(re.findall(r"\|\s*entriv\.(\w+)\s*$", run.stderr, flags=re.MULTILINE))
    assert loaded == modules

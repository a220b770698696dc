"""The determinism gate (``scripts/perturb.py``) catches what the static
determinism rules used to look for.

Each test plants one hazard into the document of a one-cell suite: a
``-c`` wrapper around the ``repro`` CLI replaces the ``chaos`` plugin's
``run`` with one that adds the planted value to its document, so the
product itself is never edited.  The plants are the finding lines of the
retired rules' fixtures: wall-clock reads (DET001), unseeded randomness
(DET002), an environment read reached from a ``repro.core`` function
(DET003) and iteration over hash-ordered sets (DET004).  The gate must
exit non-zero and name a perturbation that moved the bytes; the same
wrapper with a constant plant must pass.
"""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERTURB = os.path.join(ROOT, "scripts", "perturb.py")
SUITE = "suite: one\nseed: 7\ncells:\n  - plugin: chaos\n" \
        "    params: {plan: none}\n"

WRAPPER = """\
import dataclasses, sys
from repro.cli import main
from repro.suites.registry import get_plugin, register_plugin
{setup}

def planted():
    return {plant}

chaos = get_plugin("chaos")

def run(**params):
    document = chaos.run(**params)
    document["planted"] = repr(planted())
    return document

register_plugin(dataclasses.replace(chaos, run=run))
sys.exit(main(sys.argv[1:]))
"""

#: An environment read two calls below a ``repro.core`` function, as in
#: the retired DET003 fixture (``repro.core.config`` calling into
#: ``repro.util.envsrc``).
CORE_ENV_READ = """
import os
envsrc = {"__name__": "repro.util.envsrc", "os": os}
exec('def default_region():\\n'
     '    return os.getenv("REPRO_REGION", "eu-west")\\n', envsrc)
config = {"__name__": "repro.core.config", "envsrc": envsrc}
exec('def resolve_region(explicit=None):\\n'
     '    if explicit is not None:\\n'
     '        return explicit\\n'
     '    return envsrc["default_region"]()\\n', config)
"""

HASH_ORDER = ("plain", "PYTHONHASHSEED=0", "PYTHONHASHSEED=1")

#: plant id -> (setup, planted expression, perturbations that may catch it)
PLANTS = {
    "DET001-time.time": ("import time", "time.time()", ("plain",)),
    "DET001-datetime.now": ("from datetime import datetime",
                            "datetime.now()", ("plain",)),
    "DET002-random.random": ("import random", "random.random()",
                             ("plain",)),
    "DET002-os.urandom": ("import os", "os.urandom(8)", ("plain",)),
    "DET002-uuid.uuid4": ("import uuid", "uuid.uuid4()", ("plain",)),
    "DET002-unseeded-Random": ("import random", "random.Random().random()",
                               ("plain",)),
    "DET003-core-getenv": (CORE_ENV_READ,
                           'config["resolve_region"]()', ("env-noise",)),
    "DET004-set-literal": ("", '[name for name in {"b", "a", "c"}]',
                           HASH_ORDER),
    "DET004-set-call": ("items = ['b', 'a', 'c']",
                        "[x * 2 for x in set(items)]", HASH_ORDER),
}


def gate(tmp_path, setup, plant):
    """Run the one-cell suite through the gate with ``plant`` added to
    its document; returns the gate's completed process."""
    (tmp_path / "one.suite.yaml").write_text(SUITE)
    wrapper = WRAPPER.format(setup=setup, plant=plant)
    return subprocess.run(
        [sys.executable, PERTURB, "out.json", "--", sys.executable, "-c",
         wrapper, "suite", "run", "one.suite.yaml", "--digests-only"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))


def caught_by(result):
    """The perturbation the gate names, from its report."""
    found = re.search(r"(?:stdout|the run) under (\S+)",
                      result.stdout + result.stderr)
    return found.group(1) if found else None


def test_an_unplanted_cell_passes_every_perturbation(tmp_path):
    result = gate(tmp_path, "", '"steady"')
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == ""
    assert "passed" in (tmp_path / "out.json").read_text()


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_the_gate_catches_each_retired_rules_plant(tmp_path, plant):
    setup, expression, catchers = PLANTS[plant]
    result = gate(tmp_path, setup, expression)
    assert result.returncode == 1, result.stdout + result.stderr
    assert caught_by(result) in catchers, result.stdout + result.stderr
    assert "--- OUT" in result.stdout


def test_a_run_that_fails_only_under_a_perturbation_is_named(tmp_path):
    """A junk REPRO_* value that the planted code cannot parse fails the
    cell, so the suite exits 1 under env-noise alone."""
    result = gate(tmp_path, "import os",
                  'int(os.getenv("REPRO_WORKERS", "3"))')
    assert result.returncode == 1
    assert caught_by(result) == "env-noise"
    assert "the run under env-noise exited 1" in result.stderr


@pytest.mark.parametrize("argv", [[], ["out"], ["out", "cmd"],
                                  ["--help"], ["out", "-x", "true"]])
def test_usage_errors_exit_2(tmp_path, argv):
    result = subprocess.run([sys.executable, PERTURB, *argv],
                            cwd=str(tmp_path), capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 2
    assert "usage" in result.stderr


def test_a_failing_plain_run_exits_with_its_status(tmp_path):
    result = subprocess.run(
        [sys.executable, PERTURB, "out", "--", sys.executable, "-c",
         "import sys; print('partial'); sys.exit(3)"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert result.returncode == 3
    assert "the plain run exited 3" in result.stderr
    assert (tmp_path / "out").read_text() == "partial\n"

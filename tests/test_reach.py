"""The reachability census (``scripts/reach.py``) over a fixture package.

The full census runs every shipped entry point (over a minute) and is a
CI step of its own; here its classifier and its gate run over
``tests/fixtures/reach/pkg``, whose one entry point is traced the same
way.
"""

import importlib.util
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "..", "scripts", "reach.py")
FIXTURE = os.path.join(HERE, "fixtures", "reach", "pkg")


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = load("reach", SCRIPT)


@pytest.fixture(scope="module")
def reached():
    core = load("reach_fixture_core", os.path.join(FIXTURE, "core.py"))
    return reach.trace_calls(core.entry)


@pytest.fixture(scope="module")
def census(reached):
    return reach.classify(FIXTURE, reached, skipped=("skipped",))


def keys(functions):
    return sorted(function.key for function in functions)


def test_an_unreferenced_function_is_dead(census):
    assert keys(census.dead) == ["core.py::Widget.orphan_method",
                                 "core.py::orphan"]


def test_a_named_function_that_never_runs_is_called_never_run(census):
    assert keys(census.called_never_run) == ["core.py::named_but_idle"]


def test_dunders_and_skipped_packages_are_not_judged(census):
    judged = keys(census.judged)
    assert "core.py::Widget.__repr__" not in judged
    assert "core.py::Widget.__init__" not in judged
    assert not any(key.startswith("skipped/") for key in judged)
    assert {"core.py::entry", "core.py::helper",
            "core.py::dispatch"} <= set(judged)


def test_without_the_skip_a_package_is_judged(reached):
    census = reach.classify(FIXTURE, reached, skipped=())
    assert "skipped/extra.py::skipped_orphan" in keys(census.dead)


def judge(tmp_path, reached, keep_text):
    keep = tmp_path / "keep.txt"
    keep.write_text(keep_text, encoding="utf-8")
    return reach.judge(FIXTURE, str(keep), reached, skipped=("skipped",))


KEPT = ("core.py::orphan  roadmap: item 1 wants it\n"
        "core.py::Widget.orphan_method  safety: a guard  # trailing note\n")


def test_every_dead_function_kept_passes(tmp_path, reached, capsys):
    assert judge(tmp_path, reached, "# only a comment\n\n" + KEPT) == 0
    out, err = capsys.readouterr()
    assert "| **total** | **6** | **2** | **0** | **1** |" in out
    assert "core.py::named_but_idle" in err


def test_a_dead_function_not_kept_fails(tmp_path, reached, capsys):
    assert judge(tmp_path, reached, KEPT.splitlines()[0] + "\n") == 1
    assert "dead, not in the keep file: core.py::Widget.orphan_method" in \
        capsys.readouterr().err


@pytest.mark.parametrize("entry, why", [
    ("core.py::gone  roadmap: item 1", "no such function"),
    ("core.py::helper  roadmap: item 1", "the function now runs"),
])
def test_a_stale_keep_entry_fails(tmp_path, reached, capsys, entry, why):
    assert judge(tmp_path, reached, KEPT + entry + "\n") == 1
    assert f"stale keep entry, {why}: {entry.split()[0]}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("entry", [
    "core.py::orphan",
    "core.py::orphan  roadmap:",
    "core.py::orphan  because: nothing calls it",
    "core.py orphan  roadmap: item 1",
])
def test_an_entry_without_a_reason_is_rejected(tmp_path, reached, capsys,
                                               entry):
    assert judge(tmp_path, reached, entry + "\n") == 2
    assert "expected `path::qualname  kind: why`" in capsys.readouterr().err


def test_an_entry_listed_twice_is_rejected(tmp_path, reached, capsys):
    assert judge(tmp_path, reached, KEPT + KEPT.splitlines()[0]) == 2
    assert "listed twice" in capsys.readouterr().err


@pytest.mark.parametrize("action, expected, why", [
    (lambda: 1, 0, "exit status 1, expected 0"),
    (lambda: sys.exit(2), 0, "exit status 2, expected 0"),
    (lambda: sys.exit("usage"), 0, "exit status 'usage', expected 0"),
    (lambda: 0, 1, "exit status 0, expected 1"),
    (lambda: [][0], 0, "raised IndexError"),
])
def test_a_failing_entry_point_fails_the_census(tmp_path, capsys, action,
                                                expected, why):
    core = load("reach_fixture_core", os.path.join(FIXTURE, "core.py"))
    keep = tmp_path / "keep.txt"
    keep.write_text(KEPT, encoding="utf-8")

    def entries(out):
        yield reach.EntryPoint("entry", lambda: core.entry() and 0)
        yield reach.EntryPoint("quiet exit", lambda: sys.exit(0))
        yield reach.EntryPoint("fails", action, expected)

    status = reach.census(entries, FIXTURE, str(keep), skipped=("skipped",))
    err = capsys.readouterr().err
    assert status == 2
    assert f"reach: entry point failed: fails: {why}" in err
    assert "entry:" not in err and "quiet exit:" not in err


def test_entry_points_that_end_as_expected_pass_the_census(tmp_path, capsys):
    core = load("reach_fixture_core", os.path.join(FIXTURE, "core.py"))
    keep = tmp_path / "keep.txt"
    keep.write_text(KEPT, encoding="utf-8")

    def entries(out):
        yield reach.EntryPoint("entry", lambda: core.entry() and None)
        yield reach.EntryPoint("quiet exit", lambda: sys.exit(None))
        yield reach.EntryPoint("expected to fail", lambda: 1, expected=1)

    assert reach.census(entries, FIXTURE, str(keep),
                        skipped=("skipped",)) == 0
    assert "entry point failed" not in capsys.readouterr().err


# -- what counts as a reference ---------------------------------------------


def census_of(tmp_path, files, reached=frozenset()):
    """The census of a package written from ``files`` (relative path ->
    source), with ``reached`` as the traced set."""
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return reach.classify(str(tmp_path), set(reached), skipped=())


def test_a_name_only_in_a_docstring_is_dead(tmp_path):
    census = census_of(tmp_path, {"mod.py": (
        '"""Mentions quiet() in prose."""\n\n\n'
        'def quiet():\n'
        '    """quiet names itself here too."""\n')})
    assert keys(census.dead) == ["mod.py::quiet"]


def test_a_name_in_a_string_literal_is_a_reference(tmp_path):
    census = census_of(tmp_path, {"mod.py": (
        'def op_ping():\n    return 1\n\n\n'
        'def handle(obj):\n    return getattr(obj, "op_ping")()\n')})
    assert keys(census.dead) == ["mod.py::handle"]
    assert keys(census.called_never_run) == ["mod.py::op_ping"]


def test_a_name_built_by_concatenation_is_not_a_reference(tmp_path):
    census = census_of(tmp_path, {"mod.py": (
        'def op_ping():\n    return 1\n\n\n'
        'def handle(obj, op):\n    return getattr(obj, "op_" + op)()\n')})
    assert keys(census.dead) == ["mod.py::handle", "mod.py::op_ping"]


def test_an_imported_name_is_a_reference(tmp_path):
    census = census_of(tmp_path, {
        "a.py": "def shared():\n    return 1\n",
        "b.py": "from a import shared as alias  # noqa: F401\n"})
    assert keys(census.called_never_run) == ["a.py::shared"]
    assert census.dead == []


def test_an_attribute_is_a_reference(tmp_path):
    census = census_of(tmp_path, {"mod.py": (
        'class Box:\n'
        '    def size(self):\n        return 0\n\n\n'
        'def measure(box):\n    return box.size\n')})
    assert keys(census.called_never_run) == ["mod.py::Box.size"]


def test_nested_functions_have_locals_qualnames(tmp_path):
    census = census_of(tmp_path, {"pkg/mod.py": (
        'def outer():\n'
        '    def inner():\n        return 1\n'
        '    return inner\n')})
    assert keys(census.judged) == ["pkg/mod.py::outer",
                                   "pkg/mod.py::outer.<locals>.inner"]
    assert {function.package for function in census.judged} == {"pkg"}


def test_a_top_level_module_is_its_own_package_row(tmp_path):
    census = census_of(tmp_path, {"top.py": "def alone():\n    return 1\n",
                                  "pkg/mod.py": "def deep():\n    return 1\n"})
    table = reach.summary(census, {})
    assert "| (top) | 1 | 0 | 1 | 0 | 2 |" in table
    assert "| pkg | 1 | 0 | 1 | 0 | 2 |" in table
    assert "| **total** | **2** | **0** | **2** | **0** | **4** |" in table


def test_a_decorated_function_is_matched_at_its_decorator_line(tmp_path):
    source = ("import functools\n\n\n"
              "@functools.lru_cache(maxsize=None)\n"
              "def cached():\n    return 1\n\n\n"
              "def entry():\n    return cached()\n")
    (tmp_path / "mod.py").write_text(source, encoding="utf-8")
    module = load("reach_decorated", str(tmp_path / "mod.py"))
    census = reach.classify(str(tmp_path), reach.trace_calls(module.entry),
                            skipped=())
    assert census.dead == [] and census.called_never_run == []
    cached, = [f for f in census.judged if f.name == "cached"]
    assert (cached.first_line, cached.lines) == (4, 3)


def test_pycache_directories_are_not_scanned(tmp_path):
    census = census_of(tmp_path, {
        "mod.py": "def kept():\n    return 1\n",
        "__pycache__/stale.py": "def ghost():\n    return 1\n"})
    assert keys(census.judged) == ["mod.py::kept"]


# -- the committed census inputs, checked without running them ----------------


def test_every_committed_keep_entry_is_a_function_nothing_names():
    keep = reach.read_keep(reach.KEEP_FILE)
    functions, names = reach.scan(reach.SRC)
    by_key = {function.key: function for function in functions}
    assert keep
    for key, reason in keep.items():
        assert key in by_key, f"{key}: no such function"
        assert by_key[key].name not in names, f"{key} is named in src/repro"
        assert reason.partition(":")[0] in reach.KEEP_KINDS


def test_the_census_runs_every_suite_but_the_skipped_ones():
    suites = {os.path.relpath(path, reach.REPO).replace(os.sep, "/")
              for path in reach._suites()}
    assert "examples/paper.suite.yaml" in suites
    assert "examples/ci.suite.yaml" in suites
    assert not suites & set(reach.SKIPPED_SUITES)
    assert all(path.endswith(".suite.yaml") for path in suites)


def labels_of(out):
    return [entry.label for entry in reach.entry_points(str(out))]


@pytest.mark.parametrize("command, noun", [
    ("chaos", "plan"), ("partition", "scenario"), ("crashtest", "scenario")])
def test_every_listed_variant_is_an_entry_point(tmp_path, command, noun):
    from repro.suites.registry import get_plugin
    labels = labels_of(tmp_path)
    variants = list(get_plugin(command).variants())
    assert variants
    for variant in variants:
        assert f"{command} --seed 7 --{noun} {variant}" in labels


def test_every_digests_sh_command_is_an_entry_point(tmp_path):
    """Each ``digest`` line of ``scripts/digests.sh`` is a census label as
    written; a loop variable (``"$plan"``) stands for any one word."""
    labels = labels_of(tmp_path)
    with open(os.path.join(reach.REPO, "scripts", "digests.sh"),
              encoding="utf-8") as handle:
        lines = re.findall(r"^\s*digest (.+?)\s*$", handle.read(), re.M)
    assert len(lines) >= 10
    for line in lines:
        pattern = r"\S+".join(re.escape(part)
                              for part in re.split(r'"\$\w+"', line))
        assert any(re.fullmatch(pattern, label) for label in labels), line


def test_every_cli_command_and_example_is_an_entry_point(tmp_path):
    import argparse

    from repro.cli import build_parser
    subparsers, = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    labels = labels_of(tmp_path)
    assert set(subparsers.choices) <= {label.split()[0] for label in labels}
    examples = sorted(name for name in os.listdir(
        os.path.join(reach.REPO, "examples")) if name.endswith(".py"))
    assert examples
    for name in examples:
        assert f"examples/{name}" in labels
    for flag in ("lint --sanitize", "lint --graph json",
                 "chaos --seed 7 --no-recovery", "suite list"):
        assert flag in labels
    assert len(labels) == len(set(labels))
    assert list(tmp_path.iterdir()) == []


def test_tracing_restores_the_hook_it_found():
    import sys
    import threading

    def outer(frame, event, arg):
        return None

    def traced():
        return 1

    previous = sys.gettrace()
    sys.settrace(outer)
    threading.settrace(outer)
    try:
        reached = reach.trace_calls(traced)
        assert sys.gettrace() is outer
    finally:
        sys.settrace(previous)
        threading.settrace(previous)
    code = traced.__code__
    assert (os.path.realpath(code.co_filename), code.co_firstlineno) in \
        reached

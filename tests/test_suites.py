"""The declarative suite runner (``repro.suites``) and the three bugs
this layer exists to pin down:

- cumulative registry state leaking across back-to-back in-process runs
  (every cell builds its own telemetry, so a cell's digest does not
  depend on the cells run before it);
- ad-hoc seed plumbing (``seed + index`` arithmetic) coupling cells
  that must be independent — seeds now derive from names
  (:func:`repro.sim.rng.derive_seed` / :func:`~repro.sim.rng.retry_stream`);
- the scenario subcommands diverging on ``--list``/unknown-name/exit
  codes — ``chaos``/``partition``/``crashtest``/``overload`` are one
  command function over the plugin registry.
"""

import dataclasses
import json

import pytest

from repro.sim.rng import RandomStream, derive_seed, retry_stream
from repro.suites import (CellSpec, SuiteConfigError, SuiteError,
                          UnknownPluginError, cell_seed, document_digest,
                          evaluate_check, get_plugin, load_suite,
                          parse_check, parse_suite, plugin_names,
                          render_suite_json, run_cell, run_suite)


def make_suite(cells, **overrides):
    data = {"suite": "t", "seed": 7, "cells": cells}
    data.update(overrides)
    return parse_suite(data)


# ---------------------------------------------------------------- schema


def test_builtin_plugins_registered():
    assert plugin_names() == ("chaos", "crashtest", "experiment",
                              "overload", "partition")
    chaos = get_plugin("chaos")
    assert chaos.variant_param == "plan"
    assert "mid-crash" in chaos.variants()
    # Every plugin but the paper experiments is also a CLI command.
    from repro.cli import SCENARIO_COMMANDS
    assert set(SCENARIO_COMMANDS) == set(plugin_names()) - {"experiment"}


def test_unknown_plugin_is_config_error():
    with pytest.raises(UnknownPluginError, match="bogus"):
        make_suite([{"plugin": "bogus"}])


@pytest.mark.parametrize("data, match", [
    ([], "must be a mapping"),
    ({"cells": [{"plugin": "chaos"}]}, "'suite'"),
    ({"suite": "t", "cells": []}, "non-empty"),
    ({"suite": "t", "cells": [{"plugin": "chaos"}], "extra": 1},
     "unknown key"),
    ({"suite": "t", "seed": "x", "cells": [{"plugin": "chaos"}]},
     "'seed' must be an int"),
    ({"suite": "t", "early_stop": "sometimes",
      "cells": [{"plugin": "chaos"}]}, "early_stop"),
])
def test_top_level_validation(data, match):
    with pytest.raises(SuiteConfigError, match=match):
        parse_suite(data)


@pytest.mark.parametrize("entry, match", [
    ({"plugin": "chaos", "bogus": 1}, "unknown key"),
    ({"plugin": "chaos", "params": {"nope": 1}}, "no parameter"),
    ({"plugin": "chaos", "params": {"plan": "bogus"}}, "one of"),
    ({"plugin": "chaos", "params": {"workers": True}}, "must be an int"),
    ({"plugin": "chaos", "params": {"plan": "a b"}}, "may only use"),
    ({"plugin": "chaos", "params": {"plan": "none"},
      "matrix": {"plan": ["none"]}}, "both 'params' and 'matrix'"),
    ({"plugin": "chaos", "matrix": {"plan": []}}, "non-empty list"),
    ({"plugin": "chaos", "matrix": {"seed": ["x"]}},
     "'seed' must be an int"),
    ({"plugin": "chaos", "expect": ["agent..bad"]}, "bad path"),
    ({"plugin": "chaos", "expect": ["rate>=maybe"]}, "JSON literal"),
    # The topology axis is a closed domain: 0 used to die with a bare
    # IndexError inside the driver, 4 silently ran three workers.
    ({"plugin": "chaos", "params": {"workers": 0}}, "one of"),
    ({"plugin": "partition", "matrix": {"workers": [3, 4]}}, "one of"),
    ({"plugin": "crashtest", "params": {"workers": 4}}, "one of"),
])
def test_cell_validation(entry, match):
    with pytest.raises(SuiteError, match=match):
        make_suite([entry])


def test_matrix_expansion_is_canonical():
    spec = make_suite([{
        "plugin": "chaos",
        "params": {"workers": 3},
        "matrix": {"plan": ["none", "mid-crash"],
                   "recovery": [True, False]},
    }])
    # Axes in sorted-name order (plan before recovery), values in the
    # listed order; params render sorted in the cell id.
    assert [cell.cell_id for cell in spec.cells] == [
        "chaos[plan=none,recovery=true,workers=3]",
        "chaos[plan=none,recovery=false,workers=3]",
        "chaos[plan=mid-crash,recovery=true,workers=3]",
        "chaos[plan=mid-crash,recovery=false,workers=3]",
    ]
    # Defaults are filled in and validated even when omitted.
    lone = make_suite([{"plugin": "overload"}])
    assert lone.cells[0].cell_id == "overload[mode=governed]"


def test_cell_seeds_are_position_independent():
    entries = [
        {"plugin": "chaos", "params": {"plan": "none"}},
        {"plugin": "partition"},
    ]
    forward = make_suite(entries)
    backward = make_suite(list(reversed(entries)))
    seeds_fwd = {c.cell_id: cell_seed(7, c) for c in forward.cells}
    seeds_bwd = {c.cell_id: cell_seed(7, c) for c in backward.cells}
    assert seeds_fwd == seeds_bwd
    # ... and are the documented derivation, not position arithmetic.
    for cell in forward.cells:
        assert seeds_fwd[cell.cell_id] == \
            derive_seed(7, f"cell/{cell.cell_id}")


def test_explicit_seed_param_pins_the_cell_seed():
    spec = make_suite([{
        "plugin": "chaos",
        "params": {"plan": "none"},
        "matrix": {"seed": [7, 11]},
    }])
    assert [cell_seed(spec.seed, c) for c in spec.cells] == [7, 11]
    assert spec.cells[0].cell_id.endswith(",seed=7]")


def test_yaml_and_json_files_load_identically(tmp_path):
    body = {"suite": "t", "seed": 3,
            "cells": [{"plugin": "overload"}]}
    yaml_path = tmp_path / "s.yaml"
    yaml_path.write_text(
        "suite: t\nseed: 3\ncells:\n  - plugin: overload\n")
    json_path = tmp_path / "s.json"
    json_path.write_text(json.dumps(body))
    via_yaml = load_suite(str(yaml_path))
    via_json = load_suite(str(json_path))
    assert via_yaml.cells == via_json.cells
    assert via_yaml.seed == via_json.seed == 3
    with pytest.raises(SuiteConfigError, match="no such suite"):
        load_suite(str(tmp_path / "missing.yaml"))


def test_a_json_suite_runs_without_pyyaml(tmp_path):
    """PyYAML is a test dependency, not a product one (``dependencies =
    []``): with ``yaml`` unimportable a ``.json`` suite runs to the
    document the in-process runner prints, and a ``.yaml`` one exits 2
    naming the way out."""
    import os
    import subprocess
    import sys
    body = {"suite": "t", "seed": 3, "cells": [{"plugin": "overload"}]}
    json_path = tmp_path / "s.json"
    json_path.write_text(json.dumps(body))
    (tmp_path / "s.yaml").write_text("suite: t\ncells: []\n")
    script = ("import sys\n"
              "sys.modules['yaml'] = None\n"
              "from repro.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    source_root = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")

    def run(path):
        return subprocess.run(
            [sys.executable, "-c", script, "suite", "run", path],
            timeout=120, capture_output=True, text=True, cwd=str(tmp_path),
            env=dict(os.environ, PYTHONPATH=source_root))

    result = run("s.json")
    assert result.returncode == 0, result.stderr
    assert result.stdout == render_suite_json(
        run_suite(load_suite(str(json_path)))) + "\n"
    result = run("s.yaml")
    assert result.returncode == 2
    assert "PyYAML is not installed" in result.stderr


# ---------------------------------------------------------------- checks


@pytest.mark.parametrize("expr, expected", [
    ("exactly_once.holds", True),
    ("!agent.timed_out", True),
    ("agent.timed_out", False),
    ("flood.rate>=0.9", True),
    ("flood.rate>=0.95", False),
    ("flood.rate<0.95", True),
    ("agent.sites==3", True),
    ("agent.sites!=3", False),
    ("missing.path", False),
    ("!missing.path", False),  # a missing path always fails
])
def test_evaluate_check(expr, expected):
    document = {"exactly_once": {"holds": True},
                "agent": {"timed_out": False, "sites": 3},
                "flood": {"rate": 0.9}}
    ok, _ = evaluate_check(expr, document)
    assert ok is expected


def test_check_parse_rejects_garbage():
    for bad in ("", "a b", "!a>=1", "x>=", "x>=nope"):
        with pytest.raises(SuiteError):
            parse_check(bad)
    assert parse_check("a.b>=0.5") == ("a.b", ">=", 0.5)
    assert parse_check("!a.b") == ("a.b", "!", None)


# ---------------------------------------------------------------- runner


def test_suite_run_is_deterministic_across_runs():
    spec = make_suite([{
        "plugin": "chaos",
        "matrix": {"plan": ["none", "mid-crash"], "seed": [7, 11]},
    }])
    assert len(spec.cells) == 4
    first = run_suite(spec)
    second = run_suite(spec)
    assert render_suite_json(first) == render_suite_json(second)
    assert first["summary"] == {"planned": 4, "executed": 4,
                                "passed": 4, "failed": 0,
                                "skipped": 0, "ok": True}


def test_standalone_cell_matches_its_matrix_run():
    spec = make_suite([
        {"plugin": "chaos", "params": {"plan": "none"}},
        {"plugin": "overload"},
    ])
    suite_document = run_suite(spec)
    for index, cell in enumerate(spec.cells):
        alone = run_cell(cell, spec.seed, index)
        assert alone == suite_document["cells"][index]


def test_early_stop_skips_after_first_failure():
    failing = {"plugin": "chaos",
               "params": {"plan": "mid-crash", "recovery": False}}
    trailing = {"plugin": "chaos", "params": {"plan": "none"}}
    spec = make_suite([failing, trailing],
                      early_stop="first-failure")
    document = run_suite(spec)
    # Without the recovery kit the agent is lost mid-itinerary: the
    # default checks fail and the second cell is never executed.
    assert [c["status"] for c in document["cells"]] == \
        ["failed", "skipped"]
    assert document["cells"][1]["digest"] is None
    assert document["summary"] == {"planned": 2, "executed": 1,
                                   "passed": 0, "failed": 1,
                                   "skipped": 1, "ok": False}
    # The same cells under the default policy all execute.
    document = run_suite(make_suite([failing, trailing]))
    assert [c["status"] for c in document["cells"]] == \
        ["failed", "passed"]


def test_a_cell_that_raises_is_reported_and_the_rest_still_run(
        monkeypatch):
    from repro.suites import registry

    def explode(seed, mode):
        raise ValueError("element is not JSON")
    chaos = {"plugin": "chaos", "params": {"plan": "none"}}
    spec = make_suite([{"plugin": "overload"}, chaos])
    monkeypatch.setitem(
        registry._REGISTRY, "overload",
        dataclasses.replace(get_plugin("overload"), run=explode))
    document = run_suite(spec)
    errored, passed = document["cells"]
    assert errored == {
        "id": spec.cells[0].cell_id, "index": 0, "plugin": "overload",
        "params": spec.cells[0].params_dict(),
        "seed": cell_seed(spec.seed, spec.cells[0]),
        "status": "error", "checks": [], "digest": None,
        "error": {"type": "ValueError",
                  "message": "element is not JSON"}}
    assert passed == run_suite(make_suite([chaos]))["cells"][0] | {
        "index": 1}
    assert document["summary"] == {"planned": 2, "executed": 2,
                                   "passed": 1, "failed": 1,
                                   "skipped": 0, "ok": False}
    # An error stops a first-failure suite like any failed cell.
    stopped = run_suite(dataclasses.replace(spec,
                                            early_stop="first-failure"))
    assert [c["status"] for c in stopped["cells"]] == ["error", "skipped"]


def test_custom_checks_replace_and_expect_extends():
    spec = make_suite([{
        "plugin": "chaos",
        "params": {"plan": "none"},
        "checks": ["agent.sites_visited>=1"],
        "expect": ["agent.sites_visited>=999"],
    }])
    envelope = run_suite(spec)["cells"][0]
    assert [c["check"] for c in envelope["checks"]] == \
        ["agent.sites_visited>=1", "agent.sites_visited>=999"]
    assert [c["ok"] for c in envelope["checks"]] == [True, False]
    assert envelope["status"] == "failed"


def test_digest_is_canonical_sha256():
    document = {"b": 1, "a": [1, 2]}
    assert document_digest(document) == document_digest(
        json.loads(json.dumps(document)))
    assert len(document_digest(document)) == 64


# ----------------------------------------------------- regression: bugs


def test_retry_stream_is_named_not_arithmetic():
    # The seed-plumbing bug: flooder retry streams were seeded
    # ``seed + index``, so neighbouring matrix cells shared entropy.
    stream = retry_stream(7, "flood-0")
    assert stream.name == "retry/flood-0"
    assert stream.seed == 7
    assert retry_stream(7, "flood-0").random() == stream.random()
    # Derivation goes through the named-stream hash, byte-compatible
    # with RandomStream(seed, name=...).
    reference = RandomStream(7, name="retry/flood-0")
    assert retry_stream(7, "flood-0").randint(0, 10**9) == \
        reference.randint(0, 10**9)
    assert derive_seed(7, "a") != derive_seed(7, "b")
    assert derive_seed(7, "a") == derive_seed(7, "a")


def test_overload_cells_decoupled_across_seeds():
    # Consecutive seeds must produce different flood documents (under
    # seed+index arithmetic, principal i at seed s reused principal
    # i+1's stream at seed s-1).
    from repro.bench.overload import run_overload_mode
    a = run_overload_mode(seed=7, mode="governed")
    b = run_overload_mode(seed=8, mode="governed")
    assert a != b
    with pytest.raises(ValueError, match="unknown overload mode"):
        run_overload_mode(seed=7, mode="bogus")


# ----------------------------------------------------------------- CLI


def run_cli(argv, capsys):
    from repro.cli import main
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_importing_the_cli_imports_no_command(tmp_path):
    """Each command imports what it runs when it runs; the experiment
    harness used to be imported at module level and brought 17 modules
    with it, and an eager ``repro/__init__`` brought 81 (``setup_s`` is
    a bounded benchmark metric).  Importing the CLI loads the package,
    its lazy-namespace helper and the CLI itself, nothing else."""
    import os
    import subprocess
    import sys
    script = ("import sys, repro.cli\n"
              "print('\\n'.join(sorted(m for m in sys.modules\n"
              "                        if m.split('.')[0] == 'repro')))\n")
    source_root = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    loaded = subprocess.run(
        [sys.executable, "-c", script], check=True, timeout=60,
        capture_output=True, text=True, cwd=str(tmp_path),
        env=dict(os.environ, PYTHONPATH=source_root)).stdout.split()
    assert loaded == ["repro", "repro._namespace", "repro.cli"]


def test_cli_overload_list_and_unknown(capsys):
    code, out, _ = run_cli(["overload", "--list"], capsys)
    assert code == 0 and "governed" in out and "ungoverned" in out
    code, _, err = run_cli(["overload", "--mode", "bogus"], capsys)
    assert code == 2 and "--list" in err


def _command_cases():
    from repro.cli import SCENARIO_COMMANDS
    cases = [(command, variant, [])
             for command in SCENARIO_COMMANDS
             for variant in get_plugin(command).variants()]
    # The one non-variant parameter the CLI exposes: a failing verdict.
    cases.append(("chaos", "mid-crash", ["--no-recovery"]))
    return cases


#: Keys every survey-family document carries, whatever its blocks.
SURVEY_ENVELOPE = {"schema", "seed", "plan", "applied", "injector", "agent",
                   "conservation", "stats", "elapsed"}


@pytest.mark.parametrize("command, variant, flags", _command_cases())
def test_cli_command_is_its_plugin(command, variant, flags, capsys):
    plugin = get_plugin(command)
    noun = plugin.variant_param
    # (a) ``--list`` names the variant with a description.
    code, out, _ = run_cli([command, "--list"], capsys)
    rows = [line.split(None, 1) for line in out.splitlines()[1:]]
    assert code == 0 and out.startswith(f"{command} {noun}s:")
    assert [row[1] for row in rows if row[0] == variant] == \
        [plugin.variant_help[variant]]
    # (b) The command prints the suite cell's document for the same
    # seed and parameters (so two runs are byte-identical) and exits
    # with the cell's verdict.
    params = {noun: variant, "seed": 7}
    if flags:
        params["recovery"] = False
    envelope = run_cell(
        make_suite([{"plugin": command, "params": params}]).cells[0], 7)
    code, out, _ = run_cli(
        [command, "--seed", "7", f"--{noun}", variant] + flags, capsys)
    assert out == plugin.render(envelope["document"]) + "\n"
    assert code == (0 if envelope["status"] == "passed" else 1)
    assert code == (1 if flags else 0)
    # (c) The shared envelope.
    assert envelope["document"]["schema"] == f"repro.{command}/1"
    assert set(envelope["document"]) >= (
        {"schema", "seed", "stats", "elapsed"} if command == "overload"
        else SURVEY_ENVELOPE)


def test_ci_suite_covers_every_command_variant():
    # CI's one determinism gate runs this file: it must keep naming
    # every variant, each pinned to the seed the bare command uses.
    import os
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "examples", "ci.suite.yaml")
    cells = load_suite(path).cells
    assert all(cell.explicit_seed == 7 for cell in cells)
    assert [(cell.plugin, cell.params_dict()[
                get_plugin(cell.plugin).variant_param])
            for cell in cells] == \
        [(command, variant) for command, variant, flags
         in _command_cases() if not flags]


def test_cli_overload_failed_invariant_exits_one(capsys, monkeypatch):
    from repro.suites import registry

    real = get_plugin("overload")

    def starved(seed, mode):
        document = real.run(seed=seed, mode=mode)
        document["flood"]["completion_rate"] = 0.5
        return document

    # The command reaches the driver only through the registry, and the
    # registered check — not CLI code — decides the exit code.
    monkeypatch.setitem(registry._REGISTRY, "overload",
                        dataclasses.replace(real, run=starved))
    code, out, _ = run_cli(["overload"], capsys)
    assert code == 1 and '"completion_rate": 0.5' in out


def test_cli_suite_run_prints_its_document_when_a_cell_raises(
        capsys, monkeypatch):
    # A plugin that raises costs its cell, not the command: the suite
    # document is still printed, with the exception in the envelope.
    import os
    from repro.core.errors import BriefcaseError
    from repro.suites import registry

    real = get_plugin("partition")

    def storm_raises(seed, scenario, **params):
        if scenario == "partition-storm":
            raise BriefcaseError("element is not JSON")
        return real.run(seed=seed, scenario=scenario, **params)

    monkeypatch.setitem(registry._REGISTRY, "partition",
                        dataclasses.replace(real, run=storm_raises))
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "benchmarks", "e2e", "durable.suite.yaml")
    code, out, _ = run_cli(["suite", "run", path, "--digests-only"], capsys)
    cells = json.loads(out)["cells"]
    assert code == 1 and len(cells) == 8
    assert [(c["id"], c["error"]) for c in cells
            if c["status"] != "passed"] == [
        ("partition[scenario=partition-storm,workers=3]",
         {"type": "BriefcaseError", "message": "element is not JSON"})]


def test_cli_suite_validate_and_errors(tmp_path, capsys):
    good = tmp_path / "s.json"
    good.write_text(json.dumps(
        {"suite": "t", "cells": [{"plugin": "overload"}]}))
    code, out, _ = run_cli(["suite", "validate", str(good)], capsys)
    assert code == 0 and "1 cell(s)" in out
    code, _, err = run_cli(
        ["suite", "run", str(tmp_path / "nope.yaml")], capsys)
    assert code == 2 and "no such suite" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"suite": "t", "cells": [
        {"plugin": "overload", "params": {"mode": "bogus"}}]}))
    code, _, err = run_cli(["suite", "validate", str(bad)], capsys)
    assert code == 2 and "one of" in err
    bad.write_text(json.dumps({"suite": "t", "cells": [
        {"plugin": "crashtest", "params": {"workers": 0}}]}))
    code, _, err = run_cli(["suite", "validate", str(bad)], capsys)
    assert code == 2 and "'workers' must be one of [1, 2, 3]" in err


def test_cli_suite_run_document_and_exit_codes(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "suite": "t", "seed": 7, "early_stop": "first-failure",
        "cells": [
            {"plugin": "chaos", "params": {"plan": "none"},
             "expect": ["agent.sites_visited>=999"]},
            {"plugin": "overload"},
        ]}))
    code, out, err = run_cli(
        ["suite", "run", str(path), "--digests-only"], capsys)
    assert code == 1
    document = json.loads(out)
    assert [c["status"] for c in document["cells"]] == \
        ["failed", "skipped"]
    assert "0/2 passed" in err
    # The list form shows the expanded cells with their derived seeds.
    code, out, _ = run_cli(["suite", "list", str(path)], capsys)
    assert code == 0 and "chaos[plan=none" in out


def test_cli_suite_run_twice_is_byte_identical(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "suite": "t", "seed": 7, "cells": [
            {"plugin": "chaos",
             "matrix": {"plan": ["none", "mid-crash"]}},
        ]}))
    code_a, out_a, _ = run_cli(["suite", "run", str(path)], capsys)
    code_b, out_b, _ = run_cli(["suite", "run", str(path)], capsys)
    assert (code_a, code_b) == (0, 0)
    assert out_a == out_b
    # An overridden seed changes the derived cell seeds (and documents).
    code_c, out_c, _ = run_cli(
        ["suite", "run", str(path), "--seed", "11"], capsys)
    assert code_c == 0 and out_c != out_a


def test_cli_suite_list_describes_every_plugin(capsys):
    from repro.suites.registry import plugin_descriptions
    descriptions = plugin_descriptions()
    assert tuple(descriptions) == plugin_names()
    code, out, _ = run_cli(["suite", "list"], capsys)
    assert code == 0
    for name, description in descriptions.items():
        assert description
        assert name in out and description in out
    for name in plugin_names():
        plugin = get_plugin(name)
        assert f"{name} --{plugin.variant_param}: " in out

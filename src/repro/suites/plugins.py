"""The built-in scenario plugins: every driver, registered directly.

The registry is *the* entry point to the scenario drivers: the matrix
runner composes cells out of these plugins, and the ``repro chaos`` /
``partition`` / ``crashtest`` / ``overload`` commands are one function
that looks its plugin up here — the variant table ``--list`` prints,
the parameter domain an unknown name fails against, and the checks that
decide the exit code are all stated once, in the registration.

Each plugin declares its parameter domain (the matrix axes: named fault
plan / scenario / mode, topology ``workers``, governor mode) and its
default invariant checks — the expressions evaluated against the
returned document to decide the cell verdict.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.bench.experiments import (EXPERIMENTS, SEEDED_EXPERIMENTS,
                                     run_experiment)
from repro.bench.overload import MODE_DESCRIPTIONS, run_overload_mode
from repro.bench.runner import report_to_dict
from repro.chaos.crashtest import CRASHTEST_SCENARIOS, run_crashtest
from repro.chaos.harness import WORKER_HOSTS, Scenario, render_document
from repro.chaos.partition import PARTITION_SCENARIOS, run_partition
from repro.chaos.scenario import CHAOS_SCENARIOS, run_chaos
from repro.suites.registry import (ParamSpec, ScenarioPlugin,
                                   register_plugin)

#: The topology axis the three survey families share: the harness world
#: has three worker hosts, so that is the whole domain.
WORKERS = ParamSpec(3, int, tuple(range(1, len(WORKER_HOSTS) + 1)),
                    "worker-host count (topology)")


def _descriptions(table: Mapping[str, Scenario]) -> Dict[str, str]:
    return {name: row.description for name, row in table.items()}


def _run_experiment(seed: int, id: str) -> Dict[str, Any]:
    kwargs: Dict[str, int] = \
        {"seed": seed} if id in SEEDED_EXPERIMENTS else {}
    return report_to_dict(run_experiment(id, **kwargs))


register_plugin(ScenarioPlugin(
    name="chaos",
    description="the survey itinerary under a named fault plan "
                "(crashes, restarts, link flaps)",
    run=run_chaos,
    render=render_document,
    params={
        "plan": ParamSpec("mid-crash", str, tuple(CHAOS_SCENARIOS),
                          "fault plan name"),
        "recovery": ParamSpec(True, bool,
                              help="carry the recovery kit (monitor/"
                                   "checkpoint/retry/rear-guard)"),
        "workers": WORKERS,
    },
    # The agent reported at least one site and was not silently lost.
    checks=("agent.sites_visited>=1", "!agent.timed_out"),
    variant_param="plan",
    variant_help=_descriptions(CHAOS_SCENARIOS),
))

register_plugin(ScenarioPlugin(
    name="partition",
    description="exactly-once delivery under partition storms, "
                "split brain and asymmetric ack loss",
    run=run_partition,
    render=render_document,
    params={
        "scenario": ParamSpec("partition-storm", str,
                              tuple(PARTITION_SCENARIOS), "scenario name"),
        "workers": WORKERS,
    },
    checks=("exactly_once.holds",),
    variant_param="scenario",
    variant_help=_descriptions(PARTITION_SCENARIOS),
))

register_plugin(ScenarioPlugin(
    name="crashtest",
    description="journal replay resurrects bare agents through host "
                "crashes, torn tails and crash loops",
    run=run_crashtest,
    render=render_document,
    params={
        "scenario": ParamSpec("kill-during-migration", str,
                              tuple(CRASHTEST_SCENARIOS), "scenario name"),
        "workers": WORKERS,
    },
    # The acceptance gate: exactly-once AND agent conservation.
    checks=("exactly_once.holds", "conservation.holds"),
    variant_param="scenario",
    variant_help=_descriptions(CRASHTEST_SCENARIOS),
))

register_plugin(ScenarioPlugin(
    name="overload",
    description="N greedy principals flood one host with or without "
                "the firewall governor (the governor-config axis)",
    run=run_overload_mode,
    render=render_document,
    params={
        "mode": ParamSpec("governed", str, tuple(MODE_DESCRIPTIONS),
                          "governed or ungoverned"),
    },
    # The flood must still complete under shedding: rejections are
    # transient and the senders' retry policies absorb them.  Below the
    # floor, backpressure broke delivery instead of smoothing it.
    checks=("flood.completion_rate>=0.9",),
    variant_param="mode",
    variant_help=MODE_DESCRIPTIONS,
))

register_plugin(ScenarioPlugin(
    name="experiment",
    description="one paper-reproduction experiment (E1, E2, ...) as a "
                "suite cell; the check is its paper-vs-measured verdict",
    run=_run_experiment,
    render=render_document,
    params={
        "id": ParamSpec("E1", str, tuple(sorted(EXPERIMENTS)),
                        "experiment id"),
    },
    checks=("reproduced",),
    variant_param="id",
))

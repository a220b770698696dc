"""The survey-scenario harness: one driver, scenarios as data.

Every fault scenario of the reproduction is the same workload: a small
LAN (one home host, up to three workers), a mobility-wrapped survey
agent that visits every worker and charges a fixed slice of virtual work
at each stop, and a :class:`~repro.sim.faults.FaultPlan` fired against
the cluster while the agent travels.  What varies is *data* — which
plan, which recovery kit the agent carries, whether hosts journal,
which verdict and evidence blocks the document reports — and that data
is one frozen :class:`Scenario` record.  :func:`run_scenario` is the
only place a cluster, a briefcase or a document is assembled; the
family modules (:mod:`repro.chaos.scenario`, :mod:`~repro.chaos.partition`,
:mod:`~repro.chaos.crashtest`) are scenario tables plus plan builders.

Everything is virtual-time and seeded, so the returned document is
**byte-for-byte identical** (after :func:`render_document`) across runs
with the same scenario, seed and worker count — the CI determinism gate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.errors import BriefcaseError, CommTimeoutError
from repro.core.fold import fold_sum
from repro.core.retry import RetryPolicy, install_retry
from repro.core.uri import AgentUri
from repro.core import wellknown
from repro.chaos.engine import ChaosEngine
from repro.chaos.rearguard import RearGuard
from repro.obs.telemetry import Telemetry
from repro.sim.faults import FaultPlan
from repro.sim.network import BANDWIDTH_10MBIT, LATENCY_LAN
from repro.sim.rng import retry_stream
from repro.system.cluster import TaxCluster
from repro.vm import loader
from repro.wrappers.fault import CheckpointWrapper
from repro.wrappers.mobility import FAILURES, make_task_briefcase
from repro.wrappers.monitor import MonitorWrapper
from repro.wrappers.stack import WrapperSpec, install_wrappers

#: The world the scenarios run on.
HOME_HOST = "home.chaos.example"
WORKER_HOSTS = ("w1.chaos.example", "w2.chaos.example", "w3.chaos.example")
CHAOS_PRINCIPAL = "chaosproject"
AGENT_NAME = "survey"
DRAWER = "chaos-survey"

#: Virtual seconds of work the survey charges at each stop.
STOP_WORK_SECONDS = 1.5

#: Heartbeat / detection cadence of the recovery kit.
HEARTBEAT_SECONDS = 0.5
HEARTBEAT_TIMEOUT = 2.0
POLL_SECONDS = 0.5

#: Retry policy generous enough to ride out a short host outage.
CHAOS_RETRY = RetryPolicy(max_attempts=6, base_delay=0.4, multiplier=2.0,
                          max_delay=4.0, jitter=0.2)

#: The carried program: charge deterministic work, report the host.
SURVEY_SOURCE = '''
def run_survey(args, env):
    """One itinerary stop: spend the configured work, name the site."""
    work = float(args.get("work", 1.5))
    env.ledger.add("survey", work, 0)
    return {"host": env.host.name, "site": args.get("site"),
            "work": work}
'''

#: Journal records embedded by the ``journal_sample`` block (the tail of
#: the crashed worker's active segment).  Blob payloads are summarised,
#: not inlined, so the sample stays bounded.
JOURNAL_SAMPLE_LIMIT = 80

@dataclass(frozen=True)
class Scenario:
    """One named survey scenario, as data.

    ``family`` names the document schema (``repro.<family>/1``) and
    ``plan`` builds the fault plan from the worker host names.

    ``kit`` is what the agent carries and who waits at home:

    - ``rear-guard`` — monitor wrapper with heartbeats, checkpoint
      wrapper, transport retry, and a :class:`RearGuard` watching from
      home that relaunches the last checkpoint on silence;
    - ``bare`` — transport retry only and a plain driver context at
      home: nothing that could re-create the agent from application
      state, so recovery must come from the hosts (the journal);
    - ``none`` — the pre-resilience baseline (``repro chaos
      --no-recovery``): no retry, no wrappers, and the guard's
      registration is only the agent's home address — nobody watches.

    ``incarnations`` (rear-guard kit only) stamps the briefcase with an
    incarnation, makes the guard's principal a site owner everywhere
    and signs its admin requests, so orphan twins are detected and
    killed.  ``snapshot_interval`` (when set) gives every host a
    crash-durable store + write-ahead journal with that snapshot
    cadence.  ``stats`` maps document keys to the telemetry counters
    they total.

    ``blocks`` are the verdict/evidence sections added to the common
    envelope (``schema seed plan applied injector agent conservation
    stats elapsed``; ``rear_guard`` rides along whenever a guard
    exists):

    - ``survival`` — the ``recovery`` flag plus the agent's progress
      (sites planned/visited, completed, unreachable hosts);
    - ``scenario`` — the scenario's name and description;
    - ``exactly_once`` — the delivery verdict (``holds``);
    - ``delivery`` — with ``exactly_once``: the per-host dedup/landing
      snapshots behind the verdict, and the landing-handshake counters
      inside it;
    - ``durability`` — per-host disk/journal/replay statistics (needs
      ``snapshot_interval``);
    - ``journal_sample`` — the crashed worker's journal tail (likewise);
    - ``flight_recorder`` — the crash/quarantine post-mortem dumps.
    """

    family: str
    name: str
    description: str
    plan: Callable[[List[str]], FaultPlan]
    kit: str = "rear-guard"
    hop_timeout: Optional[float] = None
    incarnations: bool = False
    snapshot_interval: Optional[int] = None
    blocks: Tuple[str, ...] = ()
    stats: Mapping[str, str] = field(default_factory=dict)


def find_scenario(table: Mapping[str, Scenario], name: str) -> Scenario:
    """The row called ``name``; an unknown name is a ``ValueError``."""
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r} "
                         f"(have {list(table)})") from None


def crash_target(workers: List[str]) -> str:
    """The worker the crash plans hit: the second, else the only one."""
    return workers[1] if len(workers) > 1 else workers[0]


def build_survey_program(keychain) -> loader.Payload:
    """Compile and sign the survey program (a tiny webbot stand-in)."""
    source = loader.pack_source(SURVEY_SOURCE, "run_survey",
                                origin="chaos-survey")
    return loader.pack_binary_list(
        [("x86-unix", loader.compile_source(source))], keychain,
        CHAOS_PRINCIPAL)


def build_chaos_cluster(workers: int) -> Tuple[TaxCluster, List[str]]:
    """Home + N workers on a full-mesh 10 Mbit LAN, telemetry on."""
    if not 1 <= workers <= len(WORKER_HOSTS):
        raise ValueError(f"workers must be between 1 and "
                         f"{len(WORKER_HOSTS)}, got {workers!r}")
    cluster = TaxCluster(telemetry=Telemetry(enabled=True))
    names = list(WORKER_HOSTS[:workers])
    all_hosts = [HOME_HOST] + names
    for host in all_hosts:
        cluster.add_node(host)
    for i, a in enumerate(all_hosts):
        for b in all_hosts[i + 1:]:
            cluster.network.link(a, b, latency=LATENCY_LAN,
                                 bandwidth=BANDWIDTH_10MBIT)
    cluster.add_principal(CHAOS_PRINCIPAL, trusted=True)
    return cluster, names


def counter_total(metrics, name: str) -> int:
    """A counter family's value summed over every label set."""
    metric = metrics.get(name)
    if metric is None:
        return 0
    return int(fold_sum(sample["value"] for sample in metric.samples()))


def flight_recorder_block(telemetry) -> Dict:
    """Every host crash or poison quarantine freezes that host's flight
    recorder into a dump, so the document carries the last moments
    before impact."""
    return {"dumps": list(telemetry.flight.dumps),
            "dumps_evicted": telemetry.flight.dumps_evicted}


def journal_sample(durability) -> Dict:
    """The tail of a host's active journal segment, blobs summarised."""
    records, torn, segment = durability.journal.read_active()
    sample = []
    for record in records[-JOURNAL_SAMPLE_LIMIT:]:
        entry = dict(record)
        blob = entry.pop("blob", None)
        if blob is not None:
            entry["blob_bytes"] = len(blob)
            entry["blob_sha256"] = hashlib.sha256(
                blob.encode("ascii")).hexdigest()[:16]
        sample.append(entry)
    return {"segment": segment, "torn": torn,
            "total_records": len(records), "tail": sample}


def render_document(document: Dict) -> str:
    """The canonical (determinism-checkable) serialisation."""
    return json.dumps(document, sort_keys=True, indent=2)


def run_scenario(scenario: Scenario, seed: int = 7, workers: int = 3,
                 recv_timeout: float = 600.0) -> Dict:
    """Run the survey itinerary under ``scenario``; return the document.

    The construction order (auditor, durability, home endpoint, fault
    engine start, guard watch) is part of the seeded behaviour: kernel
    events and registrations are numbered in the order they are made.
    The document is built before the cluster is closed.
    """
    cluster, worker_names = build_chaos_cluster(workers)
    try:
        return _survey(cluster, worker_names, scenario, seed, recv_timeout)
    finally:
        cluster.close()


def _survey(cluster: TaxCluster, worker_names: List[str],
            scenario: Scenario, seed: int, recv_timeout: float) -> Dict:
    """:func:`run_scenario` on a built cluster: run, then document."""
    fault_plan = scenario.plan(worker_names)
    engine = ChaosEngine(cluster, fault_plan, seed=seed)
    auditor = cluster.enable_conservation()
    hosts = {}
    if scenario.snapshot_interval is not None:
        hosts = cluster.enable_durability(
            injector=engine.injector,
            snapshot_interval=scenario.snapshot_interval)
    home = cluster.node(HOME_HOST)
    cabinet_uri = str(AgentUri(host=HOME_HOST, name="ag_cabinet"))
    recovering = scenario.kit == "rear-guard"

    guard = None
    if scenario.kit == "bare":
        ctx = home.driver(name="crashtest-home", principal=CHAOS_PRINCIPAL)
        ctx.configure_retry(CHAOS_RETRY, retry_stream(seed, "home"))
    else:
        if scenario.incarnations:
            for node in cluster.nodes.values():
                # The guard must be able to kill orphan twins anywhere.
                node.firewall.policy.add_owner(CHAOS_PRINCIPAL)
        guard = RearGuard(
            home, cabinet=cabinet_uri, drawer=DRAWER,
            candidates=[str(cluster.vm_uri(HOME_HOST))],
            principal=CHAOS_PRINCIPAL, tag=AGENT_NAME,
            heartbeat_timeout=HEARTBEAT_TIMEOUT, poll_interval=POLL_SECONDS,
            expected_incarnation=0 if scenario.incarnations else None)
        ctx = guard.ctx
        if recovering:
            ctx.configure_retry(CHAOS_RETRY,
                                retry_stream(seed, "rear_guard"))
        if scenario.incarnations:
            # Twin kills cross hosts: the guard's admin requests must
            # arrive authenticated or the destination firewall refuses.
            ctx.configure_signing(cluster.keychain)

    stops = [{"vm": str(cluster.vm_uri(host)),
              "args": {"site": host, "work": STOP_WORK_SECONDS}}
             for host in worker_names]
    briefcase = make_task_briefcase(
        build_survey_program(cluster.keychain), stops,
        home_uri=str(ctx.uri), agent_name=AGENT_NAME,
        hop_timeout=scenario.hop_timeout)
    if scenario.incarnations:
        briefcase.put(wellknown.INCARNATION, "0")
    if recovering:
        install_wrappers(briefcase, [
            WrapperSpec.by_ref(MonitorWrapper, {
                "monitor": guard.uri, "tag": AGENT_NAME,
                "heartbeat": HEARTBEAT_SECONDS}),
            WrapperSpec.by_ref(CheckpointWrapper, {
                "cabinet": cabinet_uri, "drawer": DRAWER}),
        ])
    if scenario.kit != "none":
        install_retry(briefcase, CHAOS_RETRY, seed=seed)

    engine.start()
    if recovering:
        cluster.kernel.spawn(guard.watch(), name="rear-guard-watch")

    def itinerary():
        yield from ctx.launch(
            cluster.vm_uri(HOME_HOST), briefcase, timeout=60.0)
        results: List[Dict] = []
        failures: List[Dict] = []
        timed_out = False
        try:
            message = yield from ctx.recv(
                timeout=recv_timeout, match=lambda m: (
                    not ctx.is_pending_reply(m) and (
                        m.briefcase.has(wellknown.RESULTS) or
                        m.briefcase.has(FAILURES))))
            folder = message.briefcase.folder
            try:
                results = [e.as_object() for e in folder(wellknown.RESULTS)]
                failures = [e.as_object("host") for e in folder(FAILURES)]
            except BriefcaseError as exc:
                # An unreadable report is the agent's failure, not home's.
                failures = [{"host": HOME_HOST, "phase": "report",
                             "error": str(exc)}]
        except CommTimeoutError:
            # The agent was lost and nobody brought it back.
            timed_out = True
        if guard is not None:
            # The winning report can beat an in-flight twin kill home;
            # drain the guard's pending kills (bounded) so the run
            # doesn't end with a detected orphan still alive.
            deadline = ctx.now + HEARTBEAT_TIMEOUT * 8
            while guard.twin_kills_pending and ctx.now < deadline:
                yield ctx.kernel.timeout(POLL_SECONDS)
            guard.stop()
        return results, failures, timed_out

    results, failures, timed_out = cluster.run(
        itinerary(), name=f"{scenario.family}:{scenario.name}")

    metrics = cluster.telemetry.metrics
    blocks = scenario.blocks
    completed = len(results) == len(worker_names)
    stats = {key: counter_total(metrics, counter)
             for key, counter in scenario.stats.items()}
    stats["dead_letters"] = sum(len(node.firewall.pending.dead_letters)
                                for node in cluster.nodes.values())
    stats["remote_bytes"] = cluster.network.total_remote_bytes()
    stats["remote_messages"] = cluster.network.total_remote_messages()
    document = {
        "schema": f"repro.{scenario.family}/1",
        "seed": seed,
        "plan": fault_plan.to_dict(),
        "applied": engine.applied,
        "injector": engine.injector.stats(),
        "agent": {
            "name": AGENT_NAME,
            "results": results,
            "failures": failures,
            "timed_out": timed_out,
        },
        # Agent conservation: every instance ever spawned must end in a
        # terminal bucket.  Without recovery a crashed host legitimately
        # loses the agent, so ``holds`` is evidence here; the families
        # that gate on it say so in their plugin's checks.
        "conservation": auditor.report(),
        "stats": stats,
        "elapsed": cluster.kernel.now,
    }
    if guard is not None:
        document["rear_guard"] = guard.stats()
    if "survival" in blocks:
        document["recovery"] = recovering
        document["agent"].update(
            sites_planned=len(worker_names),
            sites_visited=len(results),
            completed=completed,
            unreachable_hosts=sorted({f["host"] for f in failures
                                      if f.get("phase") == "go"}))
    if "scenario" in blocks:
        document["scenario"] = scenario.name
        document["description"] = scenario.description
    if "exactly_once" in blocks:
        delivery = {
            host_name: {"dedup": node.firewall.dedup.snapshot(),
                        "landings": node.firewall.landings.snapshot()}
            for host_name, node in sorted(cluster.nodes.items())}
        sites = [r.get("site") for r in results]
        repeats = len(sites) - len(set(sites))
        violations = [host_name for host_name, host in delivery.items()
                      if not host["dedup"]["conservation_holds"]]
        exactly_once = {
            "sites_planned": len(worker_names),
            "sites_visited": len(results),
            "duplicate_site_visits": repeats,
            "completed": completed,
            "conservation_violations": violations,
            "duplicates_suppressed": sum(
                host["dedup"]["duplicates"] for host in delivery.values()),
            # The acceptance claim in one boolean: the itinerary
            # completed, no site ran twice in the winning report, and
            # every host's delivery counters balance.
            "holds": (completed and not repeats and not violations
                      and not timed_out),
        }
        if "delivery" in blocks:
            document["delivery"] = delivery
            exactly_once.update(
                duplicate_landings_suppressed=sum(
                    host["landings"]["duplicate_landings"]
                    for host in delivery.values()),
                tombstone_refusals=sum(
                    host["landings"]["tombstone_refusals"]
                    for host in delivery.values()),
                landing_aborts=counter_total(metrics,
                                             "agent.landing_aborts"))
        if scenario.incarnations:
            exactly_once.update(
                twins_detected=len(guard.twins),
                twins_killed=counter_total(metrics,
                                           "recovery.twins_killed"))
        document["exactly_once"] = exactly_once
    if "durability" in blocks:
        document["durability"] = {
            host_name: {
                "disk": hosts[host_name].disk.stats(),
                "journal": hosts[host_name].journal.stats(),
                "last_replay": hosts[host_name].last_replay,
            }
            for host_name in sorted(hosts)
        }
    if "journal_sample" in blocks:
        document["journal_sample"] = journal_sample(
            hosts[crash_target(worker_names)])
    if "flight_recorder" in blocks:
        document["flight_recorder"] = flight_recorder_block(
            cluster.telemetry)
    return document

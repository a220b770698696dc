"""The experiment suite: every quantitative artifact of the paper.

Each ``run_*`` function builds a fresh testbed, runs the strategies, and
returns an :class:`~repro.bench.metrics.ExperimentReport` with the rows
the paper reports (or implies) plus explicit paper-vs-measured claims.
See DESIGN.md section 2 for the experiment inventory.

All experiments are deterministic (seeded sites, virtual time).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.metrics import ExperimentReport
from repro.core.briefcase import Briefcase
from repro.core import wellknown
from repro.mining.strategies import (
    CrawlTask,
    RunMetrics,
    run_mobile,
    run_repeated_remote,
    run_stationary,
)
from repro.mining.webbot_agent import WEBBOT_PRINCIPAL
from repro.sim.network import (
    BANDWIDTH_1MBIT,
    BANDWIDTH_10MBIT,
    BANDWIDTH_100MBIT,
    LATENCY_LAN,
    LATENCY_METRO,
    LATENCY_WAN,
)
from repro.system.bootstrap import (
    build_campus_testbed,
    build_linkcheck_testbed,
)
from repro.vm import loader
from repro.web.site import SiteSpec, paper_site_spec
from repro.wrappers.logwrap import LoggingWrapper
from repro.wrappers.stack import WrapperSpec, install_wrappers

#: Mean page size of the paper workload (3 MB / 917 pages).
PAPER_BYTES_PER_PAGE = 3_000_000 // 917

#: Network conditions for the E2 sweep: (label, bandwidth B/s, latency s).
E2_NETWORKS: List[Tuple[str, float, float]] = [
    ("100Mbit-LAN", BANDWIDTH_100MBIT, LATENCY_LAN),
    ("10Mbit-metro", BANDWIDTH_10MBIT, LATENCY_METRO),
    ("2Mbit-regional", 2_000_000 / 8, 0.020),
    ("1Mbit-WAN", BANDWIDTH_1MBIT, LATENCY_WAN),
    ("512Kbit-WAN", 512_000 / 8, 0.100),
]

#: Page counts for the E3 volume sweep.
E3_VOLUMES = (10, 50, 150, 450, 917, 1500)


def _task_for(testbed, host: str, check_rejected: bool = True,
              max_depth: int = 12) -> CrawlTask:
    return CrawlTask.for_site(testbed.site_of(host), max_depth=max_depth,
                              check_rejected=check_rejected)


def _speedup(stationary: RunMetrics, mobile: RunMetrics) -> float:
    return stationary.elapsed_seconds / mobile.elapsed_seconds


# -- E1: the Section-5 headline experiment -----------------------------------------


def run_e1(seed: int = 2000, telemetry: bool = False) -> ExperimentReport:
    """917 pages / 3 MB on a 100 Mbit LAN: mobile vs stationary Webbot.

    With ``telemetry=True`` each mode runs under an enabled
    :class:`~repro.obs.telemetry.Telemetry` and the report's extras gain
    a per-mode metrics snapshot (``extras["telemetry"][mode]``).
    """
    from repro.obs.telemetry import Telemetry

    report = ExperimentReport(
        "E1", "Section 5: local (mobile) vs remote (stationary) Webbot "
        "scan of 917 pages / 3 MB over 100 Mbit")
    report.headers = ["mode", "strategy", "elapsed_s", "remote_bytes",
                      "pages", "dead_links"]

    ratios: Dict[str, float] = {}
    snapshots: Dict[str, dict] = {}
    for mode, check_rejected in (("full-task", True), ("scan-only", False)):
        hub = Telemetry(enabled=True) if telemetry else None
        testbed = build_linkcheck_testbed(spec=paper_site_spec(seed=seed),
                                          telemetry=hub)
        task = _task_for(testbed, "www.cs.uit.no",
                         check_rejected=check_rejected)
        stationary = run_stationary(testbed, [task])
        mobile = run_mobile(testbed, [task])
        for metrics in (stationary, mobile):
            report.add_row(mode, metrics.strategy, metrics.elapsed_seconds,
                           metrics.remote_bytes, metrics.pages_scanned,
                           metrics.dead_links_found)
        ratios[mode] = _speedup(stationary, mobile)
        if hub is not None:
            snapshots[mode] = hub.snapshot()
        if stationary.dead_links_found != mobile.dead_links_found:
            report.add_claim(
                "both deployments find the same dead links",
                f"stationary={stationary.dead_links_found} "
                f"mobile={mobile.dead_links_found}", False)

    if snapshots:
        report.extras["telemetry"] = snapshots
    full = ratios["full-task"]
    report.extras["ratio_full_task"] = full
    report.extras["ratio_scan_only"] = ratios["scan-only"]
    report.add_claim(
        "executing the scan locally is 16% faster than over a "
        "100 Mbit network (ratio 1.16)",
        f"full-task ratio {full:.3f} "
        f"(scan-only {ratios['scan-only']:.3f})",
        1.05 <= full <= 1.35)
    return report


# -- E2: WAN sweep -----------------------------------------------------------------------


def run_e2(seed: int = 2000,
           networks: Optional[Sequence[Tuple[str, float, float]]] = None
           ) -> ExperimentReport:
    """'If the client and server is separated by a wide area network ...
    the mobile Webbot would be even faster.'"""
    report = ExperimentReport(
        "E2", "Section 5 claim: the mobile agent's advantage grows as "
        "the network slows (LAN -> WAN sweep)")
    report.headers = ["network", "stationary_s", "mobile_s", "speedup"]
    speedups: List[float] = []
    for label, bandwidth, latency in (networks or E2_NETWORKS):
        testbed = build_linkcheck_testbed(
            spec=paper_site_spec(seed=seed),
            bandwidth=bandwidth, latency=latency)
        task = _task_for(testbed, "www.cs.uit.no")
        stationary = run_stationary(testbed, [task])
        mobile = run_mobile(testbed, [task])
        speedup = _speedup(stationary, mobile)
        speedups.append(speedup)
        report.add_row(label, stationary.elapsed_seconds,
                       mobile.elapsed_seconds, speedup)
    report.extras["speedups"] = speedups
    monotone = all(b >= a * 0.99 for a, b in zip(speedups, speedups[1:]))
    report.add_claim(
        "mobile speedup grows monotonically as bandwidth falls / "
        "latency rises",
        f"speedups {['%.2f' % s for s in speedups]}",
        monotone and speedups[-1] > speedups[0] * 1.5)
    return report


# -- E3: volume sweep --------------------------------------------------------------------------


def run_e3(seed: int = 2000,
           volumes: Sequence[int] = E3_VOLUMES,
           bandwidth: float = BANDWIDTH_100MBIT,
           latency: float = LATENCY_LAN) -> ExperimentReport:
    """'... and the volume of data much greater': gain vs site size."""
    report = ExperimentReport(
        "E3", "Section 5 claim: the mobile agent's advantage grows with "
        "the data volume (page-count sweep at fixed network)")
    report.headers = ["pages", "site_bytes", "stationary_s", "mobile_s",
                      "speedup", "mobile_remote_bytes"]
    speedups: List[float] = []
    for n_pages in volumes:
        spec = SiteSpec(
            host="www.cs.uit.no", n_pages=n_pages,
            total_bytes=max(n_pages * PAPER_BYTES_PER_PAGE, n_pages * 256),
            external_hosts=("www.w3.org", "www.cornell.edu"),
            external_dead_fraction=0.12, seed=seed)
        testbed = build_linkcheck_testbed(spec=spec, bandwidth=bandwidth,
                                          latency=latency)
        task = _task_for(testbed, "www.cs.uit.no")
        stationary = run_stationary(testbed, [task])
        mobile = run_mobile(testbed, [task])
        speedup = _speedup(stationary, mobile)
        speedups.append(speedup)
        report.add_row(n_pages, testbed.site_of("www.cs.uit.no").total_bytes,
                       stationary.elapsed_seconds, mobile.elapsed_seconds,
                       speedup, mobile.remote_bytes)
    report.extras["speedups"] = speedups
    report.add_claim(
        "the gain grows with the mined volume (shipping the agent barely "
        "pays at small volumes, clearly pays at the paper's scale)",
        f"speedup smallest={speedups[0]:.3f} largest={speedups[-1]:.3f}",
        speedups[-1] > speedups[0] and speedups[-1] > 1.05)
    return report


# -- E4: itinerant multi-host audit ----------------------------------------------------------------


def run_e4(n_servers: int = 4, pages_per_server: int = 200,
           seed: int = 2000) -> ExperimentReport:
    """'If we were to check all the servers at the university campus ...
    Webbot needs to be run several times, and preferably relocated to a
    new host between each execution.'"""
    report = ExperimentReport(
        "E4", "Section 5 scenario: auditing a whole campus — itinerant "
        "agent vs repeated remote crawls from a distant client")
    report.headers = ["strategy", "elapsed_s", "remote_bytes", "pages",
                      "dead_links", "hops_or_crawls"]

    def fresh():
        return build_campus_testbed(n_servers=n_servers,
                                    pages_per_server=pages_per_server,
                                    seed=seed)

    testbed = fresh()
    tasks = [CrawlTask.for_site(testbed.sites[name])
             for name in sorted(testbed.sites)]
    remote = run_repeated_remote(testbed, tasks)
    report.add_row(remote.strategy, remote.elapsed_seconds,
                   remote.remote_bytes, remote.pages_scanned,
                   remote.dead_links_found, len(tasks))

    testbed2 = fresh()
    tasks2 = [CrawlTask.for_site(testbed2.sites[name])
              for name in sorted(testbed2.sites)]
    itinerant = run_mobile(testbed2, tasks2)
    report.add_row(itinerant.strategy, itinerant.elapsed_seconds,
                   itinerant.remote_bytes, itinerant.pages_scanned,
                   itinerant.dead_links_found, len(tasks2))

    speedup = _speedup(remote, itinerant)
    report.extras["speedup"] = speedup
    report.add_claim(
        "one itinerant agent beats repeatedly crawling each server over "
        "the wide-area link",
        f"speedup {speedup:.2f}x, bytes {remote.remote_bytes:,d} -> "
        f"{itinerant.remote_bytes:,d}",
        speedup > 1.5 and itinerant.remote_bytes < remote.remote_bytes / 5
        and itinerant.dead_links_found == remote.dead_links_found)
    return report


# -- F3: the activation chain ---------------------------------------------------------------------


def _trivial_agent_source() -> str:
    return (
        "def chain_probe(ctx, bc):\n"
        "    home = bc.get_text('HOME')\n"
        "    out = bc.snapshot()\n"
        "    out.append('TRAIL', 'alive on ' + ctx.host_name)\n"
        "    yield from ctx.send(home, out)\n"
        "    return 'ok'\n")


def run_f3(seed: int = 2000) -> ExperimentReport:
    """Figure 3: latency of launching the same agent as py-ref /
    py-marshal / signed binary / source-via-compile-chain."""
    from repro.system.cluster import TaxCluster
    from repro.sim.network import LATENCY_LAN as _LAT

    report = ExperimentReport(
        "F3", "Figure 3: remote activation latency by payload kind "
        "(vm_python vs vm_bin vs the vm_source compile chain)")
    report.headers = ["payload", "vm", "launch_latency_s",
                      "payload_bytes", "chain_services_used"]

    cluster = TaxCluster()
    cluster.add_principal(WEBBOT_PRINCIPAL, trusted=True)
    client = cluster.add_node("client.uit.no")
    server = cluster.add_node("server.uit.no")
    cluster.network.link("client.uit.no", "server.uit.no",
                         latency=_LAT, bandwidth=BANDWIDTH_100MBIT)
    driver = client.driver(principal=WEBBOT_PRINCIPAL)

    source = _trivial_agent_source()
    namespace: dict = {}
    exec(compile(source, "<probe>", "exec"), namespace)  # noqa: S102
    probe_fn = namespace["chain_probe"]

    source_payload = loader.pack_source(source, "chain_probe")
    marshal_payload = loader.compile_source(source_payload)
    binary_payload = loader.pack_binary_list(
        [(server.host.arch, marshal_payload)],
        cluster.keychain, WEBBOT_PRINCIPAL)
    cases = [
        ("py-ref", "vm_python",
         loader.pack_ref("repro.bench.experiments:_noop_probe")),
        ("py-marshal", "vm_python", marshal_payload),
        ("binary(signed)", "vm_bin", binary_payload),
        ("py-source", "vm_source", source_payload),
    ]
    del probe_fn  # only needed to sanity-check the source compiles

    latencies: Dict[str, float] = {}
    for label, vm, payload in cases:
        briefcase = Briefcase()
        loader.install_payload(briefcase, payload, agent_name="probe")
        briefcase.put("HOME", str(driver.uri))

        def scenario(briefcase=briefcase, vm=vm):
            start = cluster.kernel.now
            yield from driver.launch(
                cluster.vm_uri("server.uit.no", vm), briefcase, timeout=600)
            launch_latency = cluster.kernel.now - start
            yield from driver.recv(timeout=600)   # the probe's TRAIL report
            return launch_latency

        latency = cluster.run(scenario(), name=f"f3-{label}")
        latencies[label] = latency
        exec_uses = server.services["ag_exec"].executions
        cc_uses = server.services["ag_cc"].requests_handled
        report.add_row(label, vm, latency, payload.size,
                       f"ag_cc={cc_uses} ag_exec_runs={exec_uses}")

    report.extras["latencies"] = latencies
    report.add_claim(
        "the compile-at-destination chain (Figure 3) works and costs "
        "more than launching a pre-compiled payload",
        f"source {latencies['py-source']:.4f}s vs marshal "
        f"{latencies['py-marshal']:.4f}s",
        latencies["py-source"] > latencies["py-marshal"])
    report.add_claim(
        "signed-binary launch (vm_bin) is competitive with vm_python",
        f"binary {latencies['binary(signed)']:.4f}s vs marshal "
        f"{latencies['py-marshal']:.4f}s",
        latencies["binary(signed)"] <
        latencies["py-marshal"] * 3)
    return report


def _noop_probe(ctx, bc):
    """py-ref probe agent used by F3 (must be importable)."""
    home = bc.get_text("HOME")
    out = bc.snapshot()
    out.append("TRAIL", "alive on " + ctx.host_name)
    yield from ctx.send(home, out)
    return "ok"


# -- F5: wrapper stacking overhead ----------------------------------------------------------------


def _echo_agent(ctx, bc):
    """Replies to every meet until told to stop (F5 measurement target)."""
    while True:
        message = yield from ctx.recv()
        if message.briefcase.get_text(wellknown.OP) == "stop":
            return "stopped"
        response = Briefcase()
        response.put(wellknown.STATUS, "ok")
        yield from ctx.reply(message, response)


def run_f5(depths: Sequence[int] = (0, 1, 2, 4, 8),
           round_trips: int = 50) -> ExperimentReport:
    """Figure 5 / section 4: cost of stacking wrappers 'in arbitrary
    depth' — per-message overhead per layer."""
    from repro.system.cluster import TaxCluster

    report = ExperimentReport(
        "F5", "Wrapper stack ablation: meet() round-trip latency vs "
        "stack depth (logging wrappers)")
    report.headers = ["stack_depth", "mean_roundtrip_s", "overhead_vs_0"]

    means: List[float] = []
    for depth in depths:
        cluster = TaxCluster()
        node = cluster.add_node("host.uit.no")
        driver = node.driver()
        briefcase = Briefcase()
        loader.install_payload(
            briefcase, loader.pack_ref(_echo_agent), agent_name="echo")
        if depth:
            install_wrappers(briefcase, [
                WrapperSpec.by_ref(LoggingWrapper, {"trace": False})
                for _ in range(depth)])

        def scenario(briefcase=briefcase):
            echo_uri = yield from driver.launch(
                cluster.vm_uri("host.uit.no"), briefcase, timeout=60)
            start = cluster.kernel.now
            for _ in range(round_trips):
                ping = Briefcase()
                yield from driver.meet(echo_uri, ping, timeout=60)
            elapsed = cluster.kernel.now - start
            stop = Briefcase()
            stop.put(wellknown.OP, "stop")
            yield from driver.send(echo_uri, stop)
            return elapsed / round_trips

        mean = cluster.run(scenario(), name=f"f5-depth{depth}")
        means.append(mean)
        report.add_row(depth, mean, mean - means[0])

    report.extras["means"] = list(means)
    report.add_claim(
        "wrappers can be stacked in arbitrary depth at modest per-layer "
        "cost (deepest stack < 2x the bare agent)",
        f"depth0 {means[0] * 1000:.3f}ms -> depth{depths[-1]} "
        f"{means[-1] * 1000:.3f}ms",
        means[-1] < means[0] * 2.0 and
        all(b >= a * 0.999 for a, b in zip(means, means[1:])))
    return report


# -- A1: condensation ablation ----------------------------------------------------------------------


def run_a1(seed: int = 2000) -> ExperimentReport:
    """Section 1's premise: the win exists because mining *condenses*.
    Ablate the condensation step (ship raw crawl logs home instead)."""
    report = ExperimentReport(
        "A1", "Ablation: result condensation (dead-link report) vs "
        "shipping the raw crawl log, on a 1 Mbit WAN")
    report.headers = ["strategy", "elapsed_s", "remote_bytes", "dead_links"]

    rows: Dict[str, RunMetrics] = {}
    spec = paper_site_spec(seed=seed)
    for label, kwargs in (
            ("stationary", None),
            ("mobile-condensed", {"condense": True}),
            ("mobile-raw", {"condense": False})):
        testbed = build_linkcheck_testbed(
            spec=spec, bandwidth=BANDWIDTH_1MBIT, latency=LATENCY_WAN)
        task = _task_for(testbed, "www.cs.uit.no")
        if kwargs is None:
            metrics = run_stationary(testbed, [task])
        else:
            metrics = run_mobile(testbed, [task], **kwargs)
            metrics.strategy = label
        rows[label] = metrics
        dead = metrics.dead_links_found if label != "mobile-raw" else \
            sum(len(r.get("invalid", ())) +
                len(r.get("second_pass_invalid", ()))
                for r in metrics.reports)
        report.add_row(label, metrics.elapsed_seconds,
                       metrics.remote_bytes, dead)

    condensed = rows["mobile-condensed"]
    raw = rows["mobile-raw"]
    stationary = rows["stationary"]
    report.add_claim(
        "condensing before shipping saves bytes (briefcase state "
        "dropping, section 3.1)",
        f"condensed {condensed.remote_bytes:,d}B vs raw "
        f"{raw.remote_bytes:,d}B",
        condensed.remote_bytes < raw.remote_bytes)
    report.add_claim(
        "even the un-condensed mobile agent beats pulling raw pages",
        f"raw-mobile {raw.elapsed_seconds:.1f}s vs stationary "
        f"{stationary.elapsed_seconds:.1f}s",
        raw.elapsed_seconds < stationary.elapsed_seconds)
    return report


# -- E5: fork-join parallel audit (extension) -------------------------------------------------------


def run_e5(n_servers: int = 4, pages_per_server: int = 200,
           seed: int = 2000) -> ExperimentReport:
    """spawn()-based fan-out: one clone per campus server, crawling
    concurrently, vs the sequential itinerary of E4."""
    from repro.mining.parallel import run_parallel_mobile

    report = ExperimentReport(
        "E5", "Extension: fork-join parallel audit (spawn() per server) "
        "vs the sequential itinerary")
    report.headers = ["strategy", "elapsed_s", "remote_bytes", "pages",
                      "dead_links"]

    def fresh():
        return build_campus_testbed(n_servers=n_servers,
                                    pages_per_server=pages_per_server,
                                    seed=seed)

    testbed = fresh()
    tasks = [CrawlTask.for_site(testbed.sites[name])
             for name in sorted(testbed.sites)]
    sequential = run_mobile(testbed, tasks)
    report.add_row(sequential.strategy, sequential.elapsed_seconds,
                   sequential.remote_bytes, sequential.pages_scanned,
                   sequential.dead_links_found)

    testbed2 = fresh()
    tasks2 = [CrawlTask.for_site(testbed2.sites[name])
              for name in sorted(testbed2.sites)]
    parallel = run_parallel_mobile(testbed2, tasks2)
    report.add_row(parallel.strategy, parallel.elapsed_seconds,
                   parallel.remote_bytes, parallel.pages_scanned,
                   parallel.dead_links_found)

    speedup = sequential.elapsed_seconds / parallel.elapsed_seconds
    report.extras["speedup"] = speedup
    report.add_claim(
        "forking one clone per server turns the audit's completion time "
        "from the sum of the crawls into (roughly) the slowest one",
        f"parallel speedup {speedup:.2f}x over the itinerary "
        f"(ideal {n_servers}x minus fan-out overheads)",
        speedup > n_servers * 0.5 and
        parallel.dead_links_found == sequential.dead_links_found)
    return report


# -- D1: a second mining application under the same wrapper ------------------------------------------


def run_d1(seed: int = 2000,
           log_sizes: Sequence[int] = (2_000, 10_000, 50_000)
           ) -> ExperimentReport:
    """Generality: the access-log analyzer under the unchanged mobility
    wrapper, where condensation is extreme (megabytes of log lines ->
    a few hundred bytes of aggregates), over a 1 Mbit WAN."""
    from repro.mining.logmining import (
        generate_access_log,
        publish_log,
        run_log_mobile,
        run_log_stationary,
    )

    report = ExperimentReport(
        "D1", "Second stationary mining app (access-log analyzer) under "
        "the same wrapper: log-size sweep on a 1 Mbit WAN")
    report.headers = ["log_lines", "log_bytes", "stationary_s",
                      "mobile_s", "speedup", "mobile_remote_bytes"]

    speedups: List[float] = []
    agree = True
    for n_requests in log_sizes:
        spec = paper_site_spec(seed=seed)
        testbed = build_linkcheck_testbed(
            spec=spec, bandwidth=BANDWIDTH_1MBIT, latency=LATENCY_WAN)
        site = testbed.site_of(spec.host)
        log_text = generate_access_log(site, n_requests, seed=seed)
        publish_log(site, log_text)

        stationary = run_log_stationary(testbed, spec.host)
        mobile = run_log_mobile(testbed, spec.host)
        speedup = _speedup(stationary, mobile)
        speedups.append(speedup)
        s_stats = dict(stationary.reports[0])
        m_stats = dict(mobile.reports[0])
        if any(s_stats.get(key) != m_stats.get(key)
               for key in ("hits", "unique_visitors", "bytes_served",
                           "top_pages")):
            agree = False
        report.add_row(n_requests, len(log_text.encode()),
                       stationary.elapsed_seconds, mobile.elapsed_seconds,
                       speedup, mobile.remote_bytes)

    report.extras["speedups"] = speedups
    report.add_claim(
        "the wrapper mobilises a second, very different stationary "
        "mining program unchanged, with identical results",
        f"aggregates agree at every size: {agree}", agree)
    report.add_claim(
        "with an extreme condensation ratio the mobile win dwarfs the "
        "Webbot case and grows with the data",
        f"speedups {['%.1f' % s for s in speedups]}",
        all(b >= a for a, b in zip(speedups, speedups[1:])) and
        speedups[-1] > 5)
    return report


# -- G1: wrapper generality across robots -------------------------------------------------------------


def run_g1(seed: int = 2000) -> ExperimentReport:
    """'This example demonstrates a general principle': mobilise a second,
    independently written robot (BFS Checkbot) with the unchanged
    wrapper and compare findings and cost against the Webbot."""
    from repro.mining.generality import run_checkbot_mobile

    report = ExperimentReport(
        "G1", "Generality: two different COTS robots under the same "
        "mobility wrapper (paper workload, 100 Mbit LAN)")
    report.headers = ["robot", "elapsed_s", "remote_bytes", "pages",
                      "distinct_dead"]

    spec = paper_site_spec(seed=seed)
    testbed = build_linkcheck_testbed(spec=spec)
    site = testbed.site_of(spec.host)
    webbot = run_mobile(testbed, [CrawlTask.for_site(site,
                                                     max_depth=10_000)])
    webbot_dead = {record["url"] for rep in webbot.reports
                   for record in rep["invalid"]}
    report.add_row("Webbot (DFS, prefix, 2nd pass)",
                   webbot.elapsed_seconds, webbot.remote_bytes,
                   webbot.pages_scanned, len(webbot_dead))

    testbed2 = build_linkcheck_testbed(spec=spec)
    checkbot = run_checkbot_mobile(testbed2, spec.host)
    checkbot_dead = {record["url"] for rep in checkbot.reports
                     for record in rep["invalid"]}
    report.add_row("Checkbot (BFS, host list, inline)",
                   checkbot.elapsed_seconds, checkbot.remote_bytes,
                   checkbot.pages_scanned, len(checkbot_dead))

    report.extras["agreement"] = webbot_dead == checkbot_dead
    report.add_claim(
        "the wrapper mobilises a general class of stationary mining "
        "applications: a second robot ships unchanged and finds the "
        "same dead links",
        f"distinct dead URLs: webbot={len(webbot_dead)}, "
        f"checkbot={len(checkbot_dead)}, identical="
        f"{webbot_dead == checkbot_dead}",
        webbot_dead == checkbot_dead and len(webbot_dead) > 0)
    return report


# -- R1: checkpointing overhead (fault-tolerance ablation) -------------------------------------------


def run_r1(n_servers: int = 3, pages_per_server: int = 150,
           seed: int = 2000) -> ExperimentReport:
    """What does carrying the checkpoint wrapper cost?

    The fault.py wrapper snapshots the agent's whole briefcase to a home
    cabinet at every arrival/departure.  This ablation runs the campus
    itinerary with and without it and prices the insurance in time and
    bytes; the recovery path itself is exercised by the integration
    tests.
    """
    from repro.wrappers.fault import CheckpointWrapper
    from repro.wrappers.stack import WrapperSpec

    report = ExperimentReport(
        "R1", "Ablation: checkpoint-to-cabinet wrapper on the campus "
        "itinerary (insurance cost in time and bytes)")
    report.headers = ["variant", "elapsed_s", "remote_bytes",
                      "dead_links"]

    def fresh():
        return build_campus_testbed(n_servers=n_servers,
                                    pages_per_server=pages_per_server,
                                    seed=seed)

    testbed = fresh()
    tasks = [CrawlTask.for_site(testbed.sites[name])
             for name in sorted(testbed.sites)]
    bare = run_mobile(testbed, tasks)
    report.add_row("no-checkpointing", bare.elapsed_seconds,
                   bare.remote_bytes, bare.dead_links_found)

    testbed2 = fresh()
    tasks2 = [CrawlTask.for_site(testbed2.sites[name])
              for name in sorted(testbed2.sites)]
    cabinet_uri = (f"tacoma://{testbed2.client.host.name}"
                   "//ag_cabinet")
    spec = WrapperSpec.by_ref(CheckpointWrapper, {
        "cabinet": cabinet_uri, "drawer": "r1-audit",
        "on": ["arrive"]})
    insured = run_mobile(testbed2, tasks2, extra_wrappers=[spec])
    report.add_row("checkpoint-per-hop", insured.elapsed_seconds,
                   insured.remote_bytes, insured.dead_links_found)

    time_overhead = insured.elapsed_seconds / bare.elapsed_seconds - 1
    byte_overhead = insured.remote_bytes / max(bare.remote_bytes, 1) - 1
    report.extras["time_overhead"] = time_overhead
    report.extras["byte_overhead"] = byte_overhead
    report.add_claim(
        "per-hop checkpointing is cheap in time (asynchronous posts) but "
        "pays real bytes (the briefcase travels home once per hop)",
        f"time +{time_overhead:.1%}, bytes +{byte_overhead:.1%}, same "
        f"findings ({insured.dead_links_found})",
        time_overhead < 0.10 and byte_overhead > 0.10 and
        insured.dead_links_found == bare.dead_links_found)
    return report


# -- M1: analytic model vs simulation ---------------------------------------------------------------


def run_m1(seed: int = 2000) -> ExperimentReport:
    """Validate the first-order cost model (repro.bench.model) against
    the simulation across the bandwidth sweep, and report the predicted
    crossover below which going mobile pays."""
    from repro.bench import model as cost_model
    from repro.mining.webbot_agent import build_webbot_program
    from repro.firewall.auth import KeyChain

    report = ExperimentReport(
        "M1", "Analytic cost model vs simulation (scan-only crawl): "
        "predicted and measured times per network")
    report.headers = ["network", "strategy", "measured_s", "predicted_s",
                      "rel_error"]

    keychain = KeyChain()
    keychain.create_key(WEBBOT_PRINCIPAL)
    program_bytes = build_webbot_program(keychain).size
    machine = cost_model.MachineParams()

    errors: List[float] = []
    networks = [("100Mbit-LAN", BANDWIDTH_100MBIT, LATENCY_LAN),
                ("10Mbit-metro", BANDWIDTH_10MBIT, LATENCY_METRO),
                ("1Mbit-WAN", BANDWIDTH_1MBIT, LATENCY_WAN)]
    for label, bandwidth, latency in networks:
        testbed = build_linkcheck_testbed(
            spec=paper_site_spec(seed=seed),
            bandwidth=bandwidth, latency=latency)
        task = _task_for(testbed, "www.cs.uit.no", check_rejected=False)
        stationary = run_stationary(testbed, [task])
        mobile = run_mobile(testbed, [task])

        crawl = stationary.reports[0]
        invalid = len(crawl.get("invalid", ()))
        workload = cost_model.CrawlWorkload(
            pages=crawl["pages_scanned"],
            total_page_bytes=crawl["bytes_scanned"],
            requests_per_page=1 + invalid / max(crawl["pages_scanned"], 1))
        link = cost_model.LinkParams(latency, bandwidth)
        agent = cost_model.AgentParams(
            agent_bytes=program_bytes + 6_000,
            report_bytes=invalid * 200 + 1_000)

        predicted = {
            "stationary": cost_model.stationary_seconds(workload, link,
                                                        machine),
            "mobile": cost_model.mobile_seconds(workload, link, machine,
                                                agent),
        }
        for metrics in (stationary, mobile):
            key = "stationary" if metrics.strategy == "stationary" \
                else "mobile"
            rel = abs(predicted[key] - metrics.elapsed_seconds) / \
                metrics.elapsed_seconds
            errors.append(rel)
            report.add_row(label, key, metrics.elapsed_seconds,
                           predicted[key], rel)

    worst = max(errors)
    report.extras["worst_rel_error"] = worst
    report.add_claim(
        "a first-order latency/bandwidth/CPU model explains the "
        "simulated results",
        f"worst relative error {worst:.1%} across "
        f"{len(errors)} (network, strategy) points",
        worst < 0.25)

    # Where does going mobile stop paying?  (Predicted, paper workload.)
    workload_paper = cost_model.CrawlWorkload(pages=820,
                                              total_page_bytes=2_900_000)
    crossover = cost_model.crossover_bandwidth(
        workload_paper, LATENCY_LAN, machine,
        cost_model.AgentParams(agent_bytes=program_bytes + 6_000))
    report.extras["crossover_bandwidth"] = crossover
    report.add_claim(
        "at the paper's scale the mobile agent wins at any realistic "
        "bandwidth (the CPU is the same on both sides; the network cost "
        "is pure overhead)",
        f"predicted crossover bandwidth {crossover:.3g} B/s",
        crossover >= BANDWIDTH_100MBIT)
    return report


# -- R2: fault injection and end-to-end recovery ----------------------------------------------------


def run_e_fault(seed: int = 7) -> ExperimentReport:
    """Robustness: a mid-itinerary host crash, with and without the
    recovery kit (heartbeat monitor + checkpoint wrapper + transport
    retries + rear guard).

    Without recovery the crash silently eats the agent and the run times
    out with nothing; with it the rear guard relaunches the last
    checkpoint at home, the itinerary skips the dead host (reporting it
    unreachable) and every surviving site is still mined.  The insurance
    is priced in bytes on the wire.
    """
    from repro.chaos.scenario import run_chaos

    report = ExperimentReport(
        "R2", "Fault injection: mid-itinerary host crash — completion "
        "with vs without rear-guard recovery")
    report.headers = ["variant", "sites_visited", "completion_rate",
                      "unreachable", "relaunches", "remote_bytes",
                      "elapsed_s"]

    rows = {}
    for variant, recovery in (("no-recovery", False),
                              ("rear-guard-recovery", True)):
        document = run_chaos(seed=seed, plan="mid-crash",
                             recovery=recovery)
        agent = document["agent"]
        planned = agent["sites_planned"]
        rows[variant] = (agent, document)
        report.add_row(
            variant, agent["sites_visited"],
            agent["sites_visited"] / planned,
            ",".join(agent["unreachable_hosts"]) or "-",
            len(document["rear_guard"]["relaunches"]),
            document["stats"]["remote_bytes"],
            document["elapsed"])

    bare, bare_doc = rows["no-recovery"]
    insured, insured_doc = rows["rear-guard-recovery"]
    planned = insured["sites_planned"]
    byte_cost = insured_doc["stats"]["remote_bytes"] / \
        max(bare_doc["stats"]["remote_bytes"], 1)
    report.extras["byte_cost_factor"] = byte_cost
    report.extras["retries"] = insured_doc["stats"]["transport_retries"]
    report.add_claim(
        "a host crash kills the bare agent outright, while the recovery "
        "kit completes every surviving site and reports the dead host",
        f"bare: {bare['sites_visited']}/{planned} sites, timed out; "
        f"recovered: {insured['sites_visited']}/{planned} surviving "
        f"sites, {byte_cost:.1f}x bytes",
        bare["sites_visited"] == 0 and bare["timed_out"] and
        insured["sites_visited"] == planned - 1 and
        not insured["timed_out"] and
        len(insured["unreachable_hosts"]) == 1)
    return report


# -- R3: overload protection (admission control ablation) --------------------------------------------


def run_r3(seed: int = 7) -> ExperimentReport:
    """Robustness: one host flooded by N greedy principals, with and
    without the firewall governor.

    Ungoverned, the pending queue grows without bound (peak depth is the
    whole offered load) and every probe at a dead host is re-attempted
    forever.  Governed, the queue is capped, excess load is shed with
    *transient* rejections that sender retry policies absorb — the flood
    still completes — and the circuit breaker fast-fails the dead link.
    Poison wire buffers are quarantined in both modes (decoder
    hardening is unconditional).
    """
    from repro.bench.overload import run_overload

    report = ExperimentReport(
        "R3", "Overload protection: flooded host with vs without the "
        "firewall governor (admission control, bounded queues, breakers)")
    report.headers = ["variant", "completion_rate", "peak_queue_depth",
                      "sheds", "retries", "breaker_fast_fails",
                      "quarantined", "elapsed_s"]

    docs = {}
    for variant, governed in (("ungoverned", False), ("governed", True)):
        document = run_overload(seed=seed, governed=governed)
        docs[variant] = document
        sheds = document["stats"]["quota_rejected"] + \
            document["stats"]["queue_rejected"]
        report.add_row(
            variant, document["flood"]["completion_rate"],
            document["target"]["queue_peak_depth"], sheds,
            document["stats"]["transport_retries"],
            document["breaker"]["fast_failed"],
            document["target"]["quarantined"], document["elapsed"])

    bare, governed = docs["ungoverned"], docs["governed"]
    offered = bare["flood"]["offered"]
    queue_cap = governed["target"]["governor"]["queue_limits"][
        "max_messages"]
    report.extras["peak_depths"] = {
        "ungoverned": bare["target"]["queue_peak_depth"],
        "governed": governed["target"]["queue_peak_depth"]}
    report.add_claim(
        "without the governor the pending queue absorbs the entire "
        "offered load; with it, occupancy never exceeds the bound",
        f"peak depth {bare['target']['queue_peak_depth']} ungoverned vs "
        f"{governed['target']['queue_peak_depth']} governed "
        f"(bound {queue_cap}, offered {offered})",
        bare["target"]["queue_peak_depth"] >= offered and
        governed["target"]["queue_peak_depth"] <= queue_cap)
    report.add_claim(
        "governed shedding is transient: sender retries absorb every "
        "rejection and the flood still completes",
        f"completion {governed['flood']['completion_rate']:.0%} with "
        f"{governed['stats']['overload_rejections']} overload rejections "
        f"and {governed['stats']['transport_retries']} retries",
        governed["flood"]["completion_rate"] >= 0.95 and
        governed["stats"]["overload_rejections"] > 0 and
        governed["stats"]["transport_retries"] > 0)
    report.add_claim(
        "the circuit breaker fast-fails probes at the dead host instead "
        "of re-attempting the doomed link",
        f"fast-failed {governed['breaker']['fast_failed']} of "
        f"{governed['breaker']['probes']} probes (ungoverned: 0)",
        governed["breaker"]["fast_failed"] > 0 and
        bare["breaker"]["fast_failed"] == 0)
    report.add_claim(
        "no poison wire buffer crashes a firewall; hostile input is "
        "quarantined in both modes",
        f"quarantined {bare['target']['quarantined']} ungoverned, "
        f"{governed['target']['quarantined']} governed (the wire-limit "
        f"violation is only caught when governed)",
        bare["target"]["quarantined"] >= 2 and
        governed["target"]["quarantined"] >= 3)
    return report


EXPERIMENTS = {
    "E1": run_e1,
    "E2": run_e2,
    "E3": run_e3,
    "E4": run_e4,
    "E5": run_e5,
    "D1": run_d1,
    "G1": run_g1,
    "F3": run_f3,
    "F5": run_f5,
    "A1": run_a1,
    "M1": run_m1,
    "R1": run_r1,
    "R2": run_e_fault,
    "R3": run_r3,
}


#: Experiments whose driver takes a ``seed`` kwarg (the rest are pure
#: functions of their structural parameters).
SEEDED_EXPERIMENTS = frozenset({
    "E1", "E2", "E3", "E4", "E5", "A1", "D1", "F3", "G1", "M1", "R1",
    "R2", "R3",
})


def run_experiment(experiment_id: str, **kwargs) -> ExperimentReport:
    try:
        runner = EXPERIMENTS[experiment_id.upper()]
    except KeyError:
        raise KeyError(f"unknown experiment {experiment_id!r} "
                       f"(have {sorted(EXPERIMENTS)})") from None
    return runner(**kwargs)

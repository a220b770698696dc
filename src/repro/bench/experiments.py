"""The experiment suite: every quantitative artifact of the paper.

Each ``run_*`` function builds a fresh testbed, runs the strategies,
reads what the report needs and closes it, one world at a time, and
returns an :class:`~repro.bench.metrics.ExperimentReport` with the rows
the paper reports (or implies), the extras its claims read, and the
claims themselves: text plus checks over those extras, decided when the
report becomes a document.
See DESIGN.md section 2 for the experiment inventory.

All experiments are deterministic (seeded sites, virtual time).
"""

from __future__ import annotations

from functools import partial
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, TypeVar)

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
from repro.obs.telemetry import Telemetry
from repro.sim.network import (
    BANDWIDTH_1MBIT,
    BANDWIDTH_10MBIT,
    BANDWIDTH_100MBIT,
    LATENCY_LAN,
    LATENCY_METRO,
    LATENCY_WAN,
)
from repro.system.bootstrap import (
    Testbed,
    build_campus_testbed,
    build_linkcheck_testbed,
)
from repro.system.cluster import TaxCluster
from repro.vm import loader
from repro.web.site import SiteSpec, paper_site_spec
from repro.wrappers.logwrap import LoggingWrapper
from repro.wrappers.stack import WrapperSpec, install_wrappers

#: The paper workload's page count, and its mean page size (3 MB over
#: those pages).
PAPER_PAGES = 917
PAPER_BYTES_PER_PAGE = 3_000_000 // PAPER_PAGES

#: Network conditions for the E2 sweep: (label, bandwidth B/s, latency s).
E2_NETWORKS: List[Tuple[str, float, float]] = [
    ("100Mbit-LAN", BANDWIDTH_100MBIT, LATENCY_LAN),
    ("10Mbit-metro", BANDWIDTH_10MBIT, LATENCY_METRO),
    ("2Mbit-regional", 2_000_000 / 8, 0.020),
    ("1Mbit-WAN", BANDWIDTH_1MBIT, LATENCY_WAN),
    ("512Kbit-WAN", 512_000 / 8, 0.100),
]

#: Page counts for the E3 volume sweep.
E3_VOLUMES = (10, 50, 150, 450, PAPER_PAGES, 1500)


_T = TypeVar("_T")


def _in_world(build: Callable[..., Testbed], run: Callable[[Testbed], _T],
              **options) -> _T:
    """Return ``run`` of the testbed ``build(**options)`` makes, then
    close its world.

    ``run`` reads everything the report needs.  Nothing holds the world
    once this returns, so a driver has at most one alive at a time and
    leaves none to the cycle collector (the shape of ``run_overload``).
    """
    testbed = build(**options)
    try:
        return run(testbed)
    finally:
        testbed.cluster.close()


class _Crawl(NamedTuple):
    """One linkcheck world's yield, read before its close."""

    stationary: RunMetrics
    mobile: RunMetrics
    site_bytes: int
    #: The metrics snapshot when the world ran under telemetry.
    telemetry: Optional[dict]


def _crawl_both_ways(spec: SiteSpec, check_rejected: bool = True,
                     telemetry: bool = False, **network) -> _Crawl:
    """Crawl ``spec``'s site stationary, then mobile, on one fresh
    linkcheck testbed (``network`` sets its client-server link)."""
    hub = Telemetry(enabled=True) if telemetry else None

    def both(testbed: Testbed) -> _Crawl:
        task = CrawlTask.for_site(testbed.site_of(spec.host),
                                  check_rejected=check_rejected)
        stationary = run_stationary(testbed, [task])
        mobile = run_mobile(testbed, [task])
        return _Crawl(stationary, mobile,
                      testbed.site_of(spec.host).total_bytes,
                      hub.snapshot() if hub is not None else None)

    return _in_world(build_linkcheck_testbed, both, spec=spec,
                     telemetry=hub, **network)


def _audit_campus(strategy: Callable[..., RunMetrics], n_servers: int,
                  pages_per_server: int, seed: int) -> RunMetrics:
    """Audit a fresh campus with ``strategy(testbed, tasks)``, one task
    per site in name order."""
    def audit(testbed: Testbed) -> RunMetrics:
        return strategy(testbed, [CrawlTask.for_site(testbed.sites[name])
                                  for name in sorted(testbed.sites)])

    return _in_world(build_campus_testbed, audit, n_servers=n_servers,
                     pages_per_server=pages_per_server, seed=seed)


def _speedup(stationary: RunMetrics, mobile: RunMetrics) -> float:
    return stationary.elapsed_seconds / mobile.elapsed_seconds


def _versus(baseline: RunMetrics, contender: RunMetrics) -> Dict[str, object]:
    """What a pairwise claim checks: ``contender``'s speedup and byte
    ratio over ``baseline``, and whether both find the same dead links."""
    return {"speedup": _speedup(baseline, contender),
            "byte_ratio": baseline.remote_bytes / contender.remote_bytes,
            "dead_links_agree":
                baseline.dead_links_found == contender.dead_links_found}


def _increasing(values: Sequence[float]) -> bool:
    return all(b >= a for a, b in zip(values, values[1:]))


def _sweep_extras(report: ExperimentReport, speedups: List[float]) -> None:
    """A sweep's speedups and the shape its claims check: monotone, the
    end points, and the last over the first."""
    report.extras.update(
        speedups=speedups, speedups_monotone=_increasing(speedups),
        first_speedup=speedups[0], last_speedup=speedups[-1],
        speedup_growth=speedups[-1] / speedups[0])


# -- E1: the Section-5 headline experiment -----------------------------------------


def run_e1(seed: int = 2000, telemetry: bool = False) -> ExperimentReport:
    """917 pages / 3 MB on a 100 Mbit LAN: mobile vs stationary Webbot.

    With ``telemetry=True`` each mode runs under an enabled
    :class:`~repro.obs.telemetry.Telemetry` and the report's extras gain
    a per-mode metrics snapshot (``extras["telemetry"][mode]``).
    """
    report = ExperimentReport(
        "E1", "Section 5: local (mobile) vs remote (stationary) Webbot "
        "scan of 917 pages / 3 MB over 100 Mbit")
    report.headers = ["mode", "strategy", "elapsed_s", "remote_bytes",
                      "pages", "dead_links"]

    versus: Dict[str, Dict[str, object]] = {}
    snapshots: Dict[str, dict] = {}
    same_pages = True
    for mode, check_rejected in (("full-task", True), ("scan-only", False)):
        crawl = _crawl_both_ways(paper_site_spec(seed=seed),
                                 check_rejected=check_rejected,
                                 telemetry=telemetry)
        stationary, mobile = crawl.stationary, crawl.mobile
        for metrics in (stationary, mobile):
            report.add_row(mode, metrics.strategy, metrics.elapsed_seconds,
                           metrics.remote_bytes, metrics.pages_scanned,
                           metrics.dead_links_found)
        versus[mode] = _versus(stationary, mobile)
        same_pages &= stationary.pages_scanned == mobile.pages_scanned
        if crawl.telemetry is not None:
            snapshots[mode] = crawl.telemetry

    if snapshots:
        report.extras["telemetry"] = snapshots
    full, scan = versus["full-task"], versus["scan-only"]
    report.extras.update(
        ratio_full_task=full["speedup"], ratio_scan_only=scan["speedup"],
        dead_links_agree=full["dead_links_agree"] and
        scan["dead_links_agree"],
        pages_agree=same_pages, byte_ratio=full["byte_ratio"])
    report.add_claim(
        "executing the scan locally is 16% faster than over a "
        "100 Mbit network (ratio 1.16)",
        "ratio_full_task>=1.05", "ratio_full_task<=1.35")
    report.add_claim(
        "both deployments scan the same pages and find the same dead "
        "links",
        "dead_links_agree", "pages_agree")
    report.add_claim(
        "the mobile agent moves an order of magnitude fewer bytes over "
        "the network",
        "byte_ratio>10")
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
        crawl = _crawl_both_ways(paper_site_spec(seed=seed),
                                 bandwidth=bandwidth, latency=latency)
        speedup = _speedup(crawl.stationary, crawl.mobile)
        speedups.append(speedup)
        report.add_row(label, crawl.stationary.elapsed_seconds,
                       crawl.mobile.elapsed_seconds, speedup)
    _sweep_extras(report, speedups)
    report.add_claim(
        "mobile speedup grows monotonically as bandwidth falls / "
        "latency rises: modest on the LAN, an order of magnitude over "
        "a WAN",
        "speedups_monotone", "speedup_growth>1.5", "first_speedup<1.5",
        "last_speedup>10")
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
        crawl = _crawl_both_ways(spec, bandwidth=bandwidth, latency=latency)
        speedup = _speedup(crawl.stationary, crawl.mobile)
        speedups.append(speedup)
        report.add_row(n_pages, crawl.site_bytes,
                       crawl.stationary.elapsed_seconds,
                       crawl.mobile.elapsed_seconds, speedup,
                       crawl.mobile.remote_bytes)
        if n_pages == PAPER_PAGES:
            report.extras["paper_scale_speedup"] = speedup
    _sweep_extras(report, speedups)
    report.add_claim(
        "the gain grows with the mined volume (shipping the agent barely "
        "pays at small volumes, clearly pays at the paper's scale)",
        "speedup_growth>1", "last_speedup>1.05",
        "paper_scale_speedup>=1.05", "paper_scale_speedup<=1.35")
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

    campus = (n_servers, pages_per_server, seed)
    remote = _audit_campus(run_repeated_remote, *campus)
    report.add_row(remote.strategy, remote.elapsed_seconds,
                   remote.remote_bytes, remote.pages_scanned,
                   remote.dead_links_found, n_servers)

    itinerant = _audit_campus(run_mobile, *campus)
    report.add_row(itinerant.strategy, itinerant.elapsed_seconds,
                   itinerant.remote_bytes, itinerant.pages_scanned,
                   itinerant.dead_links_found, n_servers)

    report.extras.update(_versus(remote, itinerant))
    report.add_claim(
        "one itinerant agent beats repeatedly crawling each server over "
        "the wide-area link",
        "speedup>2", "byte_ratio>5", "dead_links_agree")
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


def _launch_each_payload(report: ExperimentReport) -> Dict[str, float]:
    """F3's world: launch the probe once per payload kind, client to
    server, one row per launch; returns the latencies and closes it."""
    cluster = TaxCluster()
    try:
        cluster.add_principal(WEBBOT_PRINCIPAL, trusted=True)
        client = cluster.add_node("client.uit.no")
        server = cluster.add_node("server.uit.no")
        cluster.network.link("client.uit.no", "server.uit.no",
                             latency=LATENCY_LAN,
                             bandwidth=BANDWIDTH_100MBIT)
        driver = client.driver(principal=WEBBOT_PRINCIPAL)

        source_payload = loader.pack_source(_trivial_agent_source(),
                                            "chain_probe")
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

        latencies: Dict[str, float] = {}
        for label, vm, payload in cases:
            briefcase = Briefcase()
            loader.install_payload(briefcase, payload, agent_name="probe")
            briefcase.put("HOME", str(driver.uri))

            def scenario(briefcase=briefcase, vm=vm):
                start = cluster.kernel.now
                yield from driver.launch(
                    cluster.vm_uri("server.uit.no", vm), briefcase,
                    timeout=600)
                launch_latency = cluster.kernel.now - start
                yield from driver.recv(timeout=600)  # the probe's TRAIL
                return launch_latency

            latency = cluster.run(scenario(), name=f"f3-{label}")
            latencies[label] = latency
            exec_uses = server.services["ag_exec"].executions
            cc_uses = server.services["ag_cc"].requests_handled
            report.add_row(label, vm, latency, payload.size,
                           f"ag_cc={cc_uses} ag_exec_runs={exec_uses}")
        return latencies
    finally:
        cluster.close()


def run_f3(seed: int = 2000) -> ExperimentReport:
    """Figure 3: latency of launching the same agent as py-ref /
    py-marshal / signed binary / source-via-compile-chain."""
    report = ExperimentReport(
        "F3", "Figure 3: remote activation latency by payload kind "
        "(vm_python vs vm_bin vs the vm_source compile chain)")
    report.headers = ["payload", "vm", "launch_latency_s",
                      "payload_bytes", "chain_services_used"]

    latencies = _launch_each_payload(report)
    report.extras["latencies"] = latencies
    marshal = latencies["py-marshal"]
    report.extras.update(
        source_over_marshal=latencies["py-source"] / marshal,
        binary_over_marshal=latencies["binary(signed)"] / marshal,
        ref_over_marshal=latencies["py-ref"] / marshal)
    report.add_claim(
        "the compile-at-destination chain (Figure 3) works and costs "
        "more than launching a pre-compiled payload",
        "source_over_marshal>1")
    report.add_claim(
        "signed-binary launch (vm_bin) is competitive with vm_python, "
        "as is launching installed code (py-ref)",
        "binary_over_marshal<3", "ref_over_marshal<=1.5")
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


def _mean_roundtrip(depth: int, round_trips: int) -> float:
    """F5's world for one stack depth: the echo agent under ``depth``
    logging wrappers; returns the mean meet() round trip and closes it."""
    cluster = TaxCluster()
    try:
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

        return cluster.run(scenario(), name=f"f5-depth{depth}")
    finally:
        cluster.close()


def run_f5(depths: Sequence[int] = (0, 1, 2, 4, 8),
           round_trips: int = 50) -> ExperimentReport:
    """Figure 5 / section 4: cost of stacking wrappers 'in arbitrary
    depth' — per-message overhead per layer."""
    report = ExperimentReport(
        "F5", "Wrapper stack ablation: meet() round-trip latency vs "
        "stack depth (logging wrappers)")
    report.headers = ["stack_depth", "mean_roundtrip_s", "overhead_vs_0"]

    means: List[float] = []
    for depth in depths:
        mean = _mean_roundtrip(depth, round_trips)
        means.append(mean)
        report.add_row(depth, mean, mean - means[0])

    # Linear stacking: each step's increment is the per-layer cost times
    # its depth step; the worst relative miss is the linearity error.
    per_layer = (means[-1] - means[0]) / (depths[-1] - depths[0])
    report.extras.update(
        means=list(means), means_monotone=_increasing(means),
        depth_cost_ratio=means[-1] / means[0], per_layer_cost=per_layer)
    if per_layer > 0:
        report.extras["linearity_error"] = max(
            abs((b - a) / (d1 - d0) - per_layer) / per_layer
            for a, b, d0, d1 in zip(means, means[1:], depths, depths[1:]))
    report.add_claim(
        "wrappers can be stacked in arbitrary depth at modest, linear "
        "per-layer cost (deepest stack < 2x the bare agent)",
        "means_monotone", "depth_cost_ratio<2.0", "per_layer_cost>0",
        "linearity_error<=0.25")
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
    dead: Dict[str, int] = {}
    spec = paper_site_spec(seed=seed)
    for label, strategy in (
            ("stationary", run_stationary),
            ("mobile-condensed", partial(run_mobile, condense=True)),
            ("mobile-raw", partial(run_mobile, condense=False))):
        metrics = _in_world(
            build_linkcheck_testbed,
            lambda testbed: strategy(testbed, [CrawlTask.for_site(
                testbed.site_of(spec.host))]),
            spec=spec, bandwidth=BANDWIDTH_1MBIT, latency=LATENCY_WAN)
        rows[label] = metrics
        dead[label] = metrics.dead_links_found if label != "mobile-raw" \
            else sum(len(r.get("invalid", ())) +
                     len(r.get("second_pass_invalid", ()))
                     for r in metrics.reports)
        report.add_row(label, metrics.elapsed_seconds,
                       metrics.remote_bytes, dead[label])

    condensed = rows["mobile-condensed"]
    raw = rows["mobile-raw"]
    stationary = rows["stationary"]
    report.extras.update(
        condensation_factor=raw.remote_bytes / condensed.remote_bytes,
        dead_links_agree=dead["mobile-condensed"] == dead["mobile-raw"],
        raw_speedup=_speedup(stationary, raw),
        raw_byte_ratio=stationary.remote_bytes / raw.remote_bytes)
    report.add_claim(
        "condensing before shipping saves bytes (briefcase state "
        "dropping, section 3.1) and loses no finding",
        "condensation_factor>2", "dead_links_agree")
    report.add_claim(
        "even the un-condensed mobile agent beats pulling raw pages, in "
        "time and in bytes",
        "raw_speedup>1", "raw_byte_ratio>1")
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

    campus = (n_servers, pages_per_server, seed)
    sequential = _audit_campus(run_mobile, *campus)
    report.add_row(sequential.strategy, sequential.elapsed_seconds,
                   sequential.remote_bytes, sequential.pages_scanned,
                   sequential.dead_links_found)

    parallel = _audit_campus(run_parallel_mobile, *campus)
    report.add_row(parallel.strategy, parallel.elapsed_seconds,
                   parallel.remote_bytes, parallel.pages_scanned,
                   parallel.dead_links_found)

    report.extras.update(_versus(sequential, parallel))
    # Better than half the ideal speedup of one clone per server, and
    # never above it.
    report.add_claim(
        "forking one clone per server turns the audit's completion time "
        "from the sum of the crawls into (roughly) the slowest one",
        f"speedup>{n_servers * 0.5}", f"speedup<={float(n_servers)}",
        "dead_links_agree")
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

    spec = paper_site_spec(seed=seed)

    def mine(testbed: Testbed, n_requests: int):
        site = testbed.site_of(spec.host)
        log_text = generate_access_log(site, n_requests, seed=seed)
        publish_log(site, log_text)
        return (len(log_text.encode()),
                run_log_stationary(testbed, spec.host),
                run_log_mobile(testbed, spec.host))

    speedups: List[float] = []
    mobile_bytes: List[int] = []
    agree = True
    for n_requests in log_sizes:
        log_bytes, stationary, mobile = _in_world(
            build_linkcheck_testbed, partial(mine, n_requests=n_requests),
            spec=spec, bandwidth=BANDWIDTH_1MBIT, latency=LATENCY_WAN)
        speedup = _speedup(stationary, mobile)
        speedups.append(speedup)
        agree &= all(stationary.reports[0].get(key) ==
                     mobile.reports[0].get(key)
                     for key in ("hits", "unique_visitors", "bytes_served",
                                 "top_pages"))
        report.add_row(n_requests, log_bytes,
                       stationary.elapsed_seconds, mobile.elapsed_seconds,
                       speedup, mobile.remote_bytes)
        mobile_bytes.append(mobile.remote_bytes)

    _sweep_extras(report, speedups)
    report.extras.update(
        aggregates_agree=agree,
        mobile_bytes_spread=max(mobile_bytes) / min(mobile_bytes))
    report.add_claim(
        "the wrapper mobilises a second, very different stationary "
        "mining program unchanged, with identical results",
        "aggregates_agree")
    report.add_claim(
        "with an extreme condensation ratio the mobile win dwarfs the "
        "Webbot case and grows with the data, while the agent's own "
        "bytes stay flat",
        "speedups_monotone", "last_speedup>5", "mobile_bytes_spread<1.2")
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
    webbot = _in_world(
        build_linkcheck_testbed,
        lambda testbed: run_mobile(testbed, [CrawlTask.for_site(
            testbed.site_of(spec.host), max_depth=10_000)]),
        spec=spec)
    webbot_dead = {record["url"] for rep in webbot.reports
                   for record in rep["invalid"]}
    report.add_row("Webbot (DFS, prefix, 2nd pass)",
                   webbot.elapsed_seconds, webbot.remote_bytes,
                   webbot.pages_scanned, len(webbot_dead))

    checkbot = _in_world(
        build_linkcheck_testbed,
        lambda testbed: run_checkbot_mobile(testbed, spec.host), spec=spec)
    checkbot_dead = {record["url"] for rep in checkbot.reports
                     for record in rep["invalid"]}
    report.add_row("Checkbot (BFS, host list, inline)",
                   checkbot.elapsed_seconds, checkbot.remote_bytes,
                   checkbot.pages_scanned, len(checkbot_dead))

    report.extras.update(
        agreement=webbot_dead == checkbot_dead,
        distinct_dead=len(webbot_dead),
        pages_agree=checkbot.pages_scanned == webbot.pages_scanned,
        time_ratio=checkbot.elapsed_seconds / webbot.elapsed_seconds)
    report.add_claim(
        "the wrapper mobilises a general class of stationary mining "
        "applications: a second robot ships unchanged, scans the same "
        "pages in comparable time and finds the same dead links",
        "agreement", "distinct_dead>0", "pages_agree", "time_ratio>0.5",
        "time_ratio<2.0")
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

    report = ExperimentReport(
        "R1", "Ablation: checkpoint-to-cabinet wrapper on the campus "
        "itinerary (insurance cost in time and bytes)")
    report.headers = ["variant", "elapsed_s", "remote_bytes",
                      "dead_links"]

    def insured_mobile(testbed: Testbed, tasks) -> RunMetrics:
        cabinet_uri = (f"tacoma://{testbed.client.host.name}"
                       "//ag_cabinet")
        spec = WrapperSpec.by_ref(CheckpointWrapper, {
            "cabinet": cabinet_uri, "drawer": "r1-audit",
            "on": ["arrive"]})
        return run_mobile(testbed, tasks, extra_wrappers=[spec])

    campus = (n_servers, pages_per_server, seed)
    bare = _audit_campus(run_mobile, *campus)
    report.add_row("no-checkpointing", bare.elapsed_seconds,
                   bare.remote_bytes, bare.dead_links_found)

    insured = _audit_campus(insured_mobile, *campus)
    report.add_row("checkpoint-per-hop", insured.elapsed_seconds,
                   insured.remote_bytes, insured.dead_links_found)

    report.extras.update(
        time_overhead=insured.elapsed_seconds / bare.elapsed_seconds - 1,
        byte_overhead=insured.remote_bytes / max(bare.remote_bytes, 1) - 1,
        dead_links_agree=insured.dead_links_found == bare.dead_links_found)
    report.add_claim(
        "per-hop checkpointing is cheap in time (asynchronous posts) but "
        "pays real bytes (the briefcase travels home once per hop)",
        "time_overhead<0.1", "byte_overhead>0.1", "dead_links_agree")
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
        stationary, mobile, _, _ = _crawl_both_ways(
            paper_site_spec(seed=seed), check_rejected=False,
            bandwidth=bandwidth, latency=latency)

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

    report.extras["worst_rel_error"] = max(errors)
    report.add_claim(
        "a first-order latency/bandwidth/CPU model explains the "
        "simulated results",
        "worst_rel_error<0.25")

    # Where does going mobile stop paying?  (Predicted, paper workload.)
    workload_paper = cost_model.CrawlWorkload(pages=820,
                                              total_page_bytes=2_900_000)
    crossover = cost_model.crossover_bandwidth(
        workload_paper, LATENCY_LAN, machine,
        cost_model.AgentParams(agent_bytes=program_bytes + 6_000))
    report.extras["crossover_bandwidth"] = crossover
    # Above the fastest simulated link: mobile wins on every one.
    report.add_claim(
        "at the paper's scale the mobile agent wins at any realistic "
        "bandwidth (the CPU is the same on both sides; the network cost "
        "is pure overhead)",
        f"crossover_bandwidth>{BANDWIDTH_100MBIT}")
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
    report.extras["byte_cost_factor"] = \
        insured_doc["stats"]["remote_bytes"] / \
        max(bare_doc["stats"]["remote_bytes"], 1)
    report.extras["retries"] = insured_doc["stats"]["transport_retries"]
    report.extras["bare"] = {"sites_visited": bare["sites_visited"],
                             "timed_out": bare["timed_out"]}
    report.extras["recovered"] = {
        "sites_missed": insured["sites_planned"] - insured["sites_visited"],
        "timed_out": insured["timed_out"],
        "unreachable": len(insured["unreachable_hosts"])}
    report.add_claim(
        "a host crash kills the bare agent outright, while the recovery "
        "kit completes every surviving site and reports the dead host",
        "bare.sites_visited==0", "bare.timed_out",
        "recovered.sites_missed==1", "!recovered.timed_out",
        "recovered.unreachable==1")
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
    report.extras["peak_depths"] = {
        "ungoverned": bare["target"]["queue_peak_depth"],
        "governed": governed["target"]["queue_peak_depth"]}
    for variant, document in docs.items():
        report.extras[variant] = {
            "completion_rate": document["flood"]["completion_rate"],
            "overload_rejections": document["stats"]["overload_rejections"],
            "transport_retries": document["stats"]["transport_retries"],
            "fast_failed": document["breaker"]["fast_failed"],
            "quarantined": document["target"]["quarantined"]}
    # Peak occupancy over the whole offered load (ungoverned) and over
    # the queue bound (governed).
    report.extras["ungoverned"]["peak_per_offered"] = \
        bare["target"]["queue_peak_depth"] / bare["flood"]["offered"]
    report.extras["governed"]["peak_per_bound"] = \
        governed["target"]["queue_peak_depth"] / \
        governed["target"]["governor"]["queue_limits"]["max_messages"]
    report.add_claim(
        "without the governor the pending queue absorbs the entire "
        "offered load; with it, occupancy never exceeds the bound",
        "ungoverned.peak_per_offered>=1", "governed.peak_per_bound<=1")
    report.add_claim(
        "governed shedding is transient: sender retries absorb every "
        "rejection and the flood still completes",
        "governed.completion_rate>=0.95", "governed.overload_rejections>0",
        "governed.transport_retries>0")
    report.add_claim(
        "the circuit breaker fast-fails probes at the dead host instead "
        "of re-attempting the doomed link",
        "governed.fast_failed>0", "ungoverned.fast_failed==0")
    report.add_claim(
        "no poison wire buffer crashes a firewall; hostile input is "
        "quarantined in both modes",
        "ungoverned.quarantined>=2", "governed.quarantined>=3")
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
    return EXPERIMENTS[experiment_id.upper()](**kwargs)

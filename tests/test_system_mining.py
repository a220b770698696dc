"""Tests for the deployment layer and the mining strategies."""

import pytest

from repro.core.errors import TaxError
from repro.mining.strategies import (
    CrawlTask,
    run_mobile,
    run_repeated_remote,
    run_stationary,
)
from repro.mining.webbot_agent import (
    build_webbot_program,
    build_webbot_program_source,
    condense_webbot_result,
    crawl_args,
)
from repro.system.bootstrap import build_campus_testbed, \
    build_linkcheck_testbed
from repro.system.cluster import TaxCluster
from repro.vm import loader
from tests.conftest import small_site_spec


class TestCluster:
    def test_nodes_boot_with_standard_agents(self, single_cluster):
        node = single_cluster.node("solo.test")
        assert set(node.vms) == {"vm_python", "vm_source", "vm_bin",
                                 "vm_pickle"}
        assert {"ag_exec", "ag_cc", "ag_fs", "ag_cabinet", "ag_cron",
                "ag_locator", "firewall"} <= set(node.services)

    def test_duplicate_node_rejected(self, single_cluster):
        with pytest.raises(ValueError):
            single_cluster.add_node("solo.test")

    def test_unknown_node_lookup(self, single_cluster):
        with pytest.raises(KeyError):
            single_cluster.node("ghost")
        with pytest.raises(KeyError):
            single_cluster.vm_uri("ghost")

    def test_principal_propagates_to_existing_nodes(self, pair_cluster):
        pair_cluster.add_principal("late-principal", trusted=True)
        for name in ("alpha.test", "beta.test"):
            store = pair_cluster.node(name).firewall.trust_store
            assert store.is_trusted("late-principal")

    def test_principal_available_to_new_nodes(self, single_cluster):
        single_cluster.add_principal("early", trusted=True)
        node = single_cluster.add_node("later.test")
        assert node.firewall.trust_store.is_trusted("early")

    def test_vm_uri_shape(self, single_cluster):
        assert str(single_cluster.vm_uri("solo.test", "vm_bin")) == \
            "tacoma://solo.test//vm_bin"

    def test_site_ordinals_distinct_instances(self, pair_cluster):
        a = pair_cluster.node("alpha.test").firewall.instances
        b = pair_cluster.node("beta.test").firewall.instances
        assert a.next_instance() != b.next_instance()


class TestTestbeds:
    def test_linkcheck_testbed_layout(self, small_testbed):
        assert small_testbed.client.host.name == "client.cs.uit.no"
        assert small_testbed.server.host.name == "www.cs.uit.no"
        assert "www.cs.uit.no" in small_testbed.sites
        # External hosts answer HTTP but run no TAX node.
        from repro.web import urls
        assert small_testbed.deployment.resolve(
            urls.parse("http://www.w3.org/")) is not None
        assert "www.w3.org" not in small_testbed.cluster.nodes

    def test_campus_testbed_layout(self):
        testbed = build_campus_testbed(n_servers=2, pages_per_server=10,
                                       bytes_per_server=20_000)
        assert len(testbed.servers) == 2
        assert len(testbed.sites) == 2
        for node in testbed.servers:
            assert node.host.name in testbed.sites

    def test_campus_needs_servers(self):
        with pytest.raises(ValueError):
            build_campus_testbed(n_servers=0)


class TestWebbotProgram:
    def test_linked_source_compiles_standalone(self):
        source = build_webbot_program_source()
        namespace = {}
        exec(compile(source, "<linked>", "exec"), namespace)  # noqa: S102
        assert "run_link_audit" in namespace
        assert "Webbot" in namespace and "validate_rejected" in namespace

    def test_future_imports_hoisted(self):
        source = build_webbot_program_source()
        body = source.split("\n", 3)
        # No __future__ import may appear after non-import code.
        lines = source.splitlines()
        future_lines = [i for i, line in enumerate(lines)
                        if line.startswith("from __future__")]
        assert all(i < 5 for i in future_lines)
        del body

    def test_program_signed_per_arch(self):
        cluster = TaxCluster()
        cluster.add_principal("tacomaproject", trusted=True)
        payload = build_webbot_program(cluster.keychain,
                                       archs=("x86-unix", "arm-linux"))
        assert payload.kind == loader.KIND_BINARY
        assert {b.arch for b in loader.list_binaries(payload)} == \
            {"x86-unix", "arm-linux"}

    def test_condense_shrinks_result(self):
        raw = {
            "start_url": "http://s/", "pages_scanned": 5,
            "bytes_scanned": 100, "links_seen": 9,
            "invalid": [{"url": "http://s/x", "referrer": "http://s/",
                         "reason": "http", "status": 404}],
            "rejected": [{"url": f"http://e/{i}", "referrer": "http://s/",
                          "reason": "prefix"} for i in range(100)],
            "second_pass_invalid": [],
        }
        condensed = condense_webbot_result(raw, crawl_args("http://s/"))
        assert "rejected" not in condensed
        assert condensed["pages_scanned"] == 5
        assert len(condensed["invalid"]) == 1

    def test_crawl_args_shape(self):
        args = crawl_args("http://s/", prefix="http://s/", max_depth=4,
                          max_pages=10)
        assert args["max_pages"] == 10 and args["max_depth"] == 4


class TestStrategies:
    def test_stationary_and_mobile_agree_on_findings(self, small_testbed):
        task = CrawlTask.for_site(small_testbed.site_of("www.cs.uit.no"))
        stationary = run_stationary(small_testbed, [task])
        mobile = run_mobile(small_testbed, [task])
        assert stationary.dead_links_found == mobile.dead_links_found > 0
        assert stationary.pages_scanned == mobile.pages_scanned > 0

    def test_mobile_ships_fewer_bytes(self, small_testbed):
        task = CrawlTask.for_site(small_testbed.site_of("www.cs.uit.no"))
        stationary = run_stationary(small_testbed, [task])
        mobile = run_mobile(small_testbed, [task])
        assert mobile.remote_bytes < stationary.remote_bytes / 3

    def test_found_dead_links_subset_of_ground_truth(self, small_testbed):
        site = small_testbed.site_of("www.cs.uit.no")
        task = CrawlTask.for_site(site)
        metrics = run_stationary(small_testbed, [task])
        truth_urls = {href for _s, href in site.truth.dead_internal}
        truth_urls |= {href for _s, href in site.truth.dead_external}
        truth_full = set()
        for href in truth_urls:
            truth_full.add(href if href.startswith("http")
                           else f"http://{site.host}{href}")
        found = {record["url"]
                 for report in metrics.reports
                 for record in report["invalid"]}
        assert found and found <= truth_full

    def test_monitor_collects_itinerary(self, small_testbed):
        task = CrawlTask.for_site(small_testbed.site_of("www.cs.uit.no"))
        mobile = run_mobile(small_testbed, [task], monitor=True)
        hosts = [e["host"] for e in mobile.monitor_events]
        assert "client.cs.uit.no" in hosts and "www.cs.uit.no" in hosts

    def test_unreachable_server_recorded_as_failure(self):
        testbed = build_linkcheck_testbed(spec=small_site_spec())
        task = CrawlTask(site_host="no-such-server.test",
                         start_url="http://no-such-server.test/index.html")
        metrics = run_mobile(testbed, [task], timeout=100_000)
        assert metrics.reports == []
        assert len(metrics.failures) == 1
        assert metrics.failures[0]["phase"] == "go"

    def test_itinerant_visits_all_campus_servers(self):
        testbed = build_campus_testbed(n_servers=3, pages_per_server=15,
                                       bytes_per_server=30_000)
        tasks = [CrawlTask.for_site(testbed.sites[name])
                 for name in sorted(testbed.sites)]
        itinerant = run_mobile(testbed, tasks)
        assert len(itinerant.reports) == 3
        assert {r["site"] for r in itinerant.reports} == set(testbed.sites)

    def test_repeated_remote_matches_itinerant_findings(self):
        testbed = build_campus_testbed(n_servers=2, pages_per_server=15,
                                       bytes_per_server=30_000)
        tasks = [CrawlTask.for_site(testbed.sites[name])
                 for name in sorted(testbed.sites)]
        remote = run_repeated_remote(testbed, tasks)
        testbed2 = build_campus_testbed(n_servers=2, pages_per_server=15,
                                        bytes_per_server=30_000)
        tasks2 = [CrawlTask.for_site(testbed2.sites[name])
                  for name in sorted(testbed2.sites)]
        itinerant = run_mobile(testbed2, tasks2)
        assert remote.dead_links_found == itinerant.dead_links_found

    def test_summary_row_renders(self, small_testbed):
        task = CrawlTask.for_site(small_testbed.site_of("www.cs.uit.no"))
        metrics = run_stationary(small_testbed, [task])
        row = metrics.summary_row()
        assert "stationary" in row and "dead=" in row


class TestBootstrapDetails:
    def test_external_hosts_reachable_from_both_sides(self, small_testbed):
        network = small_testbed.network
        for ext in ("www.w3.org", "www.cornell.edu"):
            assert network.transfer_time("client.cs.uit.no", ext, 0) > 0
            assert network.transfer_time("www.cs.uit.no", ext, 0) > 0

    def test_testbed_properties(self, small_testbed):
        assert small_testbed.kernel is small_testbed.cluster.kernel
        assert small_testbed.server in small_testbed.servers
        assert small_testbed.site_of("www.cs.uit.no").host == \
            "www.cs.uit.no"

"""Unit tests for the analytic cost model and the report renderer."""

import pytest

from repro.bench import model
from repro.bench.metrics import ExperimentReport, PaperClaim, render_table
from repro.sim.network import BANDWIDTH_1MBIT, BANDWIDTH_100MBIT


WORKLOAD = model.CrawlWorkload(pages=900, total_page_bytes=3_000_000)
MACHINE = model.MachineParams()
AGENT = model.AgentParams()
LAN = model.LinkParams(0.0005, BANDWIDTH_100MBIT)
WAN = model.LinkParams(0.05, BANDWIDTH_1MBIT)


class TestCostModel:
    def test_stationary_slower_on_worse_links(self):
        assert model.stationary_seconds(WORKLOAD, WAN, MACHINE) > \
            model.stationary_seconds(WORKLOAD, LAN, MACHINE)

    def test_mobile_nearly_link_independent(self):
        lan = model.mobile_seconds(WORKLOAD, LAN, MACHINE, AGENT)
        wan = model.mobile_seconds(WORKLOAD, WAN, MACHINE, AGENT)
        assert wan < lan * 1.2

    def test_speedup_grows_with_volume(self):
        small = model.CrawlWorkload(pages=10, total_page_bytes=33_000)
        large = model.CrawlWorkload(pages=2000, total_page_bytes=6_600_000)
        assert model.predicted_speedup(large, LAN, MACHINE, AGENT) > \
            model.predicted_speedup(small, LAN, MACHINE, AGENT)

    def test_speedup_grows_as_bandwidth_falls(self):
        assert model.predicted_speedup(WORKLOAD, WAN, MACHINE, AGENT) > \
            model.predicted_speedup(WORKLOAD, LAN, MACHINE, AGENT)

    def test_crossover_pages_monotone_in_overheads(self):
        cheap = model.AgentParams(agent_bytes=1_000, report_bytes=100,
                                  launch_overhead=0.001)
        costly = model.AgentParams(agent_bytes=10_000_000,
                                   report_bytes=100,
                                   launch_overhead=0.001)
        assert model.crossover_pages(WAN, MACHINE, cheap, 3300) <= \
            model.crossover_pages(WAN, MACHINE, costly, 3300)

    def test_crossover_pages_boundary_is_real(self):
        pages = model.crossover_pages(WAN, MACHINE, AGENT, 3300)
        if 1 < pages < 1_000_000:
            at = model.CrawlWorkload(pages, int(pages * 3300))
            below = model.CrawlWorkload(pages - 1, int((pages - 1) * 3300))
            assert model.predicted_speedup(at, WAN, MACHINE, AGENT) > 1
            assert model.predicted_speedup(below, WAN, MACHINE,
                                           AGENT) <= 1

    def test_crossover_bandwidth_brackets(self):
        # With zero link latency, the only thing the stationary robot
        # saves is the mobile agent's one-time shipping + launch cost —
        # so at extreme bandwidths stationary wins and a real crossover
        # exists (mobile wins below it).
        zero_lat = 0.0
        crossover = model.crossover_bandwidth(WORKLOAD, zero_lat,
                                              MACHINE, AGENT)
        assert 1e3 < crossover < 1e12
        faster = model.LinkParams(zero_lat, crossover * 10)
        slower = model.LinkParams(zero_lat, crossover / 10)
        assert model.predicted_speedup(WORKLOAD, faster, MACHINE,
                                       AGENT) <= 1
        assert model.predicted_speedup(WORKLOAD, slower, MACHINE,
                                       AGENT) >= 1

    def test_overweight_agent_never_pays(self):
        # Shipping a 50 MB agent to fetch 4 KB cannot pay at any
        # bandwidth: both costs scale identically with the link.
        tiny = model.CrawlWorkload(pages=2, total_page_bytes=4_000)
        heavy = model.AgentParams(agent_bytes=50_000_000)
        for bandwidth in (1e3, 1e6, 1e9):
            link = model.LinkParams(0.0005, bandwidth)
            assert model.predicted_speedup(tiny, link, MACHINE,
                                           heavy) < 1

    def test_machine_params_from_models(self):
        from repro.web.client import ClientModel
        from repro.web.server import ServerModel
        params = model.MachineParams.from_models(ServerModel(),
                                                 ClientModel())
        assert params.server_per_request == 0.003
        assert params.handshake_rtts == 1


class TestReportRendering:
    def test_render_table_alignment(self):
        table = render_table(["a", "bb"], [[1, 2.5], [30, 0.001]])
        lines = table.splitlines()
        assert "a" in lines[0] and "bb" in lines[0]
        assert "30" in table and "0.001000" in table

    def test_experiment_report_render(self):
        report = ExperimentReport("X1", "demo")
        report.headers = ["k", "v"]
        report.add_row("speed", 1.5)
        report.add_claim("it works", "it did", True)
        text = report.render()
        assert "X1" in text and "REPRODUCED" in text and "speed" in text
        assert report.all_claims_hold

    def test_diverged_claim_renders_and_flags(self):
        report = ExperimentReport("X2", "demo")
        report.add_claim("should hold", "did not", False)
        assert not report.all_claims_hold
        assert "DIVERGED" in report.render()

    def test_paper_claim_render(self):
        claim = PaperClaim("E9", "paper says", "we saw", True)
        assert "paper says" in claim.render()


class TestRunnerJson:
    def test_json_output(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "results.json"
        assert main(["experiments", "F5", "--json", str(out)]) == 0
        import json
        data = json.loads(out.read_text())
        assert data["experiments"][0]["experiment"] == "F5"
        assert data["experiments"][0]["reproduced"] is True
        assert data["experiments"][0]["rows"]

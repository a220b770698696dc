"""Unit tests for the analytic cost model and the report renderer."""

import pytest

from repro.bench import model
from repro.bench.metrics import (ExperimentReport, PaperClaim, check_slack,
                                 render_report, render_table)
from repro.sim.network import BANDWIDTH_1MBIT, BANDWIDTH_100MBIT
from repro.suites.runner import CheckSyntaxError


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
        report.extras["speedup"] = 1.5
        report.add_claim("it works", "speedup>1")
        document = report.to_dict()
        text = render_report(document)
        assert "X1" in text and "REPRODUCED" in text and "speed" in text
        assert "speedup>1" in text and "margin +0.500" in text
        assert document["reproduced"] is True


def decided(checks, **extras):
    """The record of one claim with ``checks`` over ``extras``."""
    report = ExperimentReport("X9", "claims")
    report.extras.update(extras)
    report.add_claim("paper says", *checks)
    return report.to_dict()["claims"][0]


class TestPaperClaims:
    def test_holding_claim_records_values_verdict_and_margin(self):
        record = decided(["ratio>=1.05", "ratio<=1.35"], ratio=1.175)
        assert record["holds"] is True
        assert [check["value"] for check in record["checks"]] == \
            [1.175, 1.175]
        # The smallest slack: (1.175 - 1.05) / 1.05 against
        # (1.35 - 1.175) / 1.35.
        assert record["margin"] == pytest.approx(0.125 / 1.05)

    def test_failing_check_gives_negative_margin(self):
        record = decided(["speedup>2"], speedup=1.5)
        assert record["holds"] is False
        assert record["checks"][0]["ok"] is False
        assert record["margin"] == pytest.approx(-0.25)
        report = ExperimentReport("X9", "claims")
        report.extras["speedup"] = 1.5
        report.add_claim("paper says", "speedup>2")
        document = report.to_dict()
        assert document["reproduced"] is False
        assert "DIVERGED" in render_report(document)

    @pytest.mark.parametrize("check, value, slack", [
        ("x>2", 3, 0.5), ("x>=2", 1, -0.5),
        ("x<2", 1, 0.5), ("x<=2", 3, -0.5),
        ("x<-2", -3, 0.5), ("x>-2", -3, -0.5),
    ])
    def test_slack_is_signed_to_hold(self, check, value, slack):
        assert check_slack(check, value) == pytest.approx(slack)
        assert (decided([check], x=value)["margin"] > 0) == (slack > 0)

    def test_check_on_missing_path_fails(self):
        record = decided(["absent>1"], present=2)
        assert record["holds"] is False
        assert record["checks"][0] == {"check": "absent>1", "ok": False,
                                       "value": None}
        assert record["margin"] is None

    @pytest.mark.parametrize("check", [
        "agree", "!timed_out", "count==1", "count>0"])
    def test_boolean_equality_and_zero_checks_carry_no_margin(self, check):
        record = decided([check], agree=True, timed_out=False, count=1)
        assert record["holds"] is True
        assert record["margin"] is None

    def test_margin_ignores_checks_without_slack(self):
        record = decided(["agree", "ratio<2.0"], agree=True, ratio=1.5)
        assert record["margin"] == pytest.approx(0.25)

    def test_claim_without_checks_is_refused(self):
        report = ExperimentReport("X9", "claims")
        with pytest.raises(ValueError, match="no checks"):
            report.add_claim("paper says")

    def test_claim_with_bad_check_is_refused(self):
        with pytest.raises(CheckSyntaxError):
            PaperClaim("X9", "paper says", ("ratio>=not-json",))


class TestRunnerJson:
    def test_json_output(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "results.json"
        assert main(["experiments", "F5", "--json", str(out)]) == 0
        import json
        data = json.loads(out.read_text())
        [cell] = data["cells"]
        assert cell["id"] == "experiment[id=F5,seed=2000]"
        assert cell["status"] == "passed"
        assert cell["document"]["experiment"] == "F5"
        assert cell["document"]["reproduced"] is True
        assert cell["document"]["rows"]


class TestBenchCommand:
    def test_bench_prints_e1_and_writes_its_document(self, tmp_path,
                                                     capsys):
        import json
        from repro.bench.metrics import render_report
        from repro.cli import main
        out = tmp_path / "bench.json"
        assert main(["bench", "--seed", "2000", "--json", str(out)]) == 0
        printed = capsys.readouterr().out
        document = json.loads(out.read_text())
        assert document["experiment"] == "E1"
        assert document["wall_seconds"] > 0
        assert document["reproduced"] is True
        del document["wall_seconds"]
        assert printed.startswith(render_report(document))
        assert "wrote report (" in printed and str(out) in printed

    def test_bench_without_json_writes_nothing(self, tmp_path, capsys,
                                               monkeypatch):
        from repro.cli import main
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--seed", "2000"]) == 0
        assert "=== E1:" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

"""Tests for the access-log analyzer and the log-mining workload."""

import pytest

from repro.robot.loganalyzer import analyze_log, parse_log_line, \
    run_log_analysis
from repro.mining.logmining import (
    LOG_PATH,
    build_loganalyzer_program,
    generate_access_log,
    mining_args,
    publish_log,
    run_log_mobile,
    run_log_stationary,
)
from repro.system.bootstrap import build_linkcheck_testbed
from tests.conftest import small_site_spec

SAMPLE = ('10.1.2.3 - - [06/Jul/1999:12:00:01 +0100] '
          '"GET /index.html HTTP/1.0" 200 2326')


class TestParsing:
    def test_parse_valid_line(self):
        record = parse_log_line(SAMPLE)
        assert record == {"host": "10.1.2.3",
                          "time": "06/Jul/1999:12:00:01 +0100",
                          "method": "GET", "path": "/index.html",
                          "status": 200, "bytes": 2326}

    def test_parse_dash_bytes(self):
        record = parse_log_line(SAMPLE.replace("2326", "-"))
        assert record["bytes"] == 0

    @pytest.mark.parametrize("bad", [
        "", "garbage", '1.2.3.4 - - [t] "GET" 200',
        '1.2.3.4 - - [t] no-quotes 200 5',
        SAMPLE.replace("200", "two-hundred"),
    ])
    def test_malformed_lines_rejected(self, bad):
        assert parse_log_line(bad) is None


class TestAnalysis:
    def log_text(self):
        lines = [SAMPLE,
                 SAMPLE.replace("/index.html", "/a.html"),
                 SAMPLE.replace("/index.html", "/a.html"),
                 SAMPLE.replace("10.1.2.3", "10.9.9.9"),
                 SAMPLE.replace("200 2326", "404 210"),
                 "malformed line"]
        return "\n".join(lines)

    def test_aggregates(self):
        stats = analyze_log(self.log_text())
        assert stats["hits"] == 5
        assert stats["malformed"] == 1
        assert stats["unique_visitors"] == 2
        assert stats["status_counts"] == {"200": 4, "404": 1}
        # /index.html: the base sample + other-visitor + 404 variants.
        assert stats["top_pages"][0] == ["/index.html", 3]
        assert stats["top_pages"][1] == ["/a.html", 2]
        assert stats["top_error_paths"] == [["/index.html", 1]]

    def test_top_k_limit(self):
        text = "\n".join(SAMPLE.replace("/index.html", f"/p{i}.html")
                         for i in range(30))
        stats = analyze_log(text, top_k=5)
        assert len(stats["top_pages"]) == 5

    def test_json_canonical(self):
        import json
        stats = analyze_log(self.log_text())
        assert json.loads(json.dumps(stats)) == stats

    def test_run_log_analysis_entry(self):
        class Resp:
            ok = True
            status = 200
            body = self.log_text()

        class Http:
            def get(self, url):
                return Resp()

        class Env:
            http = Http()
        result = run_log_analysis({"log_url": "http://s/logs/x"}, Env)
        assert result["hits"] == 5
        assert result["log_bytes"] == len(Resp.body.encode())

    def test_run_log_analysis_fetch_failure(self):
        class Resp:
            ok = False
            status = 404
            body = ""

        class Http:
            def get(self, url):
                return Resp()

        class Env:
            http = Http()
        with pytest.raises(ValueError, match="could not fetch"):
            run_log_analysis({"log_url": "http://s/none"}, Env)


class TestWorkload:
    def test_generated_log_is_parseable_and_deterministic(self,
                                                          small_testbed):
        site = small_testbed.site_of("www.cs.uit.no")
        a = generate_access_log(site, 500, seed=7)
        b = generate_access_log(site, 500, seed=7)
        assert a == b
        stats = analyze_log(a)
        assert stats["hits"] == 500 and stats["malformed"] == 0
        assert stats["status_counts"].get("404", 0) > 0

    def test_publish_and_fetch(self, small_testbed):
        site = small_testbed.site_of("www.cs.uit.no")
        log_text = generate_access_log(site, 100, seed=7)
        publish_log(site, log_text)
        from repro.sim.ledger import CostLedger
        from repro.web.client import SimHttpClient
        http = SimHttpClient(small_testbed.server.host,
                             small_testbed.network,
                             small_testbed.deployment, CostLedger())
        response = http.get(mining_args(site.host)["log_url"])
        assert response.ok and response.body == log_text
        assert response.content_type == "text/plain"

    def test_program_builds_and_is_signed(self):
        from repro.firewall.auth import KeyChain
        keychain = KeyChain()
        keychain.create_key("tacomaproject")
        payload = build_loganalyzer_program(keychain)
        from repro.vm import loader
        assert payload.kind == loader.KIND_BINARY

    def test_stationary_and_mobile_agree(self):
        testbed = build_linkcheck_testbed(spec=small_site_spec())
        site = testbed.site_of("www.cs.uit.no")
        publish_log(site, generate_access_log(site, 800, seed=9))
        stationary = run_log_stationary(testbed, site.host)
        mobile = run_log_mobile(testbed, site.host)
        assert stationary.reports[0] == mobile.reports[0]
        assert mobile.remote_bytes < stationary.remote_bytes

    def test_mobile_run_reports_a_crashed_site_host(self):
        """The agent cannot fly its one hop, so its report home carries
        no result and one ``go`` failure — which must not be dropped."""
        testbed = build_linkcheck_testbed(spec=small_site_spec())
        testbed.cluster.node("www.cs.uit.no").crash()
        mobile = run_log_mobile(testbed, "www.cs.uit.no")
        assert mobile.reports == []
        assert [f["phase"] for f in mobile.failures] == ["go"]

"""Unit tests for the Webbot clone, link checker, and reports."""

import json

import pytest

from repro.robot.linkcheck import validate_rejected
from repro.robot.report import DeadLinkReport, merge_reports
from repro.robot.webbot import (
    REASON_DEPTH,
    REASON_PREFIX,
    REASON_SCHEME,
    Webbot,
    WebbotConfig,
    extract_links,
    join_url,
    run_webbot,
)


class FakeResponse:
    def __init__(self, status, body=""):
        self.status = status
        self.body = body
        self.ok = 200 <= status < 300


class FakeHttp:
    """A dict-backed web: url -> html (missing urls 404)."""

    def __init__(self, pages, unreachable=()):
        self.pages = pages
        self.unreachable = set(unreachable)
        self.log = []

    def get(self, url):
        self.log.append(("GET", url))
        if url in self.unreachable:
            return FakeResponse(0)
        if url in self.pages:
            return FakeResponse(200, self.pages[url])
        return FakeResponse(404)

    def head(self, url):
        self.log.append(("HEAD", url))
        if url in self.unreachable:
            return FakeResponse(0)
        return FakeResponse(200 if url in self.pages else 404)


def page(*hrefs):
    items = "".join(f'<li><a href="{h}">x</a></li>' for h in hrefs)
    return f"<html><body><ul>{items}</ul></body></html>"


class TestLinkExtraction:
    def test_href_double_and_single_quotes(self):
        html = '<a href="/a">x</a><a href=\'/b\'>y</a>'
        assert extract_links(html) == ["/a", "/b"]

    def test_link_and_area_tags(self):
        html = '<link href="/style.css"><area href="/map.html">'
        assert set(extract_links(html)) == {"/style.css", "/map.html"}

    def test_img_and_script_src(self):
        html = '<img src="/i.png"><script src="/j.js"></script>'
        assert set(extract_links(html)) == {"/i.png", "/j.js"}

    def test_case_insensitive_and_multiline(self):
        html = '<A\n  HREF="/caps.html">x</A>'
        assert extract_links(html) == ["/caps.html"]

    def test_no_links(self):
        assert extract_links("<p>plain</p>") == []


class TestJoinUrl:
    BASE = "http://h/dir/page.html"

    def test_relative(self):
        assert join_url(self.BASE, "other.html") == "http://h/dir/other.html"

    def test_root_relative(self):
        assert join_url(self.BASE, "/top.html") == "http://h/top.html"

    def test_absolute(self):
        assert join_url(self.BASE, "http://x/y") == "http://x/y"

    def test_dotdot(self):
        assert join_url(self.BASE, "../up.html") == "http://h/up.html"

    def test_fragment_stripped(self):
        assert join_url(self.BASE, "p.html#s") == "http://h/dir/p.html"

    def test_mailto_is_none(self):
        assert join_url(self.BASE, "mailto:x@y") is None

    def test_ftp_is_none(self):
        assert join_url(self.BASE, "ftp://h/f") is None


class TestWebbotCrawl:
    def simple_web(self):
        return FakeHttp({
            "http://s/index.html": page("/a.html", "/b.html"),
            "http://s/a.html": page("/c.html", "/dead.html"),
            "http://s/b.html": page(),
            "http://s/c.html": page("http://other/x.html",
                                    "mailto:me@s"),
        })

    def crawl(self, http=None, **config):
        http = http or self.simple_web()
        defaults = dict(start_url="http://s/index.html", max_depth=10)
        defaults.update(config)
        robot = Webbot(WebbotConfig(**defaults), http)
        return robot.run(), http

    def test_counts_pages_and_bytes(self):
        result, _ = self.crawl()
        assert result["pages_scanned"] == 4
        assert result["bytes_scanned"] == sum(
            len(self.simple_web().pages[u]) for u in self.simple_web().pages)

    def test_dead_link_found(self):
        result, _ = self.crawl(prefix="http://s/")
        dead = [r["url"] for r in result["invalid"]]
        assert dead == ["http://s/dead.html"]
        assert result["invalid"][0]["status"] == 404
        assert result["invalid"][0]["referrer"] == "http://s/a.html"

    def test_depth_first_order(self):
        _result, http = self.crawl()
        gets = [u for verb, u in http.log if verb == "GET"]
        # /a.html's subtree (/c.html) is exhausted before /b.html.
        assert gets.index("http://s/c.html") < gets.index("http://s/b.html")

    def test_prefix_constraint_rejects_offsite(self):
        result, http = self.crawl(prefix="http://s/")
        rejected = [r for r in result["rejected"]
                    if r["reason"] == REASON_PREFIX]
        assert [r["url"] for r in rejected] == ["http://other/x.html"]
        assert ("GET", "http://other/x.html") not in http.log

    def test_scheme_rejections_logged(self):
        result, _ = self.crawl()
        schemes = [r for r in result["rejected"]
                   if r["reason"] == REASON_SCHEME]
        assert len(schemes) == 1 and schemes[0]["url"] == "mailto:me@s"

    def test_depth_constraint(self):
        result, http = self.crawl(max_depth=1)
        assert result["pages_scanned"] == 3  # index, a, b
        depth_rejected = {r["url"] for r in result["rejected"]
                          if r["reason"] == REASON_DEPTH}
        assert "http://s/c.html" in depth_rejected
        assert ("GET", "http://s/c.html") not in http.log

    def test_max_depth_seen_recorded(self):
        result, _ = self.crawl()
        assert result["max_depth_seen"] == 2

    def test_page_limit(self):
        result, _ = self.crawl(max_pages=2)
        assert result["pages_scanned"] == 2
        assert any(r["reason"] == "page-limit" for r in result["rejected"])

    def test_no_page_visited_twice(self):
        web = FakeHttp({
            "http://s/index.html": page("/a.html", "/a.html", "/index.html"),
            "http://s/a.html": page("/index.html"),
        })
        result, http = self.crawl(http=web)
        gets = [u for verb, u in http.log if verb == "GET"]
        assert len(gets) == len(set(gets))
        assert result["pages_scanned"] == 2

    def test_unreachable_start_is_invalid(self):
        web = FakeHttp({}, unreachable={"http://s/index.html"})
        result, _ = self.crawl(http=web)
        assert result["pages_scanned"] == 0
        assert result["invalid"][0]["status"] == 0

    def test_status_counts(self):
        result, _ = self.crawl(prefix="http://s/")
        assert result["status_counts"]["200"] == 4
        assert result["status_counts"]["404"] == 1

    def test_result_is_json_able(self):
        result, _ = self.crawl()
        assert json.loads(json.dumps(result)) == result

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WebbotConfig("not-a-url")
        with pytest.raises(ValueError):
            WebbotConfig("http://s/", max_depth=-1)

    def test_run_webbot_entry_point(self):
        class Env:
            http = self.simple_web()
        result = run_webbot({"start_url": "http://s/index.html",
                             "max_depth": 3}, Env)
        assert result["pages_scanned"] == 4

    def test_links_seen_counts_raw_references(self):
        result, _ = self.crawl()
        assert result["links_seen"] == 6


class TestSecondPass:
    def test_validates_distinct_urls_once(self):
        http = FakeHttp({"http://ok/x": ""})
        rejected = [
            {"url": "http://ok/x", "referrer": "p1", "reason": "prefix"},
            {"url": "http://ok/x", "referrer": "p2", "reason": "prefix"},
            {"url": "http://bad/y", "referrer": "p1", "reason": "depth"},
        ]
        invalid = validate_rejected(rejected, http)
        heads = [u for verb, u in http.log if verb == "HEAD"]
        assert sorted(heads) == ["http://bad/y", "http://ok/x"]
        assert [r["url"] for r in invalid] == ["http://bad/y"]

    def test_broken_url_reported_per_referrer(self):
        http = FakeHttp({})
        rejected = [
            {"url": "http://bad/y", "referrer": "p1", "reason": "prefix"},
            {"url": "http://bad/y", "referrer": "p2", "reason": "prefix"},
        ]
        invalid = validate_rejected(rejected, http)
        assert {r["referrer"] for r in invalid} == {"p1", "p2"}

    def test_scheme_rejections_not_probed(self):
        http = FakeHttp({})
        invalid = validate_rejected(
            [{"url": "mailto:x@y", "referrer": "p", "reason": "scheme"}],
            http)
        assert invalid == [] and http.log == []


class TestDeadLinkReport:
    def sample_result(self):
        return {
            "pages_scanned": 10, "bytes_scanned": 1000, "links_seen": 50,
            "invalid": [
                {"url": "http://s/d1", "referrer": "http://s/p1",
                 "reason": "http", "status": 404},
            ],
        }

    def test_from_webbot_result_merges_second_pass(self):
        second = [{"url": "http://x/d2", "referrer": "http://s/p2",
                   "reason": "http", "status": 0}]
        report = DeadLinkReport.from_webbot_result("s", self.sample_result(),
                                                   second)
        assert report.dead_count == 2
        assert report.rejected_checked == 1
        assert report.dead_urls() == ["http://s/d1", "http://x/d2"]

    def test_dedupes_same_url_and_referrer(self):
        result = self.sample_result()
        result["invalid"].append(dict(result["invalid"][0]))
        report = DeadLinkReport.from_webbot_result("s", result)
        assert report.dead_count == 1

    def test_by_referrer_grouping(self):
        second = [{"url": "http://x/d2", "referrer": "http://s/p1",
                   "reason": "http", "status": 0}]
        report = DeadLinkReport.from_webbot_result("s", self.sample_result(),
                                                   second)
        grouped = report.by_referrer()
        assert grouped["http://s/p1"] == ["http://s/d1", "http://x/d2"]

    def test_json_round_trip(self):
        report = DeadLinkReport.from_webbot_result("s", self.sample_result())
        clone = DeadLinkReport.from_json(report.to_json())
        assert clone.site == "s" and clone.dead_count == report.dead_count
        assert clone.pages_scanned == 10

    def test_render_text_mentions_everything(self):
        report = DeadLinkReport.from_webbot_result("s", self.sample_result())
        text = report.render_text()
        assert "http://s/d1" in text and "http://s/p1" in text
        assert "pages scanned : 10" in text

    def test_merge_reports(self):
        a = DeadLinkReport.from_webbot_result("s1", self.sample_result())
        b = DeadLinkReport.from_webbot_result("s2", self.sample_result())
        b.invalid[0]["url"] = "http://s2/other"
        merged = merge_reports([a, b], site="campus")
        assert merged.pages_scanned == 20
        assert merged.dead_count == 2
        assert merged.site == "campus"


class TestWebbotConfigPassthrough:
    def test_run_webbot_honors_all_args(self):
        fetched = []

        class Resp:
            status = 200
            ok = True
            body = "<html></html>"
            location = None
            content_type = "text/html"
            age_days = None

        class Http:
            def get(self, url):
                fetched.append(url)
                return Resp()
        from repro.robot.webbot import run_webbot

        class Env:
            http = Http()
        result = run_webbot({"start_url": "http://s/",
                             "honor_robots": False,
                             "max_redirects": 0,
                             "max_pages": 5,
                             "max_depth": 2}, Env)
        assert result["max_depth"] == 2
        assert "http://s/robots.txt" not in fetched


class TestCrawlDeterminism:
    def test_same_site_same_result(self, small_testbed):
        from repro.robot.webbot import Webbot, WebbotConfig
        from repro.sim.ledger import CostLedger
        from repro.web.client import SimHttpClient
        site = small_testbed.site_of("www.cs.uit.no")

        def crawl():
            http = SimHttpClient(small_testbed.server.host,
                                 small_testbed.network,
                                 small_testbed.deployment, CostLedger())
            config = WebbotConfig(site.root_url,
                                  prefix=f"http://{site.host}/",
                                  max_depth=12)
            return Webbot(config, http).run()
        assert crawl() == crawl()

    def test_checkbot_deterministic_too(self, small_testbed):
        from repro.robot.checkbot import Checkbot, CheckbotConfig
        from repro.sim.ledger import CostLedger
        from repro.web.client import SimHttpClient
        site = small_testbed.site_of("www.cs.uit.no")

        def crawl():
            http = SimHttpClient(small_testbed.server.host,
                                 small_testbed.network,
                                 small_testbed.deployment, CostLedger())
            config = CheckbotConfig([site.root_url],
                                    allowed_hosts=[site.host])
            return Checkbot(config, http).run()
        assert crawl() == crawl()

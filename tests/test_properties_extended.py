"""More property-based tests: log analysis, checkbot."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.robot.checkbot import absolutize
from repro.robot.loganalyzer import analyze_log, parse_log_line
from repro.robot.webbot import join_url


class TestUrlImplementationsAgree:
    """Webbot and Checkbot each carry their own URL code (like real COTS
    robots); on absolute-http inputs they must agree."""

    @given(st.from_regex(r"[a-z0-9._/-]{0,30}", fullmatch=True))
    @settings(max_examples=200)
    def test_relative_resolution_agrees(self, reference):
        base = "http://host.example/dir/page.html"
        webbot_view = join_url(base, reference)
        checkbot_view = absolutize(base, reference)
        if reference.strip() == "":
            assert checkbot_view is None
            return
        assert webbot_view == checkbot_view

    @given(st.from_regex(r"http://[a-z0-9.]{1,12}(/[a-z0-9./-]{0,20})?",
                         fullmatch=True))
    @settings(max_examples=100)
    def test_absolute_urls_agree(self, url):
        assert join_url("http://base/", url) == \
            absolutize("http://base/", url)


log_hosts = st.from_regex(r"10\.\d{1,3}\.\d{1,3}\.\d{1,3}", fullmatch=True)
log_paths = st.from_regex(r"/[a-z0-9./_-]{0,30}", fullmatch=True)


class TestLogAnalyzerProperties:
    @given(st.lists(st.tuples(log_hosts, log_paths,
                              st.sampled_from([200, 304, 404, 500]),
                              st.integers(min_value=0, max_value=10**6)),
                    max_size=40))
    @settings(max_examples=100)
    def test_hits_and_bytes_conserved(self, entries):
        lines = [
            f'{host} - - [06/Jul/1999:00:00:00 +0100] '
            f'"GET {path} HTTP/1.0" {status} {size}'
            for host, path, status, size in entries]
        stats = analyze_log("\n".join(lines))
        assert stats["hits"] == len(entries)
        assert stats["malformed"] == 0
        assert stats["bytes_served"] == sum(e[3] for e in entries)
        assert sum(stats["status_counts"].values()) == len(entries)
        assert stats["unique_visitors"] == len({e[0] for e in entries})

    @given(st.text(alphabet=string.printable, max_size=300))
    @settings(max_examples=100)
    def test_parser_never_crashes(self, garbage):
        record = parse_log_line(garbage)
        assert record is None or isinstance(record, dict)

    @given(st.lists(st.text(alphabet=string.printable, max_size=80),
                    max_size=20))
    @settings(max_examples=50)
    def test_analyzer_never_crashes(self, lines):
        text = "\n".join(lines)
        stats = analyze_log(text)
        # \r etc. may split lines further; compare against splitlines.
        assert stats["hits"] + stats["malformed"] <= len(text.splitlines())

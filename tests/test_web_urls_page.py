"""Unit tests for URL handling and page rendering."""

import html

import pytest

from repro.web import urls
from repro.web.page import make_filler, render_page


class TestUrlParse:
    def test_basic(self):
        url = urls.parse("http://www.cs.uit.no/index.html")
        assert url.host == "www.cs.uit.no"
        assert url.port == 80
        assert url.path == "/index.html"

    def test_explicit_port(self):
        url = urls.parse("http://host:8080/p")
        assert url.port == 8080
        assert str(url) == "http://host:8080/p"

    def test_default_port_omitted_in_str(self):
        assert str(urls.parse("http://host:80/p")) == "http://host/p"

    def test_host_lowercased(self):
        assert urls.parse("http://WWW.CS.UIT.NO/").host == "www.cs.uit.no"

    def test_bare_host_gets_root_path(self):
        assert urls.parse("http://host").path == "/"

    def test_fragment_stripped(self):
        assert urls.parse("http://h/p.html#sec").path == "/p.html"

    @pytest.mark.parametrize("bad", [
        "ftp://host/x", "relative/path", "http://", "http:///p",
        "http://host:0/x", "http://host:99999/x", "http://host:abc/x", 42,
    ])
    def test_rejects(self, bad):
        with pytest.raises(urls.UrlError):
            urls.parse(bad)

    def test_site_key_includes_port(self):
        assert urls.parse("http://h/p").site == "h"
        assert urls.parse("http://h:8080/p").site == "h:8080"


class TestPathNormalization:
    @pytest.mark.parametrize("raw,expected", [
        ("/a/b/../c", "/a/c"),
        ("/a/./b", "/a/b"),
        ("/a//b", "/a/b"),
        ("/../a", "/a"),
        ("/a/b/", "/a/b/"),
        ("/", "/"),
        ("no-slash", "/no-slash"),
    ])
    def test_cases(self, raw, expected):
        assert urls.normalize_path(raw) == expected


class TestJoin:
    BASE = urls.parse("http://h/dir/page.html")

    def test_absolute_replaces(self):
        joined = urls.join(self.BASE, "http://other/x")
        assert joined.host == "other" and joined.path == "/x"

    def test_root_relative(self):
        assert urls.join(self.BASE, "/top.html").path == "/top.html"

    def test_relative_resolves_against_directory(self):
        assert urls.join(self.BASE, "sibling.html").path == \
            "/dir/sibling.html"

    def test_dotdot_relative(self):
        assert urls.join(self.BASE, "../up.html").path == "/up.html"

    def test_fragment_only_is_self(self):
        assert urls.join(self.BASE, "#anchor") == self.BASE

    def test_empty_is_self(self):
        assert urls.join(self.BASE, "") == self.BASE


class TestPageRendering:
    def test_links_embedded_and_escaped(self):
        page = render_page("/p.html", "T", ['/a.html', '/b"q.html'],
                           ["one", "two"], target_bytes=0)
        assert 'href="/a.html"' in page.html
        assert "&quot;" in page.html  # quote escaped in attribute
        assert page.links == ['/a.html', '/b"q.html']

    def test_target_size_approximated(self):
        page = render_page("/p.html", "T", [], [], target_bytes=5000)
        assert abs(page.size - 5000) < 100

    def test_minimum_size_without_padding(self):
        page = render_page("/p.html", "T", [], [], target_bytes=1)
        assert page.size > 50  # the skeleton itself

    def test_mismatched_anchor_count_rejected(self):
        with pytest.raises(ValueError):
            render_page("/p", "T", ["/a"], [], 100)

    def test_filler_deterministic_and_sized(self):
        assert make_filler(100, salt=1) == make_filler(100, salt=1)
        assert len(make_filler(100, salt=1)) == 100
        assert make_filler(0) == ""

    def test_page_size_is_utf8_bytes(self):
        page = render_page("/p", "Tø", [], [], 0)
        assert page.size == len(page.html.encode("utf-8"))

    @pytest.mark.parametrize("escape", ["", "&"])
    @pytest.mark.parametrize("text", ["{", "}", "{x}", "{0}"])
    @pytest.mark.parametrize("where", ["href", "anchor", "title"])
    def test_braces_are_text(self, where, text, escape):
        # A brace is text in every slot, never a format field, whether
        # or not the slot has something to escape.
        parts = {"href": "/a.html", "anchor": "ref 0", "title": "T"}
        parts[where] = f"{parts[where]}{text}{escape}"
        page = render_page("/p.html", parts["title"], [parts["href"]],
                           [parts["anchor"]], target_bytes=2000)
        assert html.escape(parts[where]) in page.html
        assert page.links == [parts["href"]]
        assert page.size == len(page.html.encode("utf-8"))
        assert abs(page.size - 2000) < 10

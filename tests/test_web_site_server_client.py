"""Unit tests for the site generator, web server, and HTTP client."""

import os
import subprocess
import sys

import pytest

from repro.sim.host import SimHost
from repro.sim.ledger import CostLedger
from repro.web.client import ClientModel, SimHttpClient
from repro.web.server import (
    HttpRequest,
    ServerModel,
    WebDeployment,
    WebServer,
)
from repro.web.site import (
    SiteSpec,
    external_stub_site,
    generate_site,
    paper_site_spec,
)
from repro.robot.webbot import Webbot, WebbotConfig, extract_links


@pytest.fixture
def small_site():
    return generate_site(SiteSpec(
        host="www.test", n_pages=40, total_bytes=120_000,
        external_hosts=("ext.test",), dead_internal_fraction=0.05,
        external_link_fraction=0.1, external_dead_fraction=0.5, seed=11))


class TestSiteGenerator:
    def test_page_count_exact(self, small_site):
        assert small_site.n_pages == 40

    def test_total_bytes_close_to_budget(self, small_site):
        assert abs(small_site.total_bytes - 120_000) < 6_000

    def test_root_exists(self, small_site):
        assert small_site.root_path in small_site.pages
        assert small_site.root_url == "http://www.test/index.html"

    def test_deterministic(self):
        spec = SiteSpec(host="h.test", n_pages=20, total_bytes=40_000,
                        seed=3)
        a, b = generate_site(spec), generate_site(spec)
        assert sorted(a.pages) == sorted(b.pages)
        assert all(a.pages[p].html == b.pages[p].html for p in a.pages)

    def test_different_seeds_differ(self):
        base = dict(host="h.test", n_pages=20, total_bytes=40_000)
        a = generate_site(SiteSpec(seed=1, **base))
        b = generate_site(SiteSpec(seed=2, **base))
        assert any(a.pages[p].html != b.pages[p].html
                   for p in a.pages if p in b.pages)

    def test_every_page_reachable_from_root(self, small_site):
        seen = {small_site.root_path}
        frontier = [small_site.root_path]
        while frontier:
            path = frontier.pop()
            for href in small_site.pages[path].links:
                if href.startswith("/") and href in small_site.pages and \
                        href not in seen:
                    seen.add(href)
                    frontier.append(href)
        assert seen == set(small_site.pages)

    def test_dead_internal_links_do_not_exist(self, small_site):
        assert small_site.truth.dead_internal
        for _src, href in small_site.truth.dead_internal:
            assert href not in small_site.pages

    def test_external_links_point_off_site(self, small_site):
        assert small_site.truth.external
        for _src, href in small_site.truth.external:
            assert href.startswith("http://ext.test")

    def test_ground_truth_links_are_really_in_the_html(self, small_site):
        for src, href in small_site.truth.dead_internal[:10]:
            assert href in extract_links(small_site.pages[src].html)

    def test_depths_recorded(self, small_site):
        truth = small_site.truth
        assert truth.depth_of[small_site.root_path] == 0
        assert truth.pages_within_depth(0) == 1
        assert truth.pages_within_depth(10_000) == small_site.n_pages

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SiteSpec(n_pages=0)
        with pytest.raises(ValueError):
            SiteSpec(n_pages=100, total_bytes=10)
        with pytest.raises(ValueError):
            SiteSpec(dead_internal_fraction=1.5)

    @pytest.mark.parametrize("value", [float("nan"), -10.0, -1e-9])
    @pytest.mark.parametrize("name", ["links_per_page", "cross_link_factor",
                                      "size_sigma", "max_age_days"])
    def test_spec_rejects_nan_and_negative(self, name, value):
        with pytest.raises(ValueError, match=name):
            SiteSpec(**{name: value})

    def test_spec_accepts_zero(self):
        site = generate_site(SiteSpec(
            n_pages=5, total_bytes=5_000, links_per_page=0.0,
            cross_link_factor=0.0, size_sigma=0.0, max_age_days=0.0))
        assert all(page.age_days == 0.0 for page in site.pages.values())

    def test_paper_spec_scale(self):
        site = generate_site(paper_site_spec())
        assert site.n_pages == 917
        assert abs(site.total_bytes - 3_000_000) < 30_000

    def test_external_stub_site(self):
        site = external_stub_site("stub.test")
        assert site.n_pages >= 1 and site.root_path in site.pages

    def test_external_stub_site_ignores_the_process_hash_seed(self):
        """The stub's generator seed once came from ``hash(host)``, which
        Python randomises per process."""
        script = ("from repro.web.site import external_stub_site\n"
                  "site = external_stub_site('www.w3.org', n_pages=3)\n"
                  "print([(path, page.age_days.hex(), page.size)\n"
                  "       for path, page in sorted(site.pages.items())])\n")
        source_root = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        outputs = [subprocess.run(
            [sys.executable, "-c", script], check=True, timeout=60,
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=source_root,
                     PYTHONHASHSEED=hash_seed)).stdout
            for hash_seed in ("1", "2")]
        assert outputs[0] == outputs[1] and "index.html" in outputs[0]


@pytest.fixture
def served(kernel, network, small_site):
    server_host = SimHost(kernel, network, "www.test")
    client_host = SimHost(kernel, network, "client.test")
    network.link("client.test", "www.test", latency=0.001,
                 bandwidth=125_000.0)
    server = WebServer(server_host, small_site)
    deployment = WebDeployment([server])
    return server, deployment, client_host, server_host


class TestWebServer:
    def test_get_existing_page(self, served, small_site):
        server = served[0]
        response, seconds = server.handle(
            HttpRequest("GET", small_site.root_path))
        assert response.status == 200
        assert response.body == small_site.pages[small_site.root_path].html
        assert seconds > 0

    def test_get_missing_page_404(self, served):
        response, _ = served[0].handle(HttpRequest("GET", "/nope.html"))
        assert response.status == 404 and not response.ok

    def test_head_has_no_body(self, served, small_site):
        response, _ = served[0].handle(
            HttpRequest("HEAD", small_site.root_path))
        assert response.status == 200 and response.body == ""
        assert response.content_length > 0

    def test_unsupported_method_501(self, served):
        response, _ = served[0].handle(HttpRequest("POST", "/x"))
        assert response.status == 501

    def test_path_normalised(self, served, small_site):
        messy = small_site.root_path.replace("/", "//", 1)
        response, _ = served[0].handle(HttpRequest("GET", messy))
        assert response.status == 200

    def test_counters(self, served, small_site):
        server = served[0]
        server.handle(HttpRequest("GET", small_site.root_path))
        server.handle(HttpRequest("GET", "/missing"))
        assert server.requests_served == 2
        assert server.bytes_served > 0

    def test_service_time_scales_with_size(self):
        model = ServerModel(per_request_cpu=0.001, per_kilobyte_cpu=0.001)
        from repro.web.server import HttpResponse
        small = model.service_seconds(HttpResponse(200, "x"))
        large = model.service_seconds(HttpResponse(200, "x" * 10_240))
        assert large > small

    def test_handle_charges_what_the_model_says(self, served, small_site):
        server, _, _, server_host = served
        for request in (HttpRequest("GET", small_site.root_path),
                        HttpRequest("HEAD", small_site.root_path),
                        HttpRequest("GET", "/ikke/her/\u00e6\u00f8\u00e5.html"),
                        HttpRequest("POST", "/x")):
            response, seconds = server.handle(request)
            assert response.body_bytes == len(response.body.encode("utf-8"))
            assert seconds == server_host.cpu_seconds(
                server.model.service_seconds(response))
            assert response.wire_bytes == \
                response._replace(body_bytes=None).wire_bytes

    def test_deployment_resolution(self, served):
        _, deployment, _, _ = served
        from repro.web import urls
        assert deployment.resolve(urls.parse("http://www.test/")) is not None
        assert deployment.resolve(urls.parse("http://ghost/")) is None

    def test_deployment_duplicate_rejected(self, served):
        server, deployment, _, _ = served
        with pytest.raises(ValueError):
            deployment.add(server)


class TestHttpClient:
    def test_local_vs_remote_cost(self, served, small_site, kernel):
        server, deployment, client_host, server_host = served
        local_ledger, remote_ledger = CostLedger(), CostLedger()
        local = SimHttpClient(server_host, server_host.network, deployment,
                              local_ledger)
        remote = SimHttpClient(client_host, client_host.network, deployment,
                               remote_ledger)
        url = small_site.root_url
        assert local.get(url).status == 200
        assert remote.get(url).status == 200
        assert remote_ledger.seconds("network") > \
            local_ledger.seconds("network") * 10

    def test_unknown_host_connect_fail(self, served):
        _, deployment, client_host, _ = served
        client = SimHttpClient(client_host, client_host.network, deployment,
                               CostLedger())
        response = client.get("http://no-such-host/")
        assert response.status == 0 and response.failed_to_connect
        assert client.ledger.seconds("connect-fail") > 0

    def test_malformed_url_fails_cleanly(self, served):
        _, deployment, client_host, _ = served
        client = SimHttpClient(client_host, client_host.network, deployment,
                               CostLedger())
        assert client.get("not a url").status == 0

    def test_head_cheaper_than_get(self, served, small_site):
        _, deployment, client_host, _ = served
        get_ledger, head_ledger = CostLedger(), CostLedger()
        SimHttpClient(client_host, client_host.network, deployment,
                      get_ledger).get(small_site.root_url)
        SimHttpClient(client_host, client_host.network, deployment,
                      head_ledger).head(small_site.root_url)
        assert head_ledger.total_seconds < get_ledger.total_seconds

    def test_partitioned_link_is_connect_fail(self, served, small_site):
        _, deployment, client_host, _ = served
        client_host.network.set_link_up("client.test", "www.test", False)
        client = SimHttpClient(client_host, client_host.network, deployment,
                               CostLedger())
        assert client.get(small_site.root_url).failed_to_connect

    @pytest.mark.parametrize("handshake_rtts", [1, 0])
    def test_crashed_host_is_connect_fail(self, served, small_site,
                                          handshake_rtts):
        """A crashed endpoint used to escape ``request`` as
        ``HostDownError`` where a partitioned link answered status 0."""
        server, deployment, client_host, server_host = served
        client = SimHttpClient(client_host, client_host.network, deployment,
                               CostLedger(), model=ClientModel(
                                   handshake_rtts=handshake_rtts))
        server_host.set_up(False)
        response = client.get(small_site.root_url)
        assert response.failed_to_connect
        assert response.url == small_site.root_url
        assert client.ledger.seconds("connect-fail") == \
            client.model.connect_fail_seconds
        assert client.ledger.seconds("network") == 0.0
        assert server.requests_served == 0
        server_host.set_up(True)
        assert client.get(small_site.root_url).status == 200

    def test_stationary_crawl_survives_a_mid_crawl_host_crash(
            self, served, small_site):
        server, deployment, client_host, server_host = served
        client = SimHttpClient(client_host, client_host.network, deployment,
                               CostLedger())

        class CrashAfter:
            """The robot's ``http``: the web host dies after five GETs."""

            def get(self, url):
                if client.requests_made == 5:
                    server_host.set_up(False)
                return client.get(url)

        result = Webbot(WebbotConfig(start_url=small_site.root_url,
                                     prefix="http://www.test/",
                                     max_depth=10, honor_robots=False),
                        CrashAfter()).run()
        assert server.requests_served == 5
        assert result["pages_scanned"] == result["status_counts"]["200"]
        assert result["status_counts"]["0"] == client.requests_made - 5 > 0
        unreachable = [record for record in result["invalid"]
                       if record["status"] == 0]
        assert len(unreachable) == result["status_counts"]["0"]
        assert client.ledger.seconds("connect-fail") == pytest.approx(
            len(unreachable) * client.model.connect_fail_seconds)

    def test_handshake_rtts_charged(self, served, small_site):
        _, deployment, client_host, _ = served
        with_hs = CostLedger()
        without_hs = CostLedger()
        SimHttpClient(client_host, client_host.network, deployment, with_hs,
                      model=ClientModel(handshake_rtts=1)
                      ).get(small_site.root_url)
        SimHttpClient(client_host, client_host.network, deployment,
                      without_hs, model=ClientModel(handshake_rtts=0)
                      ).get(small_site.root_url)
        assert with_hs.seconds("network") - without_hs.seconds("network") \
            == pytest.approx(0.002)

    def test_request_counter(self, served, small_site):
        _, deployment, client_host, _ = served
        client = SimHttpClient(client_host, client_host.network, deployment,
                               CostLedger())
        client.get(small_site.root_url)
        client.head(small_site.root_url)
        assert client.requests_made == 2

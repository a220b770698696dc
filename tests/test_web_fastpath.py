"""One request, one pass: the simulated HTTP exchange against the
exchange it replaced (``tests/oracles/web.py``), the errors the
flattened functions must still raise, their call budget, and the
``compile_source`` memo."""

import sys
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.core.errors import VMError
from repro.obs.telemetry import Telemetry
from repro.robot.linkcheck import validate_rejected
from repro.robot.webbot import Webbot, WebbotConfig
from repro.sim.eventloop import Kernel
from repro.sim.host import SimHost
from repro.sim.ledger import CostLedger
from repro.sim.network import (BANDWIDTH_1MBIT, BANDWIDTH_100MBIT,
                               LATENCY_LAN, LATENCY_WAN, HostDownError,
                               LinkDownError, Network, NoRouteError)
from repro.vm import loader
from repro.web import urls
from repro.web.client import ClientResponse, SimHttpClient
from repro.web.page import Page
from repro.web.server import (HttpRequest, HttpResponse, WebDeployment,
                              WebServer)
from repro.web.site import Site, SiteSpec, SiteTruth, generate_site, \
    external_stub_site
from tests.oracles.web import (ReferenceClient, ReferenceHost,
                               ReferenceNetwork, ReferenceServer,
                               reference_normalize_path)

PRODUCT = SimpleNamespace(network=Network, host=SimHost, server=WebServer,
                          client=SimHttpClient)
REFERENCE = SimpleNamespace(network=ReferenceNetwork, host=ReferenceHost,
                            server=ReferenceServer, client=ReferenceClient)

SITE_HOST = "www.fast.test"
CLIENT = "client.fast.test"
EXTERNALS = ("up.ext.test", "cut.ext.test", "down.ext.test",
             "unknown.ext.test")
NON_ASCII_PATH = "/ikke/her/æøå.html"


def crawl_site() -> Site:
    return generate_site(SiteSpec(
        host=SITE_HOST, n_pages=60, total_bytes=180_000,
        dead_internal_fraction=0.05, external_link_fraction=0.15,
        external_hosts=EXTERNALS, external_dead_fraction=0.3,
        redirect_fraction=0.08, robots_disallow=("/private/",),
        private_pages=3, asset_fraction=0.1, seed=18))


class Recorder:
    """The robot's ``http``: every exchange, in order."""

    def __init__(self, client):
        self.client = client
        self.exchanges = []

    def get(self, url):
        return self._note("GET", url, self.client.get(url))

    def head(self, url):
        return self._note("HEAD", url, self.client.head(url))

    def _note(self, method, url, response):
        assert type(response) is ClientResponse
        self.exchanges.append((method, url, response))
        return response


def crawl(kinds, site, telemetry: bool, origin: str) -> dict:
    """A prefix-constrained crawl plus the HEAD second pass over what it
    rejected, through ``kinds``' classes; everything observable after."""
    kernel = Kernel(telemetry=Telemetry(enabled=telemetry))
    network = kinds.network(kernel)
    hosts = {name: kinds.host(kernel, network, name)
             for name in (CLIENT, SITE_HOST) + EXTERNALS[:3]}
    network.link(CLIENT, SITE_HOST, latency=LATENCY_LAN,
                 bandwidth=BANDWIDTH_100MBIT)
    servers = [kinds.server(hosts[SITE_HOST], site)]
    for name in EXTERNALS[:3]:
        servers.append(kinds.server(hosts[name], external_stub_site(name)))
        for attached in (CLIENT, SITE_HOST):
            network.link(attached, name, latency=LATENCY_WAN,
                         bandwidth=BANDWIDTH_1MBIT)
    network.set_link_up(origin, "cut.ext.test", False)
    hosts["down.ext.test"].set_up(False)
    client = kinds.client(hosts[origin], network, WebDeployment(servers),
                          CostLedger())
    http = Recorder(client)

    result = Webbot(WebbotConfig(start_url=site.root_url,
                                 prefix=f"http://{SITE_HOST}/",
                                 max_depth=6), http).run()
    second_pass = validate_rejected(result["rejected"], http)
    http.get(f"http://{SITE_HOST}{NON_ASCII_PATH}")
    http.get(f"http://{SITE_HOST}//d00/.././index.html#top")
    http.get("not a url")
    client.request("POST", site.root_url)

    ledger = client.ledger
    return {
        "result": result,
        "second_pass": second_pass,
        "exchanges": http.exchanges,
        "requests_made": client.requests_made,
        "ledger_seconds": {category: seconds.hex() for category, seconds
                           in ledger.seconds_by_category.items()},
        "ledger_bytes": dict(ledger.bytes_by_category),
        "ledger_events": ledger.events,
        "links": {key: (link.stats.messages, link.stats.payload_bytes,
                        link.stats.busy_seconds.hex())
                  for key, link in network._links.items()},
        "cpu": {name: (host.cpu_stats.busy_seconds.hex(),
                       host.cpu_stats.operations)
                for name, host in hosts.items()},
        "served": {server.site_key: (server.requests_served,
                                     server.bytes_served)
                   for server in servers},
        "metrics": kernel.telemetry.metrics.snapshot(),
    }


class TestOnePassEqualsTheWalk:
    @pytest.mark.parametrize("origin", [CLIENT, SITE_HOST],
                             ids=["stationary", "at-the-server"])
    @pytest.mark.parametrize("telemetry", [False, True],
                             ids=["telemetry-off", "telemetry-on"])
    def test_crawl_is_bit_identical(self, telemetry, origin):
        site = crawl_site()
        fast = crawl(PRODUCT, site, telemetry, origin)
        walk = crawl(REFERENCE, site, telemetry, origin)
        for key in walk:
            assert fast[key] == walk[key], key

        # The crawl really went where the comparison needs it to go.
        by_status = Counter((method, response.status)
                            for method, _url, response in fast["exchanges"])
        for wanted in (("GET", 200), ("GET", 404), ("GET", 301),
                       ("HEAD", 200), ("HEAD", 404), ("HEAD", 0)):
            assert by_status[wanted], (wanted, by_status)
        assert fast["ledger_seconds"]["connect-fail"] != (0.0).hex()
        assert fast["result"]["pages_scanned"] >= 50
        assert any(record["reason"] == "robots"
                   for record in fast["result"]["rejected"])
        assert bool(fast["metrics"]) is telemetry
        loopback = (SITE_HOST, SITE_HOST)
        assert (loopback in fast["links"]) is (origin == SITE_HOST)

    def test_non_ascii_404_is_measured_in_bytes(self):
        fast = crawl(PRODUCT, crawl_site(), False, CLIENT)
        (response,) = [response for _m, url, response in fast["exchanges"]
                       if url.endswith(NON_ASCII_PATH)]
        assert response.status == 404
        assert len(response.body.encode("utf-8")) == len(response.body) + 3


class TestRecords:
    @pytest.mark.parametrize("record", [
        urls.Url("h.test", 80, "/"), HttpRequest("GET", "/"),
        HttpResponse(200, "x"), ClientResponse("http://h.test/", 200)])
    def test_still_immutable(self, record):
        with pytest.raises(AttributeError):
            record.status = 500
        with pytest.raises(AttributeError):
            record.path = "/elsewhere"

    def test_page_size_is_taken_when_the_page_is_made(self):
        page = Page(path="/p", html="blåbær")
        assert page.size == 8 and "size" in vars(page)


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

SEGMENTS = st.sampled_from([
    "", ".", "..", "...", ".hidden", "a", "b.html", "d00", "x#frag", "#",
    "å", "a.", "..b"])
PATHS = st.one_of(
    st.builds(lambda root, parts, tail, fragment:
              root + "/".join(parts) + tail + fragment,
              st.sampled_from(["/", "", "//"]),
              st.lists(SEGMENTS, max_size=6),
              st.sampled_from(["", "/", "/.", "/.."]),
              st.sampled_from(["", "#", "#frag", "#a/b/../c"])),
    st.text(alphabet="/.#ab", max_size=12))


class TestNormalizePath:
    @given(PATHS)
    @example("")
    @example("/")
    @example("/a/b/")
    @example("/a/.hidden")
    @example("/index.html")
    @example("relative/path")
    def test_equals_the_segment_loop(self, path):
        normal = urls.normalize_path(path)
        assert normal == reference_normalize_path(path)
        if normal is path:
            # Only the early return hands the argument back.
            assert reference_normalize_path(path) == path
        assert urls.normalize_path(normal) == normal

    def test_early_return_takes_the_paths_a_crawl_sends(self):
        for path in list(crawl_site().pages) + ["/", "/missing/gone.html",
                                                "/d00/", NON_ASCII_PATH]:
            assert urls.normalize_path(path) is path


def lan_pair(network_class=Network, host_class=SimHost):
    kernel = Kernel()
    network = network_class(kernel)
    client = host_class(kernel, network, CLIENT)
    server = host_class(kernel, network, SITE_HOST)
    network.link(CLIENT, SITE_HOST, latency=LATENCY_LAN,
                 bandwidth=BANDWIDTH_100MBIT)
    return network, client, server


#: ``sys.setprofile`` call events for one request over a LAN link, GET
#: and HEAD alike, as measured on CPython 3.11 when the exchange became
#: one pass (64 before it); budget = measured + 10 %.
REQUEST_CALLS_MEASURED = 28
REQUEST_CALLS_BUDGET = 31


def test_one_request_stays_within_its_call_budget():
    """``count.py_calls`` of the repo benchmark's ``e1_crawl``, for one
    request, where CI runs it: a per-request walk added back under
    ``SimHttpClient.request`` fails here in seconds, on any host."""
    network, client_host, server_host = lan_pair()
    page = Page(path="/index.html", html="x" * 3000)
    site = Site(host=SITE_HOST, pages={page.path: page},
                root_path=page.path, truth=SiteTruth())
    client = SimHttpClient(
        client_host, network,
        WebDeployment([WebServer(server_host, site)]), CostLedger())

    def count_calls(send):
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            response = send(site.root_url)
        finally:
            sys.setprofile(previous)
        assert response.status == 200
        return calls

    count_calls(client.get)     # first use of every lazy path
    for method, send in (("GET", client.get), ("HEAD", client.head)):
        calls = count_calls(send)
        assert calls <= REQUEST_CALLS_BUDGET, (
            f"{calls} Python calls for one {method}; "
            f"{REQUEST_CALLS_MEASURED} when the budget of "
            f"{REQUEST_CALLS_BUDGET} was set")


@pytest.mark.parametrize("network_class", [Network, ReferenceNetwork],
                         ids=["product", "reference"])
class TestChargeStillRaises:
    """Every check ``charge`` made through its helpers, in their order:
    no route, then link down, then endpoint down, then negative bytes."""

    def test_in_the_parents_order(self, network_class):
        network, client, server = lan_pair(network_class)
        stranger = SimHost(network.kernel, network, "stranger.test")
        stats = network.stats_between(CLIENT, SITE_HOST)

        server.set_up(False)
        stranger.set_up(False)
        network.set_link_up(CLIENT, SITE_HOST, False)
        with pytest.raises(NoRouteError):
            network.charge(CLIENT, "stranger.test", -1)
        with pytest.raises(LinkDownError):
            network.charge(CLIENT, SITE_HOST, -1)
        network.set_link_up(CLIENT, SITE_HOST, True)
        with pytest.raises(HostDownError, match=SITE_HOST):
            network.charge(CLIENT, SITE_HOST, -1)
        client.set_up(False)
        with pytest.raises(HostDownError, match=CLIENT):
            network.charge(CLIENT, SITE_HOST, 10)
        client.set_up(True)
        server.set_up(True)
        with pytest.raises(ValueError, match="negative number of bytes"):
            network.charge(CLIENT, SITE_HOST, -1)
        assert (stats.messages, stats.payload_bytes,
                stats.busy_seconds) == (0, 0, 0.0)

        assert network.charge(CLIENT, SITE_HOST, 1250) == \
            LATENCY_LAN + 1250 / BANDWIDTH_100MBIT
        assert (stats.messages, stats.payload_bytes) == (1, 1250)

    def test_loopback_and_default_links_are_still_made_on_demand(
            self, network_class):
        kernel = Kernel()
        network = network_class(kernel, default_latency=0.01,
                                default_bandwidth=1000.0)
        for name in ("a.test", "b.test"):
            network.add_host(name)
        assert network.charge("a.test", "a.test", 0) > 0
        assert network.charge("a.test", "b.test", 1000) == 0.01 + 1.0
        assert network.stats_between("b.test", "a.test").messages == 0
        with pytest.raises(NoRouteError):
            network.charge("a.test", "nowhere.test", 0)


class TestCostsStillRejectNegatives:
    @pytest.mark.parametrize("host_class", [SimHost, ReferenceHost],
                             ids=["product", "reference"])
    def test_negative_reference_seconds(self, host_class):
        _network, host, _server = lan_pair(host_class=host_class)
        with pytest.raises(ValueError, match="reference_seconds"):
            host.charge_compute(-0.001)
        with pytest.raises(ValueError, match="reference_seconds"):
            next(host.compute(-0.001))
        assert (host.cpu_stats.busy_seconds, host.cpu_stats.operations) \
            == (0.0, 0)
        assert host.charge_compute(0.5) == 0.5
        assert (host.cpu_stats.busy_seconds, host.cpu_stats.operations) \
            == (0.5, 1)

    def test_negative_ledger_costs(self):
        ledger = CostLedger()
        for charge in (lambda: ledger.add("network", -1.0),
                       lambda: ledger.add("network", 1.0, -1),
                       lambda: ledger.add_network(-1.0, 10),
                       lambda: ledger.add_network(1.0, -10),
                       lambda: ledger.add_cpu(-1.0),
                       lambda: ledger.add_server(-1.0)):
            with pytest.raises(ValueError, match="non-negative"):
                charge()
        assert ledger.events == 0 and not ledger.seconds_by_category


class TestCompileSourceMemo:
    def test_equal_sources_compile_once(self):
        first = loader.pack_source("def main():\n    return 41\n", "main")
        again = loader.pack_source("def main():\n    return 41\n", "main")
        other = loader.pack_source("def main():\n    return 42\n", "main")
        assert first is not again
        compiled = loader.compile_source(first)
        assert loader.compile_source(again) is compiled
        assert loader.compile_source(other) != compiled
        assert loader.materialize_marshal(compiled)() == 41
        assert loader.materialize_marshal(
            loader.compile_source(other))() == 42

    def test_a_failed_compilation_is_not_remembered(self):
        broken = loader.pack_source("def main(:\n", "main")
        before = loader.compile_source.cache_info().currsize
        for _ in range(2):
            with pytest.raises(VMError, match="compilation failed"):
                loader.compile_source(broken)
        assert loader.compile_source.cache_info().currsize == before

"""The simulated HTTP exchange as it was before it became one pass: the
oracle ``SimHttpClient.request`` and everything under it are tested
against.

Transcribed from the product at the commit before the one-pass work:
``charge`` walks ``link_between`` → ``_check_endpoints`` →
``Link.transfer_time`` → ``LinkStats.record`` → ``_record_traffic``,
``charge_compute`` walks ``cpu_seconds`` → ``CpuStats.record`` →
``_record_cpu``, ``handle`` normalises with the segment loop and
measures the body each time its size is wanted (its responses carry no
``body_bytes``), and ``request`` books every entry on its own through
``CostLedger.add`` and ``add_cpu``, and works out each message's size
twice from ``REQUEST_OVERHEAD_BYTES`` / ``RESPONSE_OVERHEAD_BYTES``.
One deliberate difference: like the
product, ``request`` treats a crashed endpoint as a failed connection
(the parent let ``HostDownError`` escape — a bug fixed in the same
change).

The product has since resolved the path once (``Network.route``),
crossed it through ``Network.cross`` and booked the exchange in one
``CostLedger.add_exchange``; the oracle still charges crossing by
crossing and entry by entry, which is what it pins.

The ``Reference*`` classes subclass the product's and override only the
method under test, so a world built from them is wired exactly like a
world built from the product classes.
"""

from repro.sim.host import SimHost
from repro.sim.network import HostDownError, LinkDownError, Network
from repro.web import urls
from repro.web.client import ClientResponse, SimHttpClient
from repro.web.server import (
    REQUEST_OVERHEAD_BYTES,
    RESPONSE_OVERHEAD_BYTES,
    HttpRequest,
    HttpResponse,
    WebServer,
)


def reference_normalize_path(path: str) -> str:
    path = path.split("#", 1)[0]
    if not path.startswith("/"):
        path = "/" + path
    segments = []
    for segment in path.split("/"):
        if segment in ("", "."):
            continue
        if segment == "..":
            if segments:
                segments.pop()
            continue
        segments.append(segment)
    normalized = "/" + "/".join(segments)
    if path.endswith("/") and normalized != "/":
        normalized += "/"
    return normalized


def _body_bytes(response) -> int:
    return len(response.body.encode("utf-8"))


def _request_bytes(request) -> int:
    return REQUEST_OVERHEAD_BYTES + len(request.method) + len(request.path)


def _response_bytes(response) -> int:
    return RESPONSE_OVERHEAD_BYTES + _body_bytes(response)


class ReferenceNetwork(Network):
    def _reference_record_traffic(self, link, nbytes, seconds):
        telemetry = self.kernel.telemetry
        if not telemetry.enabled:
            return
        metrics = telemetry.metrics
        metrics.inc("net.bytes_on_wire", nbytes, src=link.src, dst=link.dst)
        metrics.inc("net.messages", src=link.src, dst=link.dst)
        metrics.observe("net.transfer_seconds", seconds,
                        src=link.src, dst=link.dst)

    def charge(self, src, dst, nbytes):
        link = self.link_between(src, dst)
        if not link.up:
            raise LinkDownError(f"link {src} -> {dst} is partitioned")
        self._check_endpoints(src, dst)
        seconds = link.transfer_time(nbytes)
        link.stats.record(nbytes, seconds)
        self._reference_record_traffic(link, nbytes, seconds)
        return seconds


class ReferenceHost(SimHost):
    def _reference_record_cpu(self, seconds):
        telemetry = self.kernel.telemetry
        if telemetry.enabled:
            telemetry.metrics.inc("host.cpu_seconds", seconds,
                                  host=self.name)

    def charge_compute(self, reference_seconds):
        seconds = self.cpu_seconds(reference_seconds)
        self.cpu_stats.busy_seconds += seconds
        self.cpu_stats.operations += 1
        self._reference_record_cpu(seconds)
        return seconds


class ReferenceServer(WebServer):
    def _reference_service_seconds(self, response):
        size_kb = _body_bytes(response) / 1024.0
        return self.model.per_request_cpu + \
            size_kb * self.model.per_kilobyte_cpu

    def handle(self, request):
        self.requests_served += 1
        if request.method not in ("GET", "HEAD"):
            response = HttpResponse(501)
        else:
            path = reference_normalize_path(request.path)
            if path == "/robots.txt" and self.site.robots_txt is not None:
                body = "" if request.method == "HEAD" else \
                    self.site.robots_txt
                response = HttpResponse(
                    200, body, content_length=len(self.site.robots_txt))
            elif path in self.site.redirects:
                target = self.site.redirects[path]
                location = target if "://" in target else \
                    f"http://{self.site.host}{target}"
                response = HttpResponse(301, location=location)
            else:
                page = self.site.pages.get(path)
                if page is None:
                    body = "" if request.method == "HEAD" else \
                        f"<html><body>404 Not Found: {path}</body></html>"
                    response = HttpResponse(404, body,
                                            content_length=len(body))
                else:
                    body = "" if request.method == "HEAD" else page.html
                    response = HttpResponse(
                        200, body,
                        content_length=len(page.html.encode("utf-8")),
                        content_type=page.content_type,
                        age_days=page.age_days)
        self.bytes_served += _body_bytes(response)
        seconds = self.host.charge_compute(
            self._reference_service_seconds(response))
        return response, seconds


class ReferenceClient(SimHttpClient):
    def request(self, method, url):
        self.requests_made += 1
        try:
            parsed = urls.parse(url)
        except urls.UrlError:
            return ClientResponse(url=url, status=0)
        server = self.deployment.resolve(parsed)
        if server is None:
            self.ledger.add("connect-fail", self.model.connect_fail_seconds)
            return ClientResponse(url=str(parsed), status=0)

        request = HttpRequest(method=method, path=parsed.path)
        src = self.origin_host.name
        dst = server.host.name
        try:
            for _ in range(self.model.handshake_rtts):
                self.ledger.add("network", self.network.charge(src, dst, 0))
                self.ledger.add("network", self.network.charge(dst, src, 0))
            seconds_out = self.network.charge(src, dst,
                                              _request_bytes(request))
        except (LinkDownError, HostDownError):
            self.ledger.add("connect-fail", self.model.connect_fail_seconds)
            return ClientResponse(url=str(parsed), status=0)
        self.ledger.add("network", seconds_out, _request_bytes(request))

        response, service_seconds = server.handle(request)
        self.ledger.add("server", service_seconds)

        seconds_back = self.network.charge(dst, src,
                                           _response_bytes(response))
        self.ledger.add("network", seconds_back, _response_bytes(response))

        handling = self.origin_host.charge_compute(
            self.model.per_request_cpu +
            _body_bytes(response) * self.model.per_byte_cpu)
        self.ledger.add_cpu(handling)

        return ClientResponse(url=str(parsed), status=response.status,
                              body=response.body,
                              location=response.location,
                              content_type=response.content_type,
                              age_days=response.age_days)

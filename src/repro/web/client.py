"""Simulated HTTP client.

This is the seam that lets *unmodified synchronous programs* (the Webbot)
run inside the virtual-time simulation: every request's network transfer,
server service time, and client-side processing is charged to a
:class:`~repro.sim.ledger.CostLedger` instead of blocking.  The hosting
agent later sleeps for the accumulated total (see
:mod:`repro.sim.ledger` for why this is exact here).

The same client class serves both deployment styles in the paper's
experiment:

- the **stationary** robot runs on the client workstation, so every page
  crosses the LAN/WAN link;
- the **mobile** robot runs on the web-server host itself, so requests
  traverse only the loopback link.

The only difference is ``origin_host``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.sim.host import SimHost
from repro.sim.ledger import CostLedger
from repro.sim.network import HostDownError, LinkDownError, Network
from repro.web import urls
from repro.web.server import (REQUEST_OVERHEAD_BYTES,
                              RESPONSE_OVERHEAD_BYTES, HttpRequest,
                              WebDeployment)

#: Builds a record from its full field tuple without the generated
#: ``__new__``'s Python frame.
_new = tuple.__new__


@dataclass(frozen=True)
class ClientModel:
    """Client-side timing model (reference CPU seconds).

    ``per_byte_cpu`` covers receiving and handling response data on the
    client host (protocol handling, copying, parsing by the caller);
    ``connect_fail_seconds`` is the timeout burned on a host that does
    not resolve or answer; ``handshake_rtts`` models HTTP/1.0's
    connection-per-request behaviour (one TCP setup round trip before
    each request, paid in link latency).
    """

    per_request_cpu: float = 0.0005
    per_byte_cpu: float = 1.5e-6
    connect_fail_seconds: float = 0.25
    handshake_rtts: int = 1


class ClientResponse(NamedTuple):
    """What the caller of the HTTP client sees."""

    url: str
    status: int
    body: str = ""
    location: Optional[str] = None
    content_type: str = "text/html"
    age_days: Optional[float] = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def failed_to_connect(self) -> bool:
        return self.status == 0


class SimHttpClient:
    """A synchronous, cost-accounting HTTP client bound to one host."""

    def __init__(self, origin_host: SimHost, network: Network,
                 deployment: WebDeployment, ledger: Optional[CostLedger] = None,
                 model: Optional[ClientModel] = None):
        self.origin_host = origin_host
        self.network = network
        self.deployment = deployment
        self.ledger = ledger if ledger is not None else CostLedger()
        self.model = model or ClientModel()
        self.requests_made = 0

    # -- public API --------------------------------------------------------------

    def get(self, url: str) -> ClientResponse:
        return self.request("GET", url)

    def head(self, url: str) -> ClientResponse:
        return self.request("HEAD", url)

    def request(self, method: str, url: str) -> ClientResponse:
        """Perform a request, charging all costs to the ledger.

        A host that is unknown, partitioned away or crashed costs one
        connect timeout and answers with ``status == 0``.

        One pass: the path is resolved once (:meth:`Network.route`),
        each crossing — SYN and SYN-ACK per handshake round trip, the
        request, the response — is checked and recorded by
        :meth:`Network.cross` in that order, and the exchange's costs
        reach the ledger in one :meth:`CostLedger.add_exchange` — those
        of an exchange that fails part-way too.
        """
        self.requests_made += 1
        try:
            parsed = urls.parse(url)
        except urls.UrlError:
            return _new(ClientResponse, (url, 0, "", None, "text/html", None))
        server = self.deployment.resolve(parsed)
        model = self.model
        crossings = []
        nbytes = 0
        service_seconds = handling_seconds = connect_fail = None
        try:
            if server is not None:
                path = parsed.path
                # HttpRequest.wire_bytes
                request_bytes = REQUEST_OVERHEAD_BYTES + len(method) + \
                    len(path)
                network = self.network
                cross = network.cross
                out, back = network.route(self.origin_host.name,
                                          server.host.name)
                try:
                    for _ in range(model.handshake_rtts):
                        # TCP setup: two latency-only crossings.
                        crossings.append(cross(out, 0))
                        crossings.append(cross(back, 0))
                    crossings.append(cross(out, request_bytes))
                except (LinkDownError, HostDownError):
                    server = None   # no connection: as for an unknown host
            if server is None:
                connect_fail = model.connect_fail_seconds
                return _new(ClientResponse,
                            (str(parsed), 0, "", None, "text/html", None))
            nbytes = request_bytes

            response, service_seconds = server.handle(
                _new(HttpRequest, (method, path)))
            body_bytes = response.body_bytes
            # HttpResponse.wire_bytes, on the size handle measured.
            response_bytes = RESPONSE_OVERHEAD_BYTES + body_bytes
            crossings.append(cross(back, response_bytes))
            nbytes += response_bytes
            handling_seconds = self.origin_host.charge_compute(
                model.per_request_cpu + body_bytes * model.per_byte_cpu)
        finally:
            self.ledger.add_exchange(crossings, nbytes, service_seconds,
                                     handling_seconds, connect_fail)
        return _new(ClientResponse,
                    (str(parsed), response.status, response.body,
                     response.location, response.content_type,
                     response.age_days))

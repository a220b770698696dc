"""Shared fixtures for the test suite."""

import pytest

from repro.obs.telemetry import Telemetry
from repro.sim.eventloop import Kernel
from repro.sim.network import BANDWIDTH_100MBIT, LATENCY_LAN, Network
from repro.sim.host import SimHost
from repro.system.cluster import TaxCluster
from repro.system.bootstrap import build_linkcheck_testbed
from repro.web.site import SiteSpec


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def network(kernel):
    return Network(kernel)


@pytest.fixture
def host(kernel, network):
    return SimHost(kernel, network, "host.test")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "telemetry: build the test's single_cluster or "
        "pair_cluster with telemetry on")


def cluster_telemetry(request):
    """A cluster fixture's telemetry: on under ``@pytest.mark.telemetry``,
    off otherwise (a world's telemetry is fixed when it is built)."""
    marked = request.node.get_closest_marker("telemetry") is not None
    return Telemetry(enabled=marked)


@pytest.fixture
def pair_cluster(request):
    """Two booted TAX nodes on a LAN."""
    cluster = TaxCluster(telemetry=cluster_telemetry(request))
    cluster.add_node("alpha.test")
    cluster.add_node("beta.test")
    cluster.network.link("alpha.test", "beta.test",
                         latency=LATENCY_LAN, bandwidth=BANDWIDTH_100MBIT)
    return cluster


@pytest.fixture
def single_cluster(request):
    """One booted TAX node."""
    cluster = TaxCluster(telemetry=cluster_telemetry(request))
    cluster.add_node("solo.test")
    return cluster


def parked_targets(queue):
    """The target names of the messages a ``PendingQueue`` holds, in
    queue order."""
    return [entry.message.target.name for entry in queue._pending]


def small_site_spec(**overrides):
    """A small-but-real site spec for fast integration tests."""
    defaults = dict(
        host="www.cs.uit.no", n_pages=60, total_bytes=200_000,
        external_hosts=("www.w3.org", "www.cornell.edu"),
        dead_internal_fraction=0.05, external_link_fraction=0.10,
        external_dead_fraction=0.3, seed=42)
    defaults.update(overrides)
    return SiteSpec(**defaults)


@pytest.fixture
def small_testbed():
    """A linkcheck testbed over a small site (fast)."""
    return build_linkcheck_testbed(spec=small_site_spec())

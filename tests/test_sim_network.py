"""Unit tests for the simulated network."""

import pytest

from repro.sim.network import (
    BANDWIDTH_100MBIT,
    LATENCY_LAN,
    Link,
    LinkDownError,
    Network,
    NoRouteError,
)


@pytest.fixture
def lan(kernel):
    net = Network(kernel)
    net.link("a", "b", latency=0.001, bandwidth=1000.0)
    return net


class TestTopology:
    def test_link_is_symmetric(self, lan):
        assert lan.link_between("a", "b").latency == 0.001
        assert lan.link_between("b", "a").latency == 0.001

    def test_links_are_independent_directions(self, lan):
        lan.link_between("a", "b").stats.record(10, 1.0)
        assert lan.link_between("b", "a").stats.messages == 0

    def test_loopback_is_implicit(self, lan):
        loop = lan.link_between("a", "a")
        assert loop.latency < 0.0001

    def test_explicit_loopback_rejected(self, lan):
        with pytest.raises(ValueError):
            lan.link("a", "a")

    def test_missing_route_raises(self, lan):
        with pytest.raises(NoRouteError):
            lan.link_between("a", "nowhere")

    def test_default_link_parameters(self, kernel):
        net = Network(kernel, default_latency=0.01,
                      default_bandwidth=500.0)
        net.add_host("x")
        net.add_host("y")
        link = net.link_between("x", "y")
        assert link.latency == 0.01 and link.bandwidth == 500.0

    def test_default_links_require_known_hosts(self, kernel):
        net = Network(kernel, default_latency=0.01,
                      default_bandwidth=500.0)
        net.add_host("x")
        with pytest.raises(NoRouteError):
            net.link_between("x", "unknown")

    def test_hosts_listing(self, lan):
        assert list(lan.hosts) == ["a", "b"]


class TestCostModel:
    def test_transfer_time_formula(self, lan):
        # 1000 bytes at 1000 B/s + 1 ms latency.
        assert lan.transfer_time("a", "b", 1000) == pytest.approx(1.001)

    def test_zero_bytes_costs_latency_only(self, lan):
        assert lan.transfer_time("a", "b", 0) == pytest.approx(0.001)

    def test_negative_bytes_rejected(self, lan):
        with pytest.raises(ValueError):
            lan.transfer_time("a", "b", -1)

    def test_invalid_link_parameters(self):
        with pytest.raises(ValueError):
            Link("a", "b", latency=-1, bandwidth=1)
        with pytest.raises(ValueError):
            Link("a", "b", latency=0, bandwidth=0)

    def test_nan_latency_rejected(self):
        # A NaN compares false both ways: ``latency < 0`` let it through
        # and every transfer over the link then took NaN seconds.
        with pytest.raises(ValueError, match="latency"):
            Link("a", "b", latency=float("nan"), bandwidth=1e6)

    def test_nan_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="bandwidth"):
            Link("a", "b", latency=0.001, bandwidth=float("nan"))

    def test_100mbit_constant(self, kernel):
        net = Network(kernel)
        net.link("a", "b", latency=0, bandwidth=BANDWIDTH_100MBIT)
        # 3 MB over 100 Mbit/s = 0.24 s.
        assert net.transfer_time("a", "b", 3_000_000) == \
            pytest.approx(0.24)


class TestTransfer:
    def test_transfer_process_advances_clock(self, kernel, lan):
        def proc():
            seconds = yield from lan.transfer("a", "b", 500)
            return seconds
        elapsed = kernel.run_process(proc())
        assert elapsed == pytest.approx(0.501)
        assert kernel.now == pytest.approx(0.501)

    def test_transfer_records_stats(self, kernel, lan):
        def proc():
            yield from lan.transfer("a", "b", 500)
        kernel.run_process(proc())
        stats = lan.link_between("a", "b").stats
        assert stats.messages == 1
        assert stats.payload_bytes == 500

    def test_charge_records_without_waiting(self, kernel, lan):
        seconds = lan.charge("a", "b", 500)
        assert seconds == pytest.approx(0.501)
        assert kernel.now == 0
        assert lan.link_between("a", "b").stats.messages == 1

    def test_partition_blocks_transfer(self, kernel, lan):
        lan.set_link_up("a", "b", False)
        with pytest.raises(LinkDownError):
            lan.charge("a", "b", 10)

        def proc():
            yield from lan.transfer("a", "b", 10)
        with pytest.raises(LinkDownError):
            kernel.run_process(proc())

    def test_partition_heals(self, lan):
        lan.set_link_up("a", "b", False)
        lan.set_link_up("a", "b", True)
        assert lan.charge("a", "b", 10) > 0

    def test_partition_unknown_link_raises(self, lan):
        with pytest.raises(NoRouteError):
            lan.set_link_up("a", "zzz", False)

    def test_remote_byte_accounting_excludes_loopback(self, lan):
        lan.charge("a", "a", 10_000)
        lan.charge("a", "b", 100)
        assert lan.total_remote_bytes() == 100
        assert lan.total_remote_messages() == 1

    def test_busy_seconds_accumulate(self, lan):
        lan.charge("a", "b", 1000)
        lan.charge("a", "b", 1000)
        assert lan.link_between("a", "b").stats.busy_seconds == \
            pytest.approx(2.002)


class TestNetworkDefaults:
    def test_partial_defaults_do_not_create_links(self, kernel):
        from repro.sim.network import Network, NoRouteError
        net = Network(kernel, default_latency=0.01)  # no bandwidth
        net.add_host("x")
        net.add_host("y")
        with pytest.raises(NoRouteError):
            net.link_between("x", "y")

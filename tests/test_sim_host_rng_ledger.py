"""Unit tests for hosts, random streams, cost ledgers, and the one
float total they share."""

import math

import pytest

from repro.core.fold import fold_sum
from repro.sim.host import HostRegistry, SimHost
from repro.sim.ledger import CostLedger
from repro.sim.rng import RandomStream, _ZipfTable, stream_from


class TestSimHost:
    def test_cpu_factor_scales_time(self, kernel, network):
        fast = SimHost(kernel, network, "fast", cpu_factor=2.0)
        assert fast.cpu_seconds(1.0) == 0.5

    def test_invalid_cpu_factor(self, kernel, network):
        with pytest.raises(ValueError):
            SimHost(kernel, network, "h", cpu_factor=0)

    def test_compute_advances_clock_and_stats(self, kernel, network):
        host = SimHost(kernel, network, "h")

        def proc():
            yield from host.compute(0.25)
        kernel.run_process(proc())
        assert kernel.now == pytest.approx(0.25)
        assert host.cpu_stats.busy_seconds == pytest.approx(0.25)
        assert host.cpu_stats.operations == 1

    def test_charge_compute_is_synchronous(self, kernel, network):
        host = SimHost(kernel, network, "h")
        assert host.charge_compute(0.5) == 0.5
        assert kernel.now == 0

    def test_negative_work_rejected(self, kernel, network):
        host = SimHost(kernel, network, "h")
        with pytest.raises(ValueError):
            host.cpu_seconds(-1)

    def test_host_registers_on_network(self, kernel, network):
        SimHost(kernel, network, "h")
        assert "h" in list(network.hosts)


class TestHostRegistry:
    def test_add_and_get(self, kernel, network):
        registry = HostRegistry()
        host = registry.add(SimHost(kernel, network, "x"))
        assert registry.get("x") is host
        assert "x" in registry and len(registry) == 1

    def test_duplicate_rejected(self, kernel, network):
        registry = HostRegistry()
        registry.add(SimHost(kernel, network, "x"))
        with pytest.raises(ValueError):
            registry.add(SimHost(kernel, network, "x"))

    def test_unknown_host_raises(self):
        registry = HostRegistry()
        with pytest.raises(KeyError):
            registry.get("ghost")
        assert registry.find("ghost") is None


class TestRandomStream:
    def test_same_seed_same_sequence(self):
        a = RandomStream(7)
        b = RandomStream(7)
        assert [a.random() for _ in range(5)] == \
            [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        assert RandomStream(1).random() != RandomStream(2).random()

    def test_fork_is_independent_of_parent_consumption(self):
        a = RandomStream(7)
        fork_before = a.fork("child").random()
        b = RandomStream(7)
        for _ in range(100):
            b.random()
        fork_after = b.fork("child").random()
        assert fork_before == fork_after

    def test_forks_with_different_names_differ(self):
        root = RandomStream(7)
        assert root.fork("x").random() != root.fork("y").random()

    def test_zipf_index_in_range_and_skewed(self):
        stream = RandomStream(3)
        draws = [stream.zipf_index(10) for _ in range(500)]
        assert all(0 <= d < 10 for d in draws)
        assert draws.count(0) > draws.count(9)

    def test_zipf_requires_positive_n(self):
        with pytest.raises(ValueError):
            RandomStream(1).zipf_index(0)

    def test_bounded_lognormal_respects_bounds(self):
        stream = RandomStream(5)
        for _ in range(200):
            value = stream.bounded_lognormal(0, 2.0, 0.5, 2.0)
            assert 0.5 <= value <= 2.0

    def test_chance_extremes(self):
        stream = RandomStream(1)
        assert not any(stream.chance(0.0) for _ in range(50))
        assert all(stream.chance(1.0) for _ in range(50))

    @pytest.mark.parametrize("n", [1, 2, 3, 917, 1000, 2**31 - 1, 2**32,
                                   2**32 + 1, 3**25, 2**40])
    def test_index_draw_is_randint_below_n(self, n):
        draw = RandomStream(11, "draw").index_draw(n)
        reference = RandomStream(11, "draw")
        assert [draw() for _ in range(200)] == \
            [reference.randint(0, n - 1) for _ in range(200)]

    def test_stream_from_coercions(self):
        assert isinstance(stream_from(5, "x"), RandomStream)
        parent = RandomStream(5)
        child = stream_from(parent, "x")
        assert child.name == "root/x"
        assert isinstance(stream_from(None, "x"), RandomStream)
        with pytest.raises(TypeError):
            stream_from("bad", "x")


class TestCostLedger:
    def test_totals_accumulate(self):
        ledger = CostLedger()
        ledger.add_network(1.5, 100)
        ledger.add_cpu(0.5)
        ledger.add_server(0.25)
        assert ledger.total_seconds == pytest.approx(2.25)
        assert ledger.total_bytes == 100
        assert ledger.events == 3

    def test_category_breakdown(self):
        ledger = CostLedger()
        ledger.add_network(1.0, 10)
        ledger.add_network(2.0, 20)
        assert ledger.seconds("network") == pytest.approx(3.0)
        assert ledger.bytes("network") == 30
        assert ledger.seconds("cpu") == 0.0

    def test_negative_costs_rejected(self):
        ledger = CostLedger()
        with pytest.raises(ValueError):
            ledger.add("x", -1.0)
        with pytest.raises(ValueError):
            ledger.add("x", 1.0, -5)

    def test_nan_seconds_rejected(self):
        # ``seconds < 0`` accepted NaN, and a crawl's elapsed time then
        # became NaN without an error anywhere.
        ledger = CostLedger()
        with pytest.raises(ValueError, match="non-negative"):
            ledger.add("x", float("nan"))
        assert ledger.events == 0 and not ledger.seconds_by_category

    def test_merge_combines_categories(self):
        a = CostLedger()
        a.add_cpu(1.0)
        b = CostLedger()
        b.add_cpu(2.0)
        b.add_network(1.0, 50)
        a.merge(b)
        assert a.seconds("cpu") == pytest.approx(3.0)
        assert a.bytes("network") == 50
        assert a.events == 3

    def test_snapshot_is_independent(self):
        ledger = CostLedger()
        ledger.add_cpu(1.0)
        snap = ledger.snapshot()
        ledger.add_cpu(1.0)
        assert snap.total_seconds == pytest.approx(1.0)

    def test_reset(self):
        ledger = CostLedger()
        ledger.add_cpu(1.0)
        ledger.reset()
        assert ledger.total_seconds == 0 and ledger.events == 0


class TestOneFloatTotal:
    """Each total is the left fold, which ``sum`` stopped being on
    CPython 3.12 (it compensates there).  Every vector below is one on
    which the left fold and the exact sum differ, so a compensated
    total fails."""

    def test_the_helper_folds_left_to_right(self):
        values = [1e16, 1.0, -1e16]
        assert math.fsum(values) == 1.0
        assert fold_sum(values) == 0.0
        assert fold_sum([]) == 0 and fold_sum(iter([0.5, 0.25])) == 0.75

    def test_a_ledger_total_is_the_fold(self):
        ledger = CostLedger()
        for category, seconds in (("a", 1.0), ("b", 1e-16), ("c", 1e-16)):
            ledger.add(category, seconds)
        assert math.fsum(ledger.seconds_by_category.values()) > 1.0
        assert ledger.total_seconds == 1.0

    def test_a_zipf_total_is_the_fold(self):
        weights = [1.0 / (i + 1) for i in range(4)]
        assert math.fsum(weights) != ((1.0 + 0.5) + weights[2]) + 0.25
        assert _ZipfTable(1.0).total(4) == ((1.0 + 0.5) + weights[2]) + 0.25

"""Tests for the hot-path optimisations: fast decoder vs reference,
briefcase encoding cache, wire coalescing, site-generation tables, and
the perf harness."""

import random
import struct

import pytest

from repro.core import codec
from repro.core.briefcase import Briefcase
from repro.core.errors import CodecError
from repro.sim.eventloop import Kernel
from repro.sim.network import Network
from repro.sim.rng import RandomStream
from repro.web.page import _FILLER_WORDS, make_filler


@pytest.fixture
def both_decoders():
    """Yields a helper that runs decode under both regimes and asserts
    they agree (same briefcase, or same error type and message)."""
    def run(data, limits=codec.DEFAULT_WIRE_LIMITS
            if hasattr(codec, "DEFAULT_WIRE_LIMITS") else None):
        results = {}
        for enabled in (False, True):
            previous = codec.set_fast_paths(enabled)
            try:
                try:
                    results[enabled] = ("ok", codec.decode(data))
                except CodecError as exc:
                    results[enabled] = ("err", type(exc), str(exc))
            finally:
                codec.set_fast_paths(previous)
        assert results[False] == results[True], (
            f"decoders disagree on {data!r}: {results}")
        return results[True]
    return run


def wire_of(mapping) -> bytes:
    return codec.encode(Briefcase(mapping))


class TestDecoderEquivalence:
    def test_agree_on_valid_input(self, both_decoders):
        status, briefcase = both_decoders(wire_of({
            "HOSTS": ["a", "b"], "DATA": [b"\x00\x01", b""], "EMPTY": []}))
        assert status == "ok"
        assert briefcase.names() == ["HOSTS", "DATA", "EMPTY"]

    @pytest.mark.parametrize("cut", list(range(0, 10)))
    def test_agree_on_every_short_prefix(self, both_decoders, cut):
        wire = wire_of({"F": [b"xy"]})
        status, *_ = both_decoders(wire[:cut])
        if cut < len(wire):
            assert status == "err"

    @pytest.mark.parametrize("cut", [10, 12, 15, 20, -1])
    def test_agree_on_truncated_body(self, both_decoders, cut):
        wire = wire_of({"FOLDER": [b"payload", b"more"]})
        status, *_ = both_decoders(wire[:cut])
        assert status == "err"

    def test_agree_on_bad_magic(self, both_decoders):
        wire = bytearray(wire_of({"F": [b"x"]}))
        wire[0] = 0x00
        status, _type, message = both_decoders(bytes(wire))
        assert status == "err" and "magic" in message

    def test_agree_on_bad_version(self, both_decoders):
        wire = bytearray(wire_of({"F": [b"x"]}))
        wire[4] = 9
        status, _type, message = both_decoders(bytes(wire))
        assert status == "err" and "version 9" in message

    def test_agree_on_trailing_garbage(self, both_decoders):
        status, _type, message = both_decoders(wire_of({"F": [b"x"]}) + b"!!")
        assert status == "err" and "trailing" in message

    def test_agree_on_duplicate_folder(self, both_decoders):
        one = wire_of({"DUP": [b"x"]})
        body = one[9:]
        wire = one[:5] + struct.pack(">I", 2) + body + body
        status, _type, message = both_decoders(wire)
        assert status == "err" and "duplicate" in message

    def test_agree_on_non_utf8_name(self, both_decoders):
        folder = struct.pack(">H", 2) + b"\xff\xfe" + struct.pack(">I", 0)
        wire = (codec.MAGIC + struct.pack(">B", codec.VERSION) +
                struct.pack(">I", 1) + folder)
        status, _type, message = both_decoders(wire)
        assert status == "err" and "UTF-8" in message

    def test_agree_on_empty_name(self, both_decoders):
        folder = struct.pack(">H", 0) + struct.pack(">I", 0)
        wire = (codec.MAGIC + struct.pack(">B", codec.VERSION) +
                struct.pack(">I", 1) + folder)
        status, _type, message = both_decoders(wire)
        assert status == "err" and "empty folder name" in message

    def test_fast_decoder_accepts_bytearray_and_memoryview(self):
        wire = wire_of({"F": [b"data", b""], "G": []})
        expected = codec.decode(wire)
        assert codec.decode(bytearray(wire)) == expected
        assert codec.decode(memoryview(wire)) == expected

    def test_fast_decoder_accepts_window_into_larger_buffer(self):
        wire = wire_of({"F": [b"data"]})
        framed = b"HEAD" + wire + b"TAIL"
        window = memoryview(framed)[4:4 + len(wire)]
        assert codec.decode(window) == codec.decode(wire)


class TestEncodingCache:
    def setup_method(self):
        self._previous = codec.set_fast_paths(True)

    def teardown_method(self):
        codec.set_fast_paths(self._previous)

    def test_repeat_encode_returns_cached_object(self):
        briefcase = Briefcase({"F": [b"x", b"y"]})
        first = codec.encode(briefcase)
        assert codec.encode(briefcase) is first

    def test_encoded_size_served_from_encode_cache(self):
        briefcase = Briefcase({"F": [b"x" * 100]})
        wire = codec.encode(briefcase)
        assert codec.encoded_size(briefcase) == len(wire)

    def test_mutation_invalidates_cache(self):
        briefcase = Briefcase({"F": [b"x"]})
        stale = codec.encode(briefcase)
        briefcase.folder("F").push(b"y")
        fresh = codec.encode(briefcase)
        assert fresh != stale
        assert codec.decode(fresh) == briefcase

    def test_decode_seeds_cache_with_input_buffer(self):
        wire = wire_of({"F": [b"data"]})
        briefcase = codec.decode(wire)
        # Canonical format: re-encoding is the input buffer itself.
        assert codec.encode(briefcase) is wire

    def test_decode_of_view_does_not_seed_cache(self):
        wire = wire_of({"F": [b"data"]})
        briefcase = codec.decode(memoryview(wire))
        assert briefcase._wire_bytes is None
        assert codec.encode(briefcase) == wire

    def test_snapshot_inherits_valid_cache(self):
        briefcase = Briefcase({"F": [b"x"]})
        wire = codec.encode(briefcase)
        snapshot = briefcase.snapshot()
        assert codec.encode(snapshot) is wire

    def test_snapshot_cache_survives_source_mutation(self):
        briefcase = Briefcase({"F": [b"x"]})
        wire = codec.encode(briefcase)
        snapshot = briefcase.snapshot()
        briefcase.folder("F").push(b"mutate-source")
        assert codec.encode(snapshot) == wire
        assert codec.encode(briefcase) != wire

    def test_fast_paths_off_bypasses_cache(self):
        briefcase = Briefcase({"F": [b"x"]})
        previous = codec.set_fast_paths(False)
        try:
            first = codec.encode(briefcase)
            second = codec.encode(briefcase)
        finally:
            codec.set_fast_paths(previous)
        assert first == second
        assert first is not second
        assert briefcase._wire_bytes is None

    def test_check_briefcase_stores_size_for_reuse(self):
        from repro.core.limits import WireLimits

        briefcase = Briefcase({"F": [b"x" * 50]})
        size = codec.check_briefcase(briefcase, WireLimits())
        assert briefcase._wire_cached_size() == size
        assert codec.encoded_size(briefcase) == size


class TestCoalescing:
    def make(self, latency=0.05, bandwidth=1000.0):
        kernel = Kernel()
        network = Network(kernel)
        network.link("a", "b", latency=latency, bandwidth=bandwidth)
        return kernel, network

    def run_burst(self, kernel, network, sizes, src="a", dst="b"):
        durations = []

        def sender(n):
            seconds = yield from network.transfer(src, dst, n)
            durations.append(round(seconds, 9))

        for size in sizes:
            kernel.spawn(sender(size))
        kernel.run()
        return durations

    def test_off_by_default_and_semantics_preserving(self):
        kernel, network = self.make()
        durations = self.run_burst(kernel, network, [100, 100, 100])
        assert durations == [0.15, 0.15, 0.15]
        assert network.coalesced_messages == 0

    def test_same_instant_burst_pays_one_latency(self):
        kernel, network = self.make()
        network.configure_coalescing(True)
        durations = self.run_burst(kernel, network, [100, 100, 100])
        # One message pays latency + serialisation; followers only
        # serialise, so they complete first.
        assert durations == [0.1, 0.1, 0.15]
        assert network.coalesced_messages == 2
        stats = network.stats_between("a", "b")
        assert stats.busy_seconds == pytest.approx(0.05 + 3 * 0.1)
        assert stats.messages == 3
        assert stats.payload_bytes == 300

    def test_different_instants_do_not_coalesce(self):
        kernel, network = self.make()
        network.configure_coalescing(True)

        def staggered():
            yield from network.transfer("a", "b", 100)
            yield from network.transfer("a", "b", 100)
        kernel.run_process(staggered())
        assert network.coalesced_messages == 0

    def test_opposite_directions_do_not_coalesce(self):
        kernel, network = self.make()
        network.configure_coalescing(True)
        sent = []

        def one(src, dst):
            seconds = yield from network.transfer(src, dst, 100)
            sent.append(round(seconds, 9))

        kernel.spawn(one("a", "b"))
        kernel.spawn(one("b", "a"))
        kernel.run()
        assert sent == [0.15, 0.15]
        assert network.coalesced_messages == 0

    def test_loopback_never_coalesces(self):
        kernel, network = self.make()
        network.add_host("a")
        network.configure_coalescing(True)
        durations = self.run_burst(kernel, network, [100, 100],
                                   src="a", dst="a")
        assert durations[0] == durations[1]
        assert network.coalesced_messages == 0

    def test_disable_clears_marks(self):
        kernel, network = self.make()
        network.configure_coalescing(True)
        self.run_burst(kernel, network, [100, 100])
        assert network._coalesce_marks
        network.configure_coalescing(False)
        assert not network._coalesce_marks
        assert not network.coalescing_enabled

    def test_deterministic_across_identical_runs(self):
        def once():
            kernel, network = self.make()
            network.configure_coalescing(True)
            durations = self.run_burst(kernel, network,
                                       [100, 300, 50, 700, 200])
            stats = network.stats_between("a", "b")
            return (durations, network.coalesced_messages,
                    round(stats.busy_seconds, 9))
        assert once() == once()


def reference_make_filler(nbytes: int, salt: int = 0) -> str:
    """The word-at-a-time loop ``make_filler`` replaced."""
    if nbytes <= 0:
        return ""
    words = []
    size = 0
    i = salt
    while size < nbytes:
        word = _FILLER_WORDS[i % len(_FILLER_WORDS)]
        words.append(word)
        size += len(word) + 1
        i += 7
    return " ".join(words)[:nbytes]


def reference_zipf_index(stream: RandomStream, n: int, skew: float) -> int:
    """The per-call weight list and linear scan ``zipf_index`` replaced."""
    weights = [1.0 / (i + 1) ** skew for i in range(n)]
    total = sum(weights)
    point = stream.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if point <= acc:
            return i
    return n - 1


class TestSiteGenerationTables:
    def test_make_filler_matches_the_word_loop(self):
        one_short = 0
        for nbytes in range(-1, 601):
            for salt in range(61):
                got = make_filler(nbytes, salt)
                assert got == reference_make_filler(nbytes, salt), \
                    (nbytes, salt)
                one_short += nbytes > 0 and len(got) == nbytes - 1
        # The edge the loop has: a cut right after a word's space.
        assert one_short > 0

    def test_zipf_index_matches_the_scan_draw_for_draw(self):
        fast = RandomStream(11, "zipf")
        reference = RandomStream(11, "zipf")
        pick = random.Random(5)
        # Grow the shared table first, then shrink, grow and repeat.
        calls = [(900, 0.7), (1, 0.7), (2, 0.7)] + [
            (pick.randint(1, 900), pick.choice((0.5, 0.7, 0.8, 1.0)))
            for _ in range(20_000)]
        for n, skew in calls:
            assert fast.zipf_index(n, skew) == \
                reference_zipf_index(reference, n, skew), (n, skew)


class TestPerfHarness:
    def test_fast_paths_context_restores_state(self):
        from repro.bench import perf
        from repro.sim import eventloop

        codec_before = codec.fast_paths_enabled()
        kernel_before = eventloop.fast_dispatch_enabled()
        with perf.fast_paths(not codec_before):
            assert codec.fast_paths_enabled() is (not codec_before)
        assert codec.fast_paths_enabled() is codec_before
        assert eventloop.fast_dispatch_enabled() is kernel_before

    def test_baseline_kernel_replica_matches_real_kernel(self):
        from repro.bench import perf

        delays = perf._timer_delays(500, seed=7)
        replica = perf._BaselineKernel()
        for delay in delays:
            replica.timeout(delay)
        replica.run()
        kernel = Kernel()
        for delay in delays:
            kernel.timeout(delay)
        kernel.run()
        assert replica.processed_events == kernel.processed_events == 500
        assert replica.now == kernel.now

    def test_bench_pair_reports_medians_and_speedup(self):
        from repro.bench.perf import _bench_pair

        row = _bench_pair("demo", lambda: 0.2, lambda: 0.1,
                          repeats=3, workload={"n": 1})
        assert row["baseline_median_s"] == pytest.approx(0.2)
        assert row["fast_median_s"] == pytest.approx(0.1)
        assert row["speedup"] == pytest.approx(2.0)

    def test_coalescing_digest_is_stable(self):
        from repro.bench.perf import _coalescing_determinism_digest

        first = _coalescing_determinism_digest()
        assert len(first) == 64
        assert _coalescing_determinism_digest() == first

    def test_codec_workload_round_trips_identically_both_paths(self):
        from repro.bench import perf

        briefcase = perf.make_codec_workload(folders=6, elements=6,
                                             element_size=16)
        with perf.fast_paths(False):
            wire = codec.encode(briefcase)
            reference = codec.decode(wire)
        with perf.fast_paths(True):
            fast = codec.decode(wire)
            assert codec.encode(fast) == wire
        assert fast == reference == briefcase

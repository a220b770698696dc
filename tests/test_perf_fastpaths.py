"""Tests for the hot-path optimisations: the decoder vs its reference
oracle, briefcase encoding cache, site-generation tables, the kernel vs
its pre-optimisation oracle, and the literal digests that pin "faster
never means different"."""

import hashlib
import json
import random
import struct

import pytest

from repro.core import codec
from repro.core.briefcase import Briefcase
from repro.core.limits import WireLimits
from repro.obs.telemetry import Telemetry
from repro.sim.eventloop import Kernel
from repro.sim.rng import RandomStream
from repro.web.page import _FILLER_WORDS, make_filler
from tests.oracles.codec import (differential_decode, make_codec_workload,
                                 reference_decode)
from tests.oracles.kernel import _BaselineKernel, _timer_delays


@pytest.fixture
def both_decoders():
    """The helper that runs the product decoder and the reference oracle
    and asserts they agree (same briefcase, or same error type and
    message)."""
    return differential_decode


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

    @pytest.mark.parametrize("cap, message", [
        ({"max_encoded_bytes": 10}, "wire buffer is"),
        ({"max_folders": 1}, "folder count 2"),
        ({"max_elements_per_folder": 2}, "element count 3"),
        ({"max_total_elements": 3}, "total element count 4"),
        ({"max_element_bytes": 4}, "element size 5"),
        ({}, None),
    ])
    def test_agree_on_every_configured_cap(self, both_decoders, cap,
                                           message):
        wire = wire_of({"F": [b"a", b"b", b"c"], "G": [b"12345"]})
        status, *rest = both_decoders(wire, WireLimits(**cap))
        if message is None:
            assert status == "ok"
        else:
            assert status == "err" and message in rest[1]

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

    def test_check_briefcase_stores_size_for_reuse(self):
        briefcase = Briefcase({"F": [b"x" * 50]})
        size = codec.check_briefcase(briefcase, WireLimits())
        assert briefcase._wire_cached_size() == size
        assert codec.encoded_size(briefcase) == size


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


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestPerfHarness:
    """What the retired perf harness checked about its own workloads and
    baselines, now against ``tests/oracles`` (the class keeps its name:
    the test ids are pinned)."""

    def test_baseline_kernel_replica_matches_real_kernel(self):
        delays = _timer_delays(500, seed=7)
        replica = _BaselineKernel()
        for delay in delays:
            replica.timeout(delay)
        replica.run()
        kernel = Kernel()
        for delay in delays:
            kernel.timeout(delay)
        kernel.run()
        assert replica.processed_events == kernel.processed_events == 500
        assert replica.now == kernel.now

    def test_codec_workload_round_trips_identically_both_paths(self):
        briefcase = make_codec_workload(folders=6, elements=6,
                                        element_size=16)
        wire = codec.encode(briefcase)
        reference = reference_decode(wire)
        fast = codec.decode(wire)
        assert codec.encode(fast) == wire
        assert codec._encode_parts(reference) == wire
        assert fast == reference == briefcase


class TestSemanticsLiterals:
    """The ``semantics`` block of the retired ``BENCH_perf.json``, pinned
    to the literals it held: a hot-path change that moves any observable
    byte, count or instant fails here.  (The e2e benchmark checks the
    same per workload with ``semantics_sha256``.)"""

    @pytest.mark.parametrize("telemetry, digest", [
        (False, "72a240622a3fe3cd9dcb7fbd2320c591"
                "bed63009a05454a233ab74d50cbfe568"),
        (True, "268d560a7834afe824384d3b99b70024"
               "1348dc7e4c5918c737935a8e1fd496a6"),
    ], ids=["telemetry-off", "telemetry-on"])
    def test_e1_report_digest(self, telemetry, digest):
        from repro.bench.experiments import run_e1
        from repro.bench.runner import report_to_dict

        report = report_to_dict(run_e1(seed=2000, telemetry=telemetry))
        assert sha256_text(json.dumps(
            report, indent=2, sort_keys=True)) == digest

    def test_codec_workload_wire_digest(self):
        wire = codec.encode(make_codec_workload())
        assert sha256_text(wire.hex()) == (
            "2558c7ebb20039d1b3aa51fff3f3f340"
            "ad14236354d7f3079e2645a768cf3a7d")
        assert codec._encode_parts(codec.decode(wire)) == wire
        assert codec._encode_parts(reference_decode(wire)) == wire

    @pytest.mark.parametrize("regime", [
        "drain", "step", "telemetry", "oracle"])
    def test_timer_drain_ends_at_the_same_instant(self, regime):
        if regime == "oracle":
            kernel = _BaselineKernel()
        else:
            kernel = Kernel(telemetry=Telemetry(
                enabled=regime == "telemetry"))
        for delay in _timer_delays(10_000, 2000):
            kernel.timeout(delay)
        if regime == "step":
            kernel.run(max_events=10**9)
        else:
            kernel.run()
        assert kernel.processed_events == 10000
        assert round(kernel.now, 9) == 99.974591714

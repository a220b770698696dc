"""Tests for streamed communication between agents."""

import pytest

from repro.core.briefcase import Briefcase
from repro.core.errors import CommTimeoutError
from repro.core import wellknown
from repro.core.uri import AgentUri
from repro.agent import streams
from repro.vm import loader


def stream_sink_agent(ctx, bc):
    """Receives one stream and reports its size + checksum home."""
    payload = yield from streams.recv_stream(ctx, timeout=600)
    digest = sum(payload) % 65536
    yield from ctx.send(bc.get_text("HOME"),
                        Briefcase({"SIZE": [str(len(payload))],
                                   "SUM": [str(digest)]}))
    return "done"


def launch_sink(cluster, host, home_uri):
    briefcase = Briefcase()
    loader.install_payload(briefcase, loader.pack_ref(stream_sink_agent),
                           agent_name="sink")
    briefcase.put("HOME", home_uri)
    driver = cluster.node(host).driver(name=f"sink-launcher-{host}")

    def _go():
        reply = yield from driver.meet(cluster.vm_uri(host), briefcase,
                                       timeout=60)
        assert reply.get_text(wellknown.STATUS) == "ok"
        return reply.get_text("AGENT-URI")
    return cluster.run(_go())


class TestStreams:
    def test_local_stream_round_trip(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()
        sink = launch_sink(single_cluster, "solo.test", str(driver.uri))
        data = bytes(range(256)) * 100  # 25.6 KB -> several chunks

        def scenario():
            yield from streams.send_stream(driver, sink, data,
                                           chunk_bytes=4096)
            message = yield from driver.recv(timeout=600)
            return (int(message.briefcase.get_text("SIZE")),
                    int(message.briefcase.get_text("SUM")))
        size, digest = single_cluster.run(scenario())
        assert size == len(data)
        assert digest == sum(data) % 65536

    def test_cross_host_stream(self, pair_cluster):
        driver = pair_cluster.node("alpha.test").driver()
        sink = launch_sink(pair_cluster, "beta.test", str(driver.uri))
        data = b"x" * 50_000

        def scenario():
            yield from streams.send_stream(driver, sink, data,
                                           chunk_bytes=8192)
            message = yield from driver.recv(timeout=600)
            return int(message.briefcase.get_text("SIZE"))
        assert pair_cluster.run(scenario()) == 50_000
        # The stream's bytes really crossed the network.
        assert pair_cluster.network.total_remote_bytes() > 50_000

    def test_empty_payload(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()
        sink = launch_sink(single_cluster, "solo.test", str(driver.uri))

        def scenario():
            yield from streams.send_stream(driver, sink, b"")
            message = yield from driver.recv(timeout=600)
            return int(message.briefcase.get_text("SIZE"))
        assert single_cluster.run(scenario()) == 0

    def test_single_chunk_payload(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()
        sink = launch_sink(single_cluster, "solo.test", str(driver.uri))

        def scenario():
            yield from streams.send_stream(driver, sink, b"tiny")
            message = yield from driver.recv(timeout=600)
            return int(message.briefcase.get_text("SIZE"))
        assert single_cluster.run(scenario()) == 4

    def test_receiver_reorders_and_dedupes(self, single_cluster):
        """Drive the receiver protocol by hand: out-of-order chunks and a
        duplicate must still produce the exact payload."""
        node = single_cluster.node("solo.test")
        receiver = node.driver(name="rx")
        sender = node.driver(name="tx")

        def rx():
            payload = yield from streams.recv_stream(receiver, timeout=600)
            return payload

        def tx():
            opening = Briefcase()
            opening.put(streams.KIND, streams.KIND_OPEN)
            opening.put(streams.CHANNEL, "manual-1")
            opening.put(streams.TOTAL, 3)
            grant = yield from sender.meet(receiver.uri, opening,
                                           timeout=60)
            assert grant.get_text(streams.KIND) == streams.KIND_GRANT

            def chunk(seq, blob):
                briefcase = Briefcase()
                briefcase.put(streams.KIND, streams.KIND_DATA)
                briefcase.put(streams.CHANNEL, "manual-1")
                briefcase.put(streams.SEQ, seq)
                briefcase.folder(streams.DATA).replace([blob])
                return briefcase
            # Out of order, with a duplicate of chunk 2.
            yield from sender.send(receiver.uri, chunk(2, b"CC"))
            yield from sender.send(receiver.uri, chunk(0, b"AA"))
            yield from sender.send(receiver.uri, chunk(2, b"CC"))
            yield from sender.send(receiver.uri, chunk(1, b"BB"))
            # Drain acks so they do not pile up unread.
            for _ in range(4):
                try:
                    yield from sender.recv(
                        timeout=5,
                        match=lambda m: m.briefcase.get_text(
                            streams.KIND) == streams.KIND_ACK)
                except Exception:
                    break
            return "sent"

        rx_proc = single_cluster.kernel.spawn(rx())
        single_cluster.kernel.spawn(tx())
        single_cluster.kernel.run_until(rx_proc, until=1_000)
        assert rx_proc.value == b"AABBCC"

    def test_window_limits_outstanding_chunks(self, single_cluster):
        """With ack_every=1 and window W, the sender never has more than
        W unacked chunks in flight."""
        node = single_cluster.node("solo.test")
        driver = node.driver()
        sink = launch_sink(single_cluster, "solo.test", str(driver.uri))
        sent_seqs = []
        original_send = driver.send

        def spy_send(target, briefcase=None, **kwargs):
            if briefcase is not None and \
                    briefcase.get_text(streams.KIND) == streams.KIND_DATA:
                sent_seqs.append(int(briefcase.get_json(streams.SEQ)))
            return original_send(target, briefcase, **kwargs)
        driver.send = spy_send
        data = b"z" * (streams.DEFAULT_CHUNK_BYTES * 10)

        def scenario():
            yield from streams.send_stream(driver, sink, data)
            message = yield from driver.recv(timeout=600)
            return int(message.briefcase.get_text("SIZE"))
        assert single_cluster.run(scenario()) == len(data)
        assert sorted(sent_seqs) == list(range(10))
        # First burst is exactly the window.
        assert sent_seqs[:streams.DEFAULT_WINDOW] == \
            list(range(streams.DEFAULT_WINDOW))


class TestStreamFailures:
    def test_send_stream_times_out_without_receiver(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()
        ghost = "tacoma://solo.test//nobody-listens"

        def scenario():
            with pytest.raises(CommTimeoutError):
                yield from streams.send_stream(driver, ghost, b"data",
                                               timeout=3)
            return "done"
        assert single_cluster.run(scenario()) == "done"

    def test_recv_stream_times_out_without_sender(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()

        def scenario():
            with pytest.raises(CommTimeoutError):
                yield from streams.recv_stream(driver, timeout=3)
            return "done"
        assert single_cluster.run(scenario()) == "done"

"""The overload flood scenario behind ``repro overload`` and R3.

One target host is flooded by N greedy principals (one per sender host)
racing to deliver M messages each to a collector agent that registers
*late* — the paper's park-ahead-of-arrival queueing under deliberate
abuse.  A prober on the target simultaneously hammers a dead host, and
two poison wire buffers (one corrupt, one oversized) are thrown at the
target's decoder.

The scenario runs in two modes:

- **ungoverned** (the pre-overload baseline): the pending queue grows
  without bound — peak depth equals the entire offered load — every
  doomed probe spends real network time failing, and nothing rate-limits
  the flood;
- **governed**: the target's firewall carries a
  :class:`~repro.firewall.governor.GovernorConfig` — bounded queue,
  per-principal token buckets and bytes-in-flight quotas, wire limits —
  and the network runs circuit breakers.  Floods are shed with
  *transient* rejections that the senders' retry policies turn into
  backoff, so the flood still completes; probes to the dead host
  fast-fail once the breaker opens.

Everything is virtual-time and seeded; :func:`run_overload` returns a
JSON-able document that is byte-for-byte identical across runs with the
same seed (the CI determinism step diffs two runs).
"""

from __future__ import annotations

from typing import Dict, List

from repro.chaos.harness import counter_total, flight_recorder_block
from repro.core import codec
from repro.core.briefcase import Briefcase
from repro.core.errors import (
    CircuitOpenError,
    OverloadError,
    TaxError,
)
from repro.core.fold import fold_sum
from repro.core.limits import BreakerConfig, QueueLimits, WireLimits
from repro.core.retry import RetryPolicy
from repro.core.uri import AgentUri
from repro.firewall.governor import GovernorConfig, QuotaSpec
from repro.firewall.message import SenderInfo
from repro.firewall.policy import Policy
from repro.obs.telemetry import Telemetry
from repro.sim.network import BANDWIDTH_10MBIT, LATENCY_LAN, NetworkError
from repro.sim.rng import retry_stream
from repro.system.cluster import TaxCluster

MODE_DESCRIPTIONS = {
    "governed":
        "the target firewall runs the full governor (bounded queue, "
        "quotas, wire limits) and the network runs circuit breakers",
    "ungoverned":
        "the pre-overload baseline: unbounded queues, no quotas, no "
        "breakers; the flood's peak depth equals the offered load",
}

TARGET_HOST = "target.overload.example"
DEAD_HOST = "dead.overload.example"
SENDER_HOST_FMT = "sender{i}.overload.example"
COLLECTOR_NAME = "collector"

#: Flood shape: N principals x M messages of PAYLOAD_BYTES each.
N_SENDERS = 4
MESSAGES_PER_SENDER = 40
PAYLOAD_BYTES = 2_000
#: Seconds between a flooder's send attempts (far above any sane rate).
SEND_INTERVAL = 0.01
#: Virtual second the collector finally registers at.
COLLECTOR_START = 2.0
#: How long the collector keeps draining before the run is scored.
COLLECT_DEADLINE = 25.0
#: Probes the breaker demo fires at the dead host.
N_PROBES = 8

#: What the governed target deploys.
def governed_config() -> GovernorConfig:
    return GovernorConfig(
        default_quota=QuotaSpec(
            messages_per_second=20.0, burst=10,
            max_bytes_in_flight=30_000),
        queue_limits=QueueLimits(max_messages=50, max_bytes=200_000),
        overflow="reject",
        wire_limits=WireLimits(max_encoded_bytes=64_000),
        breaker=BreakerConfig(failure_threshold=3, cooldown_seconds=2.0,
                              half_open_probes=1),
    )


#: Retry policy the flooders carry: generous enough to ride out the
#: governor's shedding until the collector arrives and buckets refill.
FLOOD_RETRY = RetryPolicy(max_attempts=10, base_delay=0.25,
                          multiplier=2.0, max_delay=4.0, jitter=0.2)


def build_overload_cluster(governed: bool) -> TaxCluster:
    """Target + N sender hosts + one dead host on a 10 Mbit star."""
    cluster = TaxCluster(telemetry=Telemetry(enabled=True))
    policy = Policy(governor=governed_config()) if governed else None
    cluster.add_node(TARGET_HOST, policy=policy)
    cluster.add_node(DEAD_HOST)
    sender_hosts = [SENDER_HOST_FMT.format(i=i) for i in range(N_SENDERS)]
    for host in sender_hosts + [DEAD_HOST]:
        cluster.network.link(TARGET_HOST, host, latency=LATENCY_LAN,
                             bandwidth=BANDWIDTH_10MBIT)
        if host != DEAD_HOST:
            cluster.add_node(host)
    for i in range(N_SENDERS):
        cluster.add_principal(f"flood-{i}")
    cluster.network.set_host_up(DEAD_HOST, False)
    return cluster


def _flood_briefcase(principal: str, seq: int, now: float) -> Briefcase:
    briefcase = Briefcase()
    briefcase.put("SEQ", f"{principal}:{seq}")
    briefcase.put("SENT-AT", repr(now))
    briefcase.append("PAYLOAD", b"x" * PAYLOAD_BYTES)
    return briefcase


def _poison_buffers() -> List[bytes]:
    """Hostile wire buffers for the quarantine demo: a corrupt one, a
    truncated one, and one over the governed 64 kB wire limit (the
    oversized one *decodes* on an ungoverned target and merely clutters
    its queue — the contrast R3 reports)."""
    good = codec.encode(_flood_briefcase("poison", 0, 0.0))
    corrupt = bytearray(good)
    corrupt[7] = 0xFF      # explode the folder count
    truncated = good[: len(good) // 2]
    big = Briefcase()
    big.append("PAYLOAD", b"y" * 70_000)
    return [bytes(corrupt), truncated, codec.encode(big)]


def run_overload(seed: int = 7, governed: bool = True,
                 recv_deadline: float = COLLECT_DEADLINE) -> Dict:
    """Run the flood once; return the deterministic JSON document,
    built before the cluster is closed."""
    cluster = build_overload_cluster(governed)
    try:
        return _flood(cluster, seed, governed, recv_deadline)
    finally:
        cluster.close()


def _flood(cluster: TaxCluster, seed: int, governed: bool,
           recv_deadline: float) -> Dict:
    """:func:`run_overload` on a built cluster: run, then document."""
    kernel = cluster.kernel
    target_node = cluster.node(TARGET_HOST)
    target_fw = target_node.firewall
    collector_uri = AgentUri(host=TARGET_HOST, name=COLLECTOR_NAME)
    offered = N_SENDERS * MESSAGES_PER_SENDER

    sent_ok: Dict[str, int] = {}
    dropped: Dict[str, List[str]] = {}
    received: List[Dict] = []

    def flooder(index: int):
        principal = f"flood-{index}"
        node = cluster.node(SENDER_HOST_FMT.format(i=index))
        ctx = node.driver(name=f"flood{index}", principal=principal)
        # One seed, per-principal stream *names*: independence between
        # flooders comes from the named stream, never from seed
        # arithmetic (seed+index made cells overlap under a matrix
        # sweep: cell seed N's flood-1 replayed cell seed N+1's
        # flood-0).
        ctx.configure_retry(FLOOD_RETRY, retry_stream(seed, principal))
        sent_ok[principal] = 0
        dropped[principal] = []
        for seq in range(MESSAGES_PER_SENDER):
            briefcase = _flood_briefcase(principal, seq, kernel.now)
            try:
                ok = yield from ctx.send(collector_uri, briefcase)
                if ok:
                    sent_ok[principal] += 1
                else:
                    dropped[principal].append(f"{seq}:dropped")
            except (OverloadError, TaxError, NetworkError) as exc:
                dropped[principal].append(f"{seq}:{type(exc).__name__}")
            yield kernel.timeout(SEND_INTERVAL)

    def collector():
        yield kernel.timeout(COLLECTOR_START)
        ctx = target_node.driver(name=COLLECTOR_NAME)
        while kernel.now < recv_deadline and len(received) < offered:
            try:
                message = yield from ctx.recv(
                    timeout=recv_deadline - kernel.now)
            except TaxError:
                break
            sent_at = message.briefcase.get_text("SENT-AT")
            received.append({
                "seq": message.briefcase.get_text("SEQ"),
                "latency": kernel.now - float(sent_at),
            })

    probe_errors: Dict[str, int] = {}

    def prober():
        ctx = target_node.driver(name="prober")
        for _ in range(N_PROBES):
            probe = Briefcase()
            probe.put("SEQ", "probe")
            try:
                yield from ctx.send(
                    AgentUri(host=DEAD_HOST, name="nobody"), probe,
                    queue_timeout=0.0)
            except CircuitOpenError:
                probe_errors["CircuitOpenError"] = \
                    probe_errors.get("CircuitOpenError", 0) + 1
            except (TaxError, NetworkError) as exc:
                name = type(exc).__name__
                probe_errors[name] = probe_errors.get(name, 0) + 1
            yield kernel.timeout(0.25)

    def scenario():
        # Poison the decoder first: no buffer may crash anything.
        poison_target = AgentUri(host=TARGET_HOST, name="nobody")
        for blob in _poison_buffers():
            target_fw.receive_wire(
                blob, poison_target,
                SenderInfo(principal="poisoner", host=DEAD_HOST))
        procs = [kernel.spawn(flooder(i), name=f"flood-{i}")
                 for i in range(N_SENDERS)]
        procs.append(kernel.spawn(prober(), name="prober"))
        collect = kernel.spawn(collector(), name="collector")
        yield kernel.all_of(procs)
        yield collect
        return True

    cluster.run(scenario(), name="overload")

    metrics = cluster.telemetry.metrics
    latencies = sorted(r["latency"] for r in received)
    n_dropped = sum(len(v) for v in dropped.values())
    stats = target_fw.stats_dict()
    document = {
        "schema": "repro.overload/1",
        "seed": seed,
        "governed": governed,
        "flood": {
            "senders": N_SENDERS,
            "messages_per_sender": MESSAGES_PER_SENDER,
            "offered": offered,
            "sender_ok": dict(sorted(sent_ok.items())),
            "dropped": {k: v for k, v in sorted(dropped.items()) if v},
            "dropped_total": n_dropped,
            "completed": len(received),
            "completion_rate": round(len(received) / offered, 4),
            "latency": {
                "min": round(latencies[0], 6) if latencies else None,
                "max": round(latencies[-1], 6) if latencies else None,
                "mean": round(fold_sum(latencies) / len(latencies), 6)
                if latencies else None,
            },
        },
        "target": {
            "queue": stats["queue"],
            "queue_peak_depth": metrics.value(
                "fw.queue_peak_depth", 0, host=TARGET_HOST),
            "queue_peak_bytes": metrics.value(
                "fw.queue_peak_bytes", 0, host=TARGET_HOST),
            "governor": stats["governor"],
            "quarantined": len(stats["quarantined"]),
            "dead_letter_evictions":
                stats["queue"]["dead_letter_evictions"],
        },
        "breaker": {
            "probes": N_PROBES,
            "errors": dict(sorted(probe_errors.items())),
            "fast_failed": probe_errors.get("CircuitOpenError", 0),
            "links": cluster.network.breaker_snapshots(),
        },
        # Poison quarantines auto-dump the target's flight recorder, so
        # the document shows exactly what the firewall was doing in the
        # moments before each hostile buffer arrived.
        "flight_recorder": flight_recorder_block(cluster.telemetry),
        "stats": {
            "transport_retries":
                counter_total(metrics, "transport.retries"),
            "overload_rejections":
                counter_total(metrics, "transport.overload_rejections"),
            "queue_rejected": counter_total(metrics, "fw.queue_rejected"),
            "quota_rejected": counter_total(metrics, "fw.quota_rejected"),
            "poison_quarantined":
                counter_total(metrics, "fw.poison_quarantined"),
            "breaker_rejected":
                counter_total(metrics, "net.breaker_rejected"),
            "remote_bytes": cluster.network.total_remote_bytes(),
            "remote_messages": cluster.network.total_remote_messages(),
        },
        "elapsed": round(cluster.kernel.now, 6),
    }
    return document


def run_overload_mode(seed: int = 7, mode: str = "governed") -> Dict:
    """Run the flood under a named mode (the ``--list``/unknown-name
    contract every scenario plugin shares)."""
    if mode not in MODE_DESCRIPTIONS:
        raise ValueError(f"unknown overload mode {mode!r} "
                         f"(have {list(MODE_DESCRIPTIONS)})")
    return run_overload(seed=seed, governed=(mode == "governed"))

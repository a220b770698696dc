"""End-to-end crash durability: the ``repro crashtest`` scenarios.

The headline acceptance claim lives here: an **un-checkpointed** agent
resident on a crashing host — no monitor wrapper, no checkpoint
wrapper, no rear guard — survives the crash because the host's
write-ahead journal replays it back to life.  Before the durability
subsystem that agent was simply gone (the ``repro chaos --no-recovery``
baseline).

Also here: the crash-at-any-point property test.  A crash can truncate
the journal at *any byte*; whatever survives, the fold must come back
deterministic, conservation-clean, and with the exactly-once counters
balanced.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.crashtest import (
    CRASHTEST_SCENARIOS,
    named_crash_plan,
    run_crashtest,
)
from repro.chaos.harness import render_document
from repro.core.briefcase import Briefcase
from repro.core.errors import QueueFullError
from repro.core.limits import QueueLimits
from repro.core.uri import AgentUri
from repro.durability.journal import iter_frames
from repro.durability.recovery import JOURNAL_KINDS, replay_image
from repro.firewall.governor import GovernorConfig
from repro.firewall.message import Message, SenderInfo
from repro.firewall.policy import Policy
from repro.system.cluster import TaxCluster

CRASHED_WORKER = "w2.chaos.example"


def crashtest(scenario):
    return run_crashtest(seed=7, scenario=scenario)


class TestScenarios:
    @pytest.mark.parametrize("scenario", CRASHTEST_SCENARIOS)
    def test_both_verdicts_hold(self, scenario):
        document = crashtest(scenario)
        assert document["exactly_once"]["holds"] is True
        assert document["conservation"]["holds"] is True
        assert document["conservation"]["violations"] == []

    @pytest.mark.parametrize("scenario", CRASHTEST_SCENARIOS)
    def test_document_is_byte_deterministic(self, scenario):
        one = render_document(crashtest(scenario))
        two = render_document(crashtest(scenario))
        assert one == two

    def test_bare_agent_survives_host_crash_via_replay(self):
        """The acceptance demo: the resident agent carried no recovery
        kit at all, yet the itinerary completed — the crashed worker's
        journal replay restored it."""
        document = crashtest("kill-during-migration")
        assert document["agent"]["timed_out"] is False
        assert document["exactly_once"]["completed"] is True
        assert document["stats"]["host_crashes"] == 1
        assert document["stats"]["agents_restored"] >= 1
        replay = document["durability"][CRASHED_WORKER]["last_replay"]
        assert replay["residents_restored"] >= 1
        assert replay["ambiguous_departures"] == []
        # Exactly one resurrection, accounted as relaunched.
        assert document["conservation"]["buckets"]["relaunched"] == 1

    def test_torn_tail_replay_stops_at_last_good_record(self):
        document = crashtest("torn-journal-tail")
        durability = document["durability"][CRASHED_WORKER]
        assert durability["last_replay"]["torn"] is True
        assert durability["journal"]["torn_tails_seen"] == 1
        assert durability["disk"]["lost_suffix_bytes"] > 0
        # Recovery still restored the resident from what survived.
        assert durability["last_replay"]["residents_restored"] >= 1
        assert document["conservation"]["holds"] is True

    def test_crash_loop_accumulates_no_twins(self):
        document = crashtest("crash-loop")
        assert document["stats"]["host_crashes"] == 3
        durability = document["durability"][CRASHED_WORKER]
        assert durability["journal"]["replays"] == 3
        buckets = document["conservation"]["buckets"]
        # Three resurrections, each superseding its predecessor: the
        # loop ends with every crashed instance relaunched and no
        # duplicate site visits.
        assert buckets["relaunched"] == 3
        assert document["exactly_once"]["duplicate_site_visits"] == 0

    def test_crash_loop_compaction_ran_during_the_loop(self):
        document = crashtest("crash-loop")
        durability = document["durability"][CRASHED_WORKER]
        assert durability["journal"]["snapshots"] >= 3
        # The final replay started from a snapshot-headed segment.
        assert durability["last_replay"]["snapshots_seen"] == 1

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown crashtest"):
            named_crash_plan("bogus", ["w1"])

    def test_journal_sample_summarises_blobs(self):
        document = crashtest("kill-during-migration")
        sample = document["journal_sample"]
        assert sample["total_records"] >= 1
        for record in sample["tail"]:
            assert "blob" not in record
            if "blob_sha256" in record:
                assert record["blob_bytes"] > 0


# -- crash at any journal index ----------------------------------------------


def _build_corpus(compact_midway):
    """A journal whose records exercise the full replay taxonomy,
    written by a real :class:`HostDurability` hearing real structures —
    the window, registry and queue of an (unbooted) durable node, and
    the resident table behind them — so the record stream is exactly
    what a live host produces.  Returns the active segment's bytes."""
    cluster = TaxCluster()
    node = cluster.add_node("prop.host", boot=False, policy=Policy(
        governor=GovernorConfig(queue_limits=QueueLimits(max_messages=2),
                                dead_letter_limit=1)))
    journal = cluster.enable_durability(
        snapshot_interval=10 ** 9)["prop.host"].journal
    firewall = node.firewall
    window, registry, queue = \
        firewall.dedup, firewall.landings, firewall.pending
    announce = firewall.changes.emit

    def message(landing, ttl):
        return Message(target=AgentUri(name="absent"),
                       briefcase=Briefcase(), queue_timeout=ttl,
                       sender=SenderInfo("p", "prop.host"),
                       landing_id=landing)

    for peer, seq in (("a", 1), ("a", 2), ("a", 2), ("b", 1), ("a", 9)):
        window.observe(peer, seq)
    window.forget("b", 1)
    registry.acquire("L1")
    registry.record_launch("L1", "tax://h/p/a:1")
    registry.acquire("L1")              # duplicate landing
    registry.tombstone("L2", "aborted")
    registry.acquire("L2")              # tombstone refusal
    registry.acquire("L3")
    registry.release("L3")
    queue.park(message("L1", ttl=30.0))
    queue.claim(lambda target: True)
    if compact_midway:
        journal.compact()
    queue.park(message(None, ttl=1.0))
    queue.park(message(None, ttl=2.0))
    with pytest.raises(QueueFullError):
        queue.park(message(None, ttl=30.0))       # queue-reject
    cluster.kernel.run(until=5.0)       # both expire; the ledger keeps 1
    announce("agent-arrive", instance="i1", name="ag", principal="p",
             vm="vm", landing="L1", briefcase=Briefcase())
    announce("depart-intent", instance="i1", landing="L4")
    announce("depart-failed", instance="i1")
    announce("agent-arrive", instance="i2", name="bg", principal="p",
             vm="vm", landing=None, briefcase=Briefcase())
    announce("agent-depart", instance="i2", reason="moved")
    journal.record("restart", records=0, torn=False)
    window.observe("a", 3)
    announce("relaunch-intent", instance="i1", landing="L1")
    registry.forget_launch("L1")
    queue.take_retransmittable()
    announce("checkpoint", principal="p", drawer="d",
             briefcase=Briefcase())
    disk = node.durability.disk
    kinds = {record["kind"] for name in disk.files()
             if name.startswith("segment-")
             for record in iter_frames(disk.read(name))[0]}
    assert kinds - {"snapshot"} == JOURNAL_KINDS | {"restart"}
    return disk.read(journal.active_segment())


CORPUS = {False: _build_corpus(False), True: _build_corpus(True)}


def _fold_digest(records, torn):
    image = replay_image([dict(r) for r in records], torn, "seg",
                         now=50.0)
    return image, json.dumps({
        "dedup": image.dedup.to_durable(),
        "dedup_stats": image.dedup.snapshot(),
        "landings": image.landings.to_durable(),
        "landing_stats": image.landings.snapshot(),
        "residents": image.table.to_durable(),
        "counters": image.queue_counters(),
        "dead": image.dead,
    }, sort_keys=True)


class TestCrashAtAnyJournalIndex:
    @settings(deadline=None, max_examples=80)
    @given(compacted=st.booleans(), cut=st.integers(min_value=0,
                                                    max_value=4096))
    def test_truncated_replay_is_safe_and_deterministic(self, compacted,
                                                        cut):
        data = CORPUS[compacted]
        records, torn = iter_frames(data[:min(cut, len(data))])
        image, digest = _fold_digest(records, torn)
        # Byte-identical across independent folds of the same journal:
        # the post-recovery stat output never depends on fold order.
        assert digest == _fold_digest(records, torn)[1]
        # Conservation of the exactly-once counters survives any cut.
        assert image.dedup.conservation_holds()
        # The crash boundary drained every open park and resolved (or
        # refused) every mid-``go`` resident: nothing is silently lost,
        # nothing can be resurrected into a twin.
        assert image.open_parks == {}
        assert all(info["departing"] is None
                   for info in image.table.residents.values())

    def test_full_corpus_not_torn_and_departed_stays_gone(self):
        for data in CORPUS.values():
            records, torn = iter_frames(data)
            assert torn is False and records
            image, _ = _fold_digest(records, torn)
            assert "i2" not in image.table.residents

    def test_truncated_records_are_prefixes(self):
        data = CORPUS[False]
        full, _ = iter_frames(data)
        for cut in range(0, len(data), 7):
            records, _ = iter_frames(data[:cut])
            assert records == full[:len(records)]

"""The crash-durability subsystem: disk, journal, auditor, replay fold.

These are the unit layers under ``repro crashtest`` (see
``tests/test_crashtest.py`` for the end-to-end scenarios): the virtual
disk's fsync/crash semantics including the seeded storage faults, the
WAL framing and its torn-tail contract, segment compaction, the durable
roundtrips of the firewall's dedup/landing structures, the
agent-conservation auditor, and the pure journal fold
(:func:`repro.durability.recovery.replay_image`).
"""

import json

import pytest

from repro.durability.conservation import ConservationAuditor
from repro.durability.journal import (
    HostJournal,
    frame_record,
    iter_frames,
)
from repro.durability.recovery import QUEUE_COUNTERS, replay_image
from repro.durability.store import VirtualDisk
from repro.firewall.dedup import DedupWindow, LandingRegistry
from repro.sim.faults import FaultInjector, FaultPlan, StorageFaults


def storage_injector(**faults):
    plan = FaultPlan()
    plan.storage = StorageFaults(**faults)
    return FaultInjector(plan, seed_or_stream=7)


class TestVirtualDisk:
    def test_read_sees_unsynced_writes(self, kernel):
        disk = VirtualDisk(kernel, "h")
        disk.append("f", b"abc")
        assert disk.read("f") == b"abc"

    def test_crash_loses_unsynced_keeps_fsynced(self, kernel):
        disk = VirtualDisk(kernel, "h")
        disk.append("f", b"durable")
        disk.fsync("f")
        disk.append("f", b"volatile")
        damage = disk.crash()
        assert disk.read("f") == b"durable"
        assert damage == {"lost_writes": 1, "torn_tails": 0,
                          "lost_suffix_bytes": 0}

    def test_honest_fsync_is_instantly_durable(self, kernel):
        disk = VirtualDisk(kernel, "h")
        disk.append("f", b"x")
        disk.fsync("f")
        disk.crash()
        assert disk.read("f") == b"x"

    def test_slow_fsync_window_loses_acked_write(self, kernel):
        disk = VirtualDisk(kernel, "h", injector=storage_injector(
            slow_fsync_probability=1.0, slow_fsync_delay=0.5))
        disk.append("f", b"acked")
        disk.fsync("f")
        # Crash inside the device-cache window: the fsync lied.
        disk.crash()
        assert disk.read("f") == b""
        assert disk.lost_writes == 1

    def test_slow_fsync_settles_after_the_window(self, kernel):
        disk = VirtualDisk(kernel, "h", injector=storage_injector(
            slow_fsync_probability=1.0, slow_fsync_delay=0.5))
        disk.append("f", b"acked")
        disk.fsync("f")

        def proc():
            yield kernel.timeout(1.0)
        kernel.run_process(proc())
        disk.crash()
        assert disk.read("f") == b"acked"

    def test_torn_tail_keeps_partial_first_lost_write(self, kernel):
        disk = VirtualDisk(kernel, "h", injector=storage_injector(
            torn_tail_probability=1.0))
        disk.append("f", b"durable|")
        disk.fsync("f")
        disk.append("f", b"0123456789")
        disk.crash()
        content = disk.read("f")
        assert content.startswith(b"durable|")
        # A strict prefix of the torn write survived, never all of it.
        tail = content[len(b"durable|"):]
        assert b"0123456789".startswith(tail)
        assert tail != b"0123456789"
        assert disk.torn_tails == 1

    def test_lost_suffix_eats_durable_bytes(self, kernel):
        disk = VirtualDisk(kernel, "h", injector=storage_injector(
            lost_suffix_probability=1.0, lost_suffix_max_bytes=4))
        disk.append("f", b"0123456789")
        disk.fsync("f")
        disk.crash()
        content = disk.read("f")
        assert b"0123456789".startswith(content)
        assert len(content) < 10
        assert disk.lost_suffix_bytes == 10 - len(content)

    def test_crash_damage_is_seed_deterministic(self):
        from repro.sim.eventloop import Kernel

        def run():
            kernel = Kernel()
            disk = VirtualDisk(kernel, "h", injector=storage_injector(
                torn_tail_probability=0.5, lost_suffix_probability=0.5))
            for i in range(4):
                disk.append("f", bytes(range(32)))
                disk.fsync("f")
                disk.append("f", b"tail-tail-tail")
                disk.crash()
            return disk.read("f"), disk.stats()
        assert run() == run()

    def test_delete_and_files_listing(self, kernel):
        disk = VirtualDisk(kernel, "h")
        disk.append("b", b"1")
        disk.append("a", b"2")
        assert disk.files() == ["a", "b"]
        disk.delete("a")
        assert disk.files() == ["b"]
        assert "a" not in disk.files()


class TestFraming:
    RECORDS = [{"kind": "one", "t": 0.0}, {"kind": "two", "n": 7},
               {"kind": "three", "deep": {"a": [1, 2]}}]

    def encoded(self):
        return b"".join(frame_record(r) for r in self.RECORDS)

    def test_roundtrip(self):
        records, torn = iter_frames(self.encoded())
        assert records == self.RECORDS
        assert torn is False

    def test_empty(self):
        assert iter_frames(b"") == ([], False)

    def test_every_truncation_is_a_clean_prefix(self):
        data = self.encoded()
        for cut in range(len(data)):
            records, torn = iter_frames(data[:cut])
            assert records == self.RECORDS[:len(records)]
            # Only whole-frame cuts are not torn.
            if torn is False:
                assert b"".join(frame_record(r) for r in records) == \
                    data[:cut]

    def test_crc_mismatch_stops_cleanly(self):
        data = bytearray(self.encoded())
        data[-1] ^= 0xFF  # flip a payload byte of the last record
        records, torn = iter_frames(bytes(data))
        assert records == self.RECORDS[:2]
        assert torn is True

    def test_giant_length_field_is_torn_not_alloc(self):
        bogus = (2 ** 31).to_bytes(4, "big") + b"\x00" * 8
        records, torn = iter_frames(frame_record({"kind": "ok"}) + bogus)
        assert records == [{"kind": "ok"}]
        assert torn is True


class TestHostJournal:
    def journal(self, kernel, snapshot_interval=1000):
        disk = VirtualDisk(kernel, "h")
        journal = HostJournal(disk, "h",
                              snapshot_interval=snapshot_interval)
        return disk, journal

    def test_records_fsynced_and_replayable(self, kernel):
        disk, journal = self.journal(kernel)
        journal.record("ping", n=1)
        journal.record("ping", n=2)
        disk.crash()  # nothing unsynced: the write-ahead barrier held
        records, torn, segment = journal.read_active()
        assert [r["n"] for r in records] == [1, 2]
        assert torn is False and segment == "segment-000000.wal"

    def test_suspend_drops_records(self, kernel):
        disk, journal = self.journal(kernel)
        journal.record("kept")
        journal.suspend()
        journal.record("dropped")
        journal.resume()
        records, _, _ = journal.read_active()
        assert [r["kind"] for r in records] == ["kept"]

    def test_compaction_switches_segment_with_snapshot_head(self, kernel):
        disk, journal = self.journal(kernel)
        journal.state_provider = lambda: {"marker": 42}
        journal.record("before")
        journal.compact()
        journal.record("after")
        records, torn, segment = journal.read_active()
        assert segment == "segment-000001.wal"
        assert [r["kind"] for r in records] == ["snapshot", "after"]
        assert records[0]["state"] == {"marker": 42}
        # The previous segment is retained as the fallback.
        assert "segment-000000.wal" in disk.files()

    def test_compaction_deletes_older_than_previous(self, kernel):
        disk, journal = self.journal(kernel)
        journal.state_provider = lambda: {}
        journal.compact()
        journal.compact()
        assert "segment-000000.wal" not in disk.files()
        assert "segment-000001.wal" in disk.files()
        assert "segment-000002.wal" in disk.files()

    def test_auto_compaction_at_interval(self, kernel):
        disk, journal = self.journal(kernel, snapshot_interval=3)
        journal.state_provider = lambda: {}
        for n in range(3):
            journal.record("r", n=n)
        assert journal.snapshots == 1
        assert journal.active_segment() == "segment-000001.wal"

    def test_lost_manifest_suffix_falls_back_one_segment(self, kernel):
        # The newest switch record dies with the crash: recovery must
        # land on the previous segment, which was retained for exactly
        # this case.
        disk = VirtualDisk(kernel, "h", injector=storage_injector(
            lost_suffix_probability=1.0, lost_suffix_max_bytes=4))
        journal = HostJournal(disk, "h")
        journal.state_provider = lambda: {"gen": journal.snapshots}
        journal.record("one")
        for _ in range(3):
            journal.record("pad")  # sacrificial tail bytes
        journal.compact()
        # Every file loses 1-4 durable tail bytes: the manifest's only
        # switch record tears, so recovery must fall back.
        disk.crash()
        records, torn, segment = journal.replay()
        assert segment == "segment-000000.wal"
        assert torn is True
        assert records[0]["kind"] == "one"
        assert all(r["kind"] == "pad" for r in records[1:])

    def test_replay_reanchors_segment_numbering(self, kernel):
        disk, journal = self.journal(kernel)
        journal.state_provider = lambda: {}
        journal.compact()
        restarted = HostJournal(disk, "h")
        restarted.state_provider = lambda: {}
        restarted.replay()
        restarted.compact()
        assert restarted.active_segment() == "segment-000002.wal"


class TestDurableRoundtrips:
    def test_dedup_window_roundtrip(self):
        window = DedupWindow(capacity=8)
        for seq in (1, 2, 2, 3, 100, 4):
            window.observe("peer.a", seq)
        window.observe("peer.b", 1)
        window.forget("peer.b", 1)
        clone = DedupWindow.from_durable(window.to_durable())
        assert clone.to_durable() == window.to_durable()
        assert clone.snapshot() == window.snapshot()
        # The clone keeps making identical decisions.
        assert clone.observe("peer.a", 100) == "duplicate"
        assert clone.observe("peer.a", 5) == "reject"  # below window

    def test_landing_registry_roundtrip(self):
        registry = LandingRegistry()
        registry.acquire("L1")
        registry.record_launch("L1", "tax://h/p/a:1")
        registry.tombstone("L2", "aborted")
        registry.acquire("L1")  # duplicate
        registry.acquire("L2")  # refusal
        clone = LandingRegistry.from_durable(registry.to_durable())
        assert clone.to_durable() == registry.to_durable()
        assert clone.acquire("L1") == ("launched", "tax://h/p/a:1")
        assert clone.acquire("L2") == ("tombstoned", "aborted")

    def test_pending_slots_are_volatile(self):
        registry = LandingRegistry()
        assert registry.acquire("L1") == ("new", None)
        clone = LandingRegistry.from_durable(registry.to_durable())
        # The in-flight slot did not survive: the origin's retry gets
        # a fresh claim instead of waiting on a slot nobody holds.
        assert clone.acquire("L1") == ("new", None)


class TestConservationAuditor:
    def test_completed_and_moved_are_terminal(self):
        auditor = ConservationAuditor()
        auditor.spawned("h", "i1", "a", "p")
        auditor.spawned("h", "i2", "a", "p")
        auditor.ended("i1", "finished")
        auditor.ended("i2", "moved")
        report = auditor.report()
        assert report["holds"] is True
        assert report["buckets"] == {"completed": 1, "moved": 1}

    def test_crashed_instance_violates(self):
        auditor = ConservationAuditor()
        auditor.spawned("h", "i1", "a", "p")
        auditor.crashed("i1", "h")
        assert auditor.holds() is False
        assert auditor.violations() == [
            {"instance": "i1", "name": "a", "principal": "p",
             "host": "h"}]

    def test_respawn_resolves_oldest_crashed_same_name(self):
        auditor = ConservationAuditor()
        auditor.spawned("h", "i1", "a", "p")
        auditor.crashed("i1")
        auditor.spawned("h", "i2", "a", "p")  # the resurrection
        report = auditor.report()
        assert report["holds"] is True
        assert report["buckets"] == {"alive": 1, "relaunched": 1}

    def test_respawn_of_different_name_does_not_resolve(self):
        auditor = ConservationAuditor()
        auditor.spawned("h", "i1", "a", "p")
        auditor.crashed("i1")
        auditor.spawned("h", "i2", "other", "p")
        assert auditor.holds() is False

    def test_dead_letter_resolves_departing_instance(self):
        auditor = ConservationAuditor()
        auditor.spawned("h", "i1", "a", "p")
        auditor.departing("i1", "L1")
        auditor.crashed("i1")
        auditor.transport_dead_lettered("L1")
        assert auditor.report()["buckets"] == {"dead_lettered": 1}

    def test_failed_depart_clears_landing(self):
        auditor = ConservationAuditor()
        auditor.spawned("h", "i1", "a", "p")
        auditor.departing("i1", "L1")
        auditor.depart_failed("i1")
        auditor.crashed("i1")
        auditor.transport_dead_lettered("L1")
        assert auditor.holds() is False  # the agent was home, and lost

    def test_system_principal_exempt(self):
        from repro.core.identity import SYSTEM_PRINCIPAL
        auditor = ConservationAuditor()
        auditor.spawned("h", "i1", "vm_python", SYSTEM_PRINCIPAL)
        assert auditor.report()["agents"] == 0


class TestReplayImage:
    def test_dedup_records_rebuild_identical_window(self):
        live = DedupWindow()
        records = []
        for peer, seq in (("a", 1), ("a", 2), ("a", 2), ("b", 1)):
            live.observe(peer, seq)
            records.append({"kind": "dedup-observe", "peer": peer,
                            "seq": seq})
        image = replay_image(records, False, "s", now=9.0)
        assert image.dedup.to_durable() == live.to_durable()

    def test_snapshot_seeds_then_records_extend(self):
        live = DedupWindow()
        live.observe("a", 1)
        records = [
            {"kind": "snapshot", "state": {"dedup": live.to_durable()}},
            {"kind": "dedup-observe", "peer": "a", "seq": 2},
        ]
        image = replay_image(records, False, "s", now=9.0)
        live.observe("a", 2)
        assert image.dedup.to_durable() == live.to_durable()

    def test_open_park_becomes_host_crash_dead_letter(self):
        records = [{"kind": "queue-park", "park": 1, "t": 1.0,
                    "landing": "L1"}]
        image = replay_image(records, False, "s", now=5.0)
        assert image.open_parks == {}
        assert len(image.dead) == 1
        assert image.dead[0]["reason"] == "host-crash"
        assert image.dead[0]["died_at"] == 5.0
        assert image.counters["crashed"] == 1

    def test_claimed_park_does_not_die(self):
        records = [{"kind": "queue-park", "park": 1, "t": 1.0},
                   {"kind": "queue-claim", "park": 1}]
        image = replay_image(records, False, "s", now=5.0)
        assert image.dead == []
        assert image.counters["claimed"] == 1

    def test_expired_park_counts_expired(self):
        records = [{"kind": "queue-park", "park": 1, "t": 1.0},
                   {"kind": "queue-dead-letter", "park": 1, "t": 2.0,
                    "reason": "expired"}]
        image = replay_image(records, False, "s", now=5.0)
        assert image.counters["expired"] == 1
        assert image.dead[0]["reason"] == "expired"

    def test_dead_letter_take_removes_from_ledger(self):
        records = [{"kind": "queue-park", "park": 1, "t": 1.0},
                   {"kind": "queue-dead-letter", "park": 1,
                    "reason": "expired"},
                   {"kind": "dead-letter-take", "park": 1}]
        image = replay_image(records, False, "s", now=5.0)
        assert image.dead == []

    def test_resident_survives_to_restoration(self):
        records = [{"kind": "agent-arrive", "instance": "i1",
                    "name": "a", "principal": "p", "vm": "vm",
                    "landing": "L1", "blob": ""}]
        image = replay_image(records, False, "s", now=5.0)
        assert sorted(image.table.residents) == ["i1"]
        assert image.ambiguous == []

    def test_unresolved_depart_intent_is_ambiguous(self):
        records = [{"kind": "agent-arrive", "instance": "i1",
                    "name": "a", "principal": "p", "vm": "vm",
                    "landing": "L1", "blob": ""},
                   {"kind": "depart-intent", "instance": "i1",
                    "landing": "L2"}]
        image = replay_image(records, False, "s", now=5.0)
        assert image.table.residents == {}
        assert image.ambiguous == ["i1"]

    def test_failed_depart_keeps_resident(self):
        records = [{"kind": "agent-arrive", "instance": "i1",
                    "name": "a", "principal": "p", "vm": "vm",
                    "landing": "L1", "blob": ""},
                   {"kind": "depart-intent", "instance": "i1",
                    "landing": "L2"},
                   {"kind": "depart-failed", "instance": "i1"}]
        image = replay_image(records, False, "s", now=5.0)
        assert sorted(image.table.residents) == ["i1"]

    def test_relaunch_supersede_retires_old_instance(self):
        arrive = {"kind": "agent-arrive", "name": "a", "principal": "p",
                  "vm": "vm", "blob": ""}
        records = [
            dict(arrive, instance="i1", landing="L1"),
            {"kind": "relaunch-intent", "instance": "i1",
             "landing": "L1"},
            dict(arrive, instance="i2", landing="L1"),
        ]
        image = replay_image(records, False, "s", now=5.0)
        assert sorted(image.table.residents) == ["i2"]

    def test_unknown_record_kinds_are_skipped(self):
        records = [{"kind": "from-the-future", "x": 1},
                   {"kind": "dedup-observe", "peer": "a", "seq": 1}]
        image = replay_image(records, False, "s", now=5.0)
        assert image.dedup.accepted == 1

    def test_restart_record_applies_interior_crash_boundary(self):
        records = [{"kind": "queue-park", "park": 1, "t": 1.0},
                   {"kind": "restart", "t": 2.0},
                   {"kind": "queue-park", "park": 2, "t": 3.0}]
        image = replay_image(records, False, "s", now=5.0)
        assert [d["died_at"] for d in image.dead] == [2.0, 5.0]
        assert image.restarts == 1

    def test_counters_start_from_queue_counter_names(self):
        image = replay_image([], False, "s", now=0.0)
        assert sorted(image.counters) == sorted(QUEUE_COUNTERS)

    def test_fold_is_pure_and_repeatable(self):
        records = [
            {"kind": "dedup-observe", "peer": "a", "seq": 1},
            {"kind": "queue-park", "park": 1, "t": 1.0},
            {"kind": "agent-arrive", "instance": "i1", "name": "a",
             "principal": "p", "vm": "vm", "landing": "L1", "blob": ""},
        ]

        def digest():
            image = replay_image([dict(r) for r in records], True, "s",
                                 now=7.0)
            return json.dumps({
                "dedup": image.dedup.to_durable(),
                "landings": image.landings.to_durable(),
                "residents": image.table.to_durable(),
                "counters": image.queue_counters(),
                "dead": image.dead,
            }, sort_keys=True)
        assert digest() == digest()


def _parked_message(**fields):
    from repro.core.briefcase import Briefcase
    from repro.core.uri import AgentUri
    from repro.firewall.message import Message, SenderInfo
    envelope = dict(
        target=AgentUri.parse("tacoma://b.test//late"),
        briefcase=Briefcase({"NOTE": ["once"], "RAW": [b"\x00\xff"]}),
        sender=SenderInfo("alice", "a.test",
                          uri=AgentUri.parse("tacoma://a.test/alice/bot"),
                          authenticated=True),
        queue_timeout=12.5, hops=3, priority=2, seq=41, seq_src="a.test",
        landing_id="L-7")
    envelope.update(fields)
    return Message(**envelope)


class TestMessageRecords:
    """A parked or dead-lettered message is journaled as flat fields and
    rebuilt from them when the host restarts."""

    def test_every_envelope_field_survives_the_journal(self):
        from repro.durability.recovery import (message_from_durable,
                                               message_to_durable)
        message = _parked_message()
        rec = json.loads(json.dumps(message_to_durable(message)))
        back = message_from_durable(rec)
        assert back.target == message.target
        assert back.briefcase == message.briefcase
        assert back.sender == message.sender
        assert (back.queue_timeout, back.hops, back.priority, back.seq,
                back.seq_src, back.landing_id) == (12.5, 3, 2, 41,
                                                   "a.test", "L-7")

    def test_a_sender_without_a_uri_stays_without_one(self):
        from repro.core.uri import AgentUri
        from repro.durability.recovery import (message_from_durable,
                                               message_to_durable)
        from repro.firewall.message import SenderInfo
        message = _parked_message(
            sender=SenderInfo("bob", "c.test"),
            target=AgentUri(name="late"), seq=None, seq_src=None,
            landing_id=None)
        back = message_from_durable(message_to_durable(message))
        assert back.sender == SenderInfo("bob", "c.test", uri=None,
                                         authenticated=False)
        assert (back.seq, back.seq_src, back.landing_id) == (None,) * 3
        assert back.target == AgentUri(name="late")

    def test_optional_fields_default_when_a_record_omits_them(self):
        from repro.durability.recovery import (message_from_durable,
                                               message_to_durable)
        from repro.firewall.message import DEFAULT_QUEUE_TIMEOUT
        rec = message_to_durable(_parked_message())
        for key in ("sender_uri", "authenticated", "queue_timeout", "hops",
                    "priority", "seq", "seq_src", "landing"):
            del rec[key]
        back = message_from_durable(rec)
        assert back.sender.uri is None and not back.sender.authenticated
        assert back.queue_timeout == 30.0 == DEFAULT_QUEUE_TIMEOUT
        assert (back.hops, back.priority, back.seq, back.seq_src,
                back.landing_id) == (0, 0, None, None, None)


class TestParkedAcrossACrash:
    """A message parked for an agent that has not arrived yet dies with
    the host as a dead letter, is rebuilt from the journal, and is
    parked again for the agent that comes later."""

    @pytest.fixture
    def restarted(self):
        from repro.core.briefcase import Briefcase
        from repro.system.cluster import TaxCluster
        cluster = TaxCluster()
        node = cluster.add_node("solo.example")
        cluster.enable_durability(snapshot_interval=64)
        sender = node.driver(name="sender")
        note = Briefcase({"NOTE": ["once"], "RAW": [b"\x00\xff"]})
        assert cluster.run(sender.send("late", note)) is True
        assert node.firewall.pending.accounting()["parked_now"] == 1
        node.crash()
        node.restart()
        return node, sender

    def test_the_replay_restores_the_dead_letter(self, restarted):
        node, _ = restarted
        stats = node.durability.stats()
        assert stats["last_replay"]["dead_letters_restored"] == 1
        assert stats["disk"]["crashes"] == 1
        assert stats["journal"]["replays"] == 1
        assert stats["residents"] == 0
        books = node.firewall.pending.accounting()
        assert (books["crashed"], books["parked_now"]) == (1, 1)

    def test_the_late_agent_claims_the_rebuilt_message(self, restarted):
        node, sender = restarted
        parked, = node.firewall.pending.parked_entries()
        assert parked.message.sender.uri == sender.uri
        late = node.driver(name="late")
        message = late.mailbox._take_queued(None)
        assert message.briefcase.get_text("NOTE") == "once"
        assert message.briefcase.get("RAW").first().data == b"\x00\xff"
        assert late.mailbox._take_queued(None) is None
        assert node.firewall.pending.accounting()["claimed"] == 1

    @pytest.mark.parametrize("interval", [1, 2, 64])
    def test_a_rebuilt_message_survives_a_second_crash(self, interval):
        from repro.core.briefcase import Briefcase
        from repro.system.cluster import TaxCluster
        cluster = TaxCluster()
        node = cluster.add_node("solo.example")
        cluster.enable_durability(snapshot_interval=interval)
        sender = node.driver(name="sender")
        assert cluster.run(sender.send(
            "late", Briefcase({"NOTE": ["once"]}))) is True
        for _ in range(2):
            node.crash()
            node.restart()
        assert node.durability.stats()["last_replay"][
            "dead_letters_restored"] == 1
        late = node.driver(name="late")
        notes = []
        while True:
            message = late.mailbox._take_queued(None)
            if message is None:
                break
            notes.append(message.briefcase.get_text("NOTE"))
        assert notes == ["once"]
        books = node.firewall.pending.accounting()
        assert (books["accepted"], books["crashed"], books["claimed"],
                books["parked_now"]) == (3, 2, 1, 0)

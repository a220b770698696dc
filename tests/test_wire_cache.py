"""The wire-encoding cache under every mutator, in any order.

``tests/test_properties_perf.py`` checks each mutator once against a
freshly encoded briefcase.  Here a Hypothesis state machine interleaves
them — across several briefcases that are snapshots, decodes and merge
sources of one another, and through folder handles kept after the folder
was dropped — and after every step asks the one question that matters:
whatever a briefcase's cache still answers must be what the codec would
compute from scratch.
"""

import gc

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import codec  # noqa: E402
from repro.core.briefcase import Briefcase  # noqa: E402
from repro.core.folder import Folder  # noqa: E402
from repro.core.limits import WireLimits  # noqa: E402

#: Few names, so that drops, re-creations and merges collide; one is
#: two bytes a character on the wire.
NAMES = ["A", "B", "DELIVERY-SEQ", "søk"]

names = st.sampled_from(NAMES)
values = st.one_of(st.binary(max_size=40), st.text(max_size=10),
                   st.integers(-5, 5))
value_lists = st.lists(values, max_size=3)
picks = st.integers(min_value=0, max_value=1_000)


def assert_cache_is_truthful(briefcase):
    truth = codec._encode_parts(briefcase)
    size = briefcase._wire_cached_size()
    data = briefcase._wire_cached_bytes()
    assert size is None or size == len(truth)
    assert data is None or data == truth
    if briefcase._wire_cache_valid():
        assert data is not None


class WireCacheMachine(RuleBasedStateMachine):
    """Briefcases that share history, and folder handles that outlive
    their place in one."""

    @initialize()
    def start(self):
        self.cases = [Briefcase({"A": [b"seed"], "B": [b"x", b"y"]})]
        self.handles = [Folder("LOOSE", [b"never-held"])]

    def case(self, pick):
        return self.cases[pick % len(self.cases)]

    def folder(self, pick):
        """A folder some briefcase holds now, or a kept handle."""
        held = [folder for briefcase in self.cases for folder in briefcase]
        pool = held + self.handles
        folder = pool[pick % len(pool)]
        if not any(folder is handle for handle in self.handles):
            self.handles.append(folder)
        return folder

    # -- what fills the cache -------------------------------------------

    @rule(pick=picks)
    def encode(self, pick):
        codec.encode(self.case(pick))

    @rule(pick=picks)
    def encoded_size(self, pick):
        codec.encoded_size(self.case(pick))

    @rule(pick=picks)
    def check_briefcase(self, pick):
        codec.check_briefcase(self.case(pick), WireLimits())

    # -- new briefcases out of old ones ---------------------------------

    @precondition(lambda self: len(self.cases) < 6)
    @rule(pick=picks)
    def snapshot(self, pick):
        self.cases.append(self.case(pick).snapshot())

    @precondition(lambda self: len(self.cases) < 6)
    @rule(pick=picks, view=st.booleans())
    def decode(self, pick, view):
        wire = codec.encode(self.case(pick))
        self.cases.append(
            codec.decode(memoryview(wire) if view else wire))

    # -- briefcase mutators ---------------------------------------------

    @rule(pick=picks, name=names)
    def create_folder(self, pick, name):
        self.handles.append(self.case(pick).folder(name))

    @rule(pick=picks, name=names)
    def drop(self, pick, name):
        briefcase = self.case(pick)
        known = briefcase._wire_cached_size() is not None
        present = briefcase.has(name)
        assert briefcase.drop(name) is present
        if known:
            # The size follows the drop; it is not thrown away.
            assert briefcase._wire_cached_size() is not None
        if present:
            assert briefcase._wire_cached_bytes() is None

    @rule(pick=picks, keep=st.lists(names, max_size=2))
    def drop_all_except(self, pick, keep):
        briefcase = self.case(pick)
        known = briefcase._wire_cached_size() is not None
        briefcase.drop_all_except(keep)
        assert set(briefcase.names()) <= set(keep)
        if known:
            assert briefcase._wire_cached_size() is not None

    @rule(pick=picks, name=names, value=values)
    def put(self, pick, name, value):
        self.case(pick).put(name, value)

    @rule(pick=picks, name=names, value=values)
    def append(self, pick, name, value):
        self.case(pick).append(name, value)

    @rule(into=picks, source=picks, append=st.booleans())
    def merge(self, into, source, append):
        # ``source`` may pick ``into`` itself.
        self.case(into).merge(self.case(source), append=append)

    # -- folder mutators, through held and dropped handles alike --------

    @rule(pick=picks, value=values)
    def push(self, pick, value):
        self.folder(pick).push(value)

    @rule(pick=picks, items=value_lists)
    def push_all(self, pick, items):
        self.folder(pick).push_all(items)

    @rule(pick=picks)
    def push_all_of_itself(self, pick):
        folder = self.folder(pick)
        before = list(folder)
        folder.push_all(folder)
        assert list(folder) == before + before

    @rule(pick=picks, value=values)
    def insert(self, pick, value):
        self.folder(pick).insert(0, value)

    @rule(pick=picks)
    def pop_first(self, pick):
        self.folder(pick).pop_first()

    @rule(pick=picks)
    def pop_last(self, pick):
        self.folder(pick).pop_last()

    @rule(pick=picks)
    def remove_at(self, pick):
        folder = self.folder(pick)
        if folder:
            folder.remove_at(len(folder) - 1)

    @rule(pick=picks)
    def clear(self, pick):
        self.folder(pick).clear()

    @rule(pick=picks, items=value_lists)
    def replace(self, pick, items):
        self.folder(pick).replace(items)

    @invariant()
    def every_cache_is_truthful(self):
        for briefcase in self.cases:
            assert_cache_is_truthful(briefcase)


TestWireCacheMachine = WireCacheMachine.TestCase
TestWireCacheMachine.settings = settings(
    max_examples=120, stateful_step_count=40, deadline=None)


class TestSizeFollowsDrop:
    def test_strip_after_decode_keeps_an_exact_size(self):
        briefcase = Briefcase({"ID": [b"f0001"], "PAYLOAD": [bytes(120)],
                               "DELIVERY-SEQ": ["7 peer.example"]})
        arrived = codec.decode(codec.encode(briefcase))
        assert arrived._wire_cache_valid()
        assert arrived.drop("DELIVERY-SEQ")
        assert not arrived._wire_cache_valid()
        assert arrived._wire_cached_bytes() is None
        size = arrived._wire_cached_size()
        assert size == len(codec._encode_parts(arrived))
        assert codec.encoded_size(arrived) == size

    def test_drop_state_then_go(self):
        briefcase = Briefcase({"RESULTS": [bytes(500)] * 4,
                               "SCRATCH": [bytes(2_000)], "søk": ["æ"]})
        codec.encode(briefcase)
        assert briefcase.drop_all_except(["RESULTS"]) == ["SCRATCH", "søk"]
        assert briefcase._wire_cached_size() == \
            len(codec._encode_parts(briefcase))

    def test_absent_name_leaves_the_buffer(self):
        briefcase = Briefcase({"A": [b"x"]})
        wire = codec.encode(briefcase)
        assert not briefcase.drop("NOT-THERE")
        assert codec.encode(briefcase) is wire

    def test_unknown_size_stays_unknown(self):
        briefcase = Briefcase({"A": [b"x"], "B": [b"y"]})
        briefcase.drop("A")
        assert briefcase._wire_cached_size() is None

    @pytest.mark.parametrize("leave", ["drop", "drop_all_except",
                                       "merge-replace"])
    def test_a_kept_handle_no_longer_speaks_for_the_briefcase(
            self, leave):
        briefcase = Briefcase({"A": [b"one"], "B": [b"two"]})
        handle = briefcase.get("A")
        codec.encode(briefcase)
        if leave == "drop":
            briefcase.drop("A")
        elif leave == "drop_all_except":
            briefcase.drop_all_except(["B"])
        else:
            briefcase.merge(Briefcase({"A": [b"other"]}), append=False)
        size = codec.encoded_size(briefcase)
        wire = codec.encode(briefcase)
        handle.push(b"written through a stale handle")
        assert briefcase._wire_cached_size() == size
        assert codec.encode(briefcase) is wire
        assert_cache_is_truthful(briefcase)


class TestSelfSource:
    """``merge``/``push_all`` fed their own receiver used to append to
    the list they were iterating, without end."""

    def test_self_merge_doubles_each_folder(self):
        briefcase = Briefcase({"A": [b"x"], "B": [b"y", b"z"]})
        codec.encode(briefcase)
        briefcase.merge(briefcase)
        assert briefcase.to_dict() == {"A": [b"x", b"x"],
                                       "B": [b"y", b"z", b"y", b"z"]}
        assert_cache_is_truthful(briefcase)
        assert codec.decode(codec.encode(briefcase)) == briefcase

    def test_replacing_self_merge_changes_nothing(self):
        briefcase = Briefcase({"A": [b"x"], "B": [b"y", b"z"]})
        wire = codec.encode(briefcase)
        briefcase.merge(briefcase, append=False)
        assert briefcase.to_dict() == {"A": [b"x"], "B": [b"y", b"z"]}
        assert_cache_is_truthful(briefcase)
        assert codec.encode(briefcase) == wire

    def test_push_all_of_itself_doubles_the_folder(self):
        folder = Folder("F", [b"a", b"b"])
        folder.push_all(folder)
        assert [element.data for element in folder] == \
            [b"a", b"b", b"a", b"b"]

    def test_empty_push_all_is_not_a_mutation(self):
        briefcase = Briefcase({"A": [b"x"]})
        wire = codec.encode(briefcase)
        briefcase.get("A").push_all([])
        assert codec.encode(briefcase) is wire


def test_discarded_briefcases_leave_nothing_for_the_cycle_collector():
    """Folders reach the briefcase's counter, never the briefcase: were
    it a back-reference, each briefcase would be a cycle and the
    reference counts alone would free none of these."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for index in range(1_000):
            briefcase = Briefcase({"ID": [b"%d" % index],
                                   "PAYLOAD": [bytes(64), bytes(64)]})
            wire = codec.encode(briefcase)
            briefcase.snapshot().merge(briefcase)
            arrived = codec.decode(wire)
            handle = arrived.get("ID")
            arrived.drop("ID")
            handle.push(b"loose")
        del briefcase, arrived, handle
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()

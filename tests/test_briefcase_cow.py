"""Copy-on-write snapshots against eager deep copies.

``Briefcase.snapshot`` shares its folders with the briefcase it was
taken from and copies them only when either side is about to write.
Here a Hypothesis state machine runs every briefcase and folder
operation on product briefcases and, in lockstep, on the deep-copy
reference in ``tests/oracles/briefcase.py``: snapshots of snapshots,
writes through folder handles taken *before* a snapshot and after a
drop, drops / puts on either side, and encodes.  After every
step each briefcase and each kept handle must hold what its reference
holds, and each wire cache must answer what the codec would compute
from scratch.
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
from tests.oracles.briefcase import RefBriefcase, RefFolder  # noqa: E402
from tests.test_wire_cache import assert_cache_is_truthful  # noqa: E402

NAMES = ["A", "B", "DELIVERY-SEQ", "søk"]

names = st.sampled_from(NAMES)
values = st.one_of(st.binary(max_size=12), st.text(max_size=6),
                   st.integers(-5, 5), st.just(b"\xff\xfe"))
value_lists = st.lists(values, max_size=3)
picks = st.integers(min_value=0, max_value=1_000)
#: The doubling rule (a folder pushed onto itself) applies only below
#: this many elements, so fifty steps stay fifty small steps.
SMALL = 32


def seed_pair():
    items = [("A", [b"seed"]), ("B", [b"x", b"y"])]
    return Briefcase(dict(items)), RefBriefcase.of(items)


class CopyOnWriteMachine(RuleBasedStateMachine):
    """Pairs of (product, reference) briefcases that are snapshots of
    one another, and pairs of folder handles kept across snapshots."""

    @initialize()
    def start(self):
        self.cases = [seed_pair()]
        self.handles = [(Folder("LOOSE", [b"never-held"]),
                         RefFolder("LOOSE", [b"never-held"]))]

    def case(self, pick):
        return self.cases[pick % len(self.cases)]

    def handle(self, pick):
        return self.handles[pick % len(self.handles)]

    # -- new briefcases out of old ones ---------------------------------

    @precondition(lambda self: len(self.cases) < 8)
    @rule(pick=picks)
    def snapshot(self, pick):
        product, reference = self.case(pick)
        self.cases.append((product.snapshot(), reference.snapshot()))

    @precondition(lambda self: len(self.cases) < 8)
    @rule(pick=picks)
    def decode(self, pick):
        product, reference = self.case(pick)
        self.cases.append((codec.decode(codec.encode(product)),
                           reference.snapshot()))

    @precondition(lambda self: len(self.cases) > 1)
    @rule(pick=picks)
    def forget(self, pick):
        """A snapshot's last reference goes: its weak registration on
        the lender dies with it."""
        del self.cases[pick % len(self.cases)]

    # -- handles: taken now, written later ------------------------------

    @precondition(lambda self: len(self.handles) < 12)
    @rule(pick=picks, name=names)
    def take_handle(self, pick, name):
        product, reference = self.case(pick)
        self.handles.append((product.folder(name), reference.folder(name)))

    @precondition(lambda self: len(self.handles) < 12)
    @rule(pick=picks, index=picks)
    def take_handle_by_iteration(self, pick, index):
        product, reference = self.case(pick)
        held = list(product)
        if held:
            folder = held[index % len(held)]
            self.handles.append((folder, reference.folders[folder.name]))

    @rule(pick=picks, value=values)
    def push(self, pick, value):
        for folder in self.handle(pick):
            folder.push(value)

    @rule(pick=picks, items=value_lists)
    def push_all(self, pick, items):
        for folder in self.handle(pick):
            folder.push_all(items)

    @rule(pick=picks)
    def push_all_of_itself(self, pick):
        for folder in self.handle(pick):
            if len(folder) <= SMALL:
                folder.push_all(folder)

    @rule(pick=picks)
    def pop_first(self, pick):
        product, reference = self.handle(pick)
        popped = product.pop_first()
        assert (popped.data if popped is not None else None) == \
            reference.pop_first()

    @rule(pick=picks)
    def clear(self, pick):
        for folder in self.handle(pick):
            folder.clear()

    @rule(pick=picks, items=value_lists)
    def replace(self, pick, items):
        for folder in self.handle(pick):
            folder.replace(items)

    # -- briefcase mutators, on lenders and borrowers alike -------------

    @rule(pick=picks, name=names)
    def drop(self, pick, name):
        product, reference = self.case(pick)
        assert product.drop(name) is reference.drop(name)

    @rule(pick=picks, keep=st.lists(names, max_size=2))
    def drop_all_except(self, pick, keep):
        product, reference = self.case(pick)
        assert product.drop_all_except(keep) == \
            reference.drop_all_except(keep)

    @rule(pick=picks, name=names, value=values)
    def put(self, pick, name, value):
        for briefcase in self.case(pick):
            briefcase.put(name, value)

    @rule(pick=picks, name=names, value=values)
    def append(self, pick, name, value):
        for briefcase in self.case(pick):
            briefcase.append(name, value)

    # -- what reads the shared folders ----------------------------------

    @rule(pick=picks)
    def encode(self, pick):
        product, reference = self.case(pick)
        assert codec.encode(product) == reference.encode()

    @rule(pick=picks)
    def encoded_size(self, pick):
        product, reference = self.case(pick)
        assert codec.encoded_size(product) == len(reference.encode())

    @invariant()
    def every_briefcase_holds_its_reference(self):
        for product, reference in self.cases:
            assert [(name, [element.data for element in folder])
                    for name, folder in product._folders.items()] == \
                reference.items()
            assert_cache_is_truthful(product)

    @invariant()
    def every_handle_holds_its_reference(self):
        for product, reference in self.handles:
            assert [element.data for element in product] == \
                reference.elements


TestCopyOnWriteMachine = CopyOnWriteMachine.TestCase
TestCopyOnWriteMachine.settings = settings(
    max_examples=150, stateful_step_count=50, deadline=None)


class TestSharing:
    """What the machine cannot see: who holds which folder object."""

    def test_a_snapshot_shares_every_folder_until_a_write(self):
        original = Briefcase({"A": [b"a"], "B": [b"b"]})
        copy = original.snapshot()
        assert all(mine is theirs for mine, theirs in
                   zip(copy._folders.values(), original._folders.values()))
        copy.put("A", b"changed")
        assert original.get_text("A") == "a"
        assert not any(mine is theirs for mine, theirs in
                       zip(copy._folders.values(),
                           original._folders.values()))

    def test_reads_take_no_copy(self):
        original = Briefcase({"A": [b"a"], "B": [b"b"]})
        copy = original.snapshot()
        assert copy.has("A") and copy.names() == ["A", "B"]
        assert copy.get_text("B") == "b" and len(copy) == 2
        assert copy == original and copy.to_dict() == original.to_dict()
        assert copy.payload_bytes() == 2
        assert codec.decode(codec.encode(copy)) == original
        assert codec.encoded_size(copy) == len(codec.encode(original))
        assert copy._lender is original._cell

    def test_a_borrower_that_only_drops_copies_nothing(self):
        original = Briefcase({"A": [b"a"], "B": [b"b"]})
        copy = original.snapshot()
        assert copy.drop("A") and copy.drop("B")
        assert copy._lender is original._cell
        assert original.to_dict() == {"A": [b"a"], "B": [b"b"]}

    def test_a_snapshot_of_a_snapshot_borrows_from_the_owner(self):
        original = Briefcase({"A": [b"a"]})
        second = original.snapshot().snapshot()
        assert second._lender is original._cell
        original.get("A").push(b"later")
        assert second.to_dict() == {"A": [b"a"]}

    def test_a_handle_from_before_the_snapshot_cannot_write_into_it(self):
        original = Briefcase({"A": [b"a"]})
        handle = original.get("A")
        copy = original.snapshot()
        handle.push(b"after")
        assert copy.to_dict() == {"A": [b"a"]}
        assert original.to_dict() == {"A": [b"a", b"after"]}

    @pytest.mark.parametrize("leave", ["drop", "drop_all_except"])
    def test_a_handle_that_left_the_lender_cannot_write_into_a_snapshot(
            self, leave):
        """The folder leaves the lender with the handle, not the
        snapshot: the snapshot must have its copy before the handle is
        cut loose."""
        original = Briefcase({"A": [b"a"], "B": [b"b"]})
        handle = original.get("A")
        copy = original.snapshot()
        if leave == "drop":
            original.drop("A")
        else:
            original.drop_all_except(["B"])
        handle.push(b"loose")
        assert copy.to_dict() == {"A": [b"a"], "B": [b"b"]}

    def test_owning_keeps_the_cached_encoding(self):
        original = Briefcase({"A": [b"a"], "B": [b"b"]})
        wire = codec.encode(original)
        copy = original.snapshot()
        original.get("A").push(b"moves the lender only")
        assert copy._wire_cached_bytes() is wire
        assert codec.encode(copy) is wire


class TestRegistry:
    def test_the_registry_is_weak(self):
        original = Briefcase({"A": [b"a"]})
        copy = original.snapshot()
        (entry,) = original._cell[1]
        assert entry() is copy
        del copy
        assert entry() is None
        original.get("A").push(b"no one to copy for")
        assert original._cell[1] is None

    def test_dead_and_owning_borrowers_are_swept(self):
        original = Briefcase({"A": [b"a"]})
        kept = [original.snapshot() for _ in range(4)]
        for borrower in kept[:2]:
            borrower.append("A", b"own copy")       # stops borrowing
        for _ in range(40):
            original.snapshot()                     # dies at once
        live = [entry() for entry in original._cell[1]]
        assert len(live) < 40
        assert {id(b) for b in kept[2:]} <= {id(b) for b in live}
        for borrower in kept[2:]:
            assert borrower._lender is original._cell

    def test_snapshots_leave_nothing_for_the_cycle_collector(self):
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for index in range(500):
                original = Briefcase({"ID": [b"%d" % index],
                                      "PAYLOAD": [bytes(64)]})
                first = original.snapshot()
                second = first.snapshot()
                original.get("ID").push(b"unshare")
                first.put("ID", b"own")
                del original
                second.append("PAYLOAD", b"outlived its lender")
            del first, second
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()

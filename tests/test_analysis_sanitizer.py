"""The briefcase-aliasing sanitizer: positives, transfers, and the
no-false-positive property over the real experiment flows.

The snapshot contract says every briefcase crossing an agent boundary
is copied (``send`` snapshots, ``go``/``spawn`` snapshot, VM launch
snapshots), so the sanitizer must stay silent across the E1 experiment,
the chaos recovery runs, and the overload floods — any SAN finding
there is a real state-sharing bug.  Conversely, deliberately sharing a
Folder between two live contexts must fire SAN001, and same-instant
writes attributed to different agents must fire SAN002.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.agent.context import AgentContext
from repro.analysis.sanitizer import (
    RULE_ALIASING,
    RULE_CONFLICT,
    AliasingSanitizer,
    sanitizing,
)
from repro.core.briefcase import Briefcase
from repro.sim.eventloop import Kernel, ambient_sanitizer


class _Node:
    """Minimal stand-in for a VM/driver node: just a kernel."""

    def __init__(self, kernel):
        self.kernel = kernel


def _context(node, vm_name, briefcase, principal="tester"):
    return AgentContext(node, vm_name, briefcase, principal)


def test_ambient_sanitizer_install_and_restore():
    assert ambient_sanitizer() is None
    with sanitizing("probe") as sanitizer:
        assert ambient_sanitizer() is sanitizer
        assert Kernel().sanitizer is sanitizer
    assert ambient_sanitizer() is None
    assert Kernel().sanitizer is None


def test_aliased_briefcase_fires_san001():
    with sanitizing("alias") as sanitizer:
        node = _Node(Kernel())
        shared = Briefcase()
        shared.put("DATA", "hello")
        _context(node, "vm-a", shared, principal="alice")
        _context(node, "vm-b", shared, principal="bob")
    rules = [f.rule for f in sanitizer.sorted_findings()]
    assert RULE_ALIASING in rules
    finding = next(f for f in sanitizer.findings
                   if f.rule == RULE_ALIASING)
    assert "alice" in finding.message and "bob" in finding.message
    assert finding.path == "runtime:alias"


def test_snapshot_does_not_fire():
    with sanitizing("snapshot") as sanitizer:
        node = _Node(Kernel())
        original = Briefcase()
        original.put("DATA", "hello")
        _context(node, "vm-a", original, principal="alice")
        _context(node, "vm-b", original.snapshot(), principal="bob")
    assert sanitizer.clean
    assert sanitizer.observations > 0


def test_a_copy_on_write_snapshot_is_not_aliasing():
    """A snapshot shares its lender's Folder objects until either side
    writes, and cannot write them itself: two live agents holding a
    lender and its snapshot alias nothing, before or after the copy."""
    with sanitizing("cow") as sanitizer:
        node = _Node(Kernel())
        original = Briefcase()
        original.put("DATA", "hello")
        original.put("MORE", "world")
        alice = _context(node, "vm-a", original, principal="alice")
        borrowed = original.snapshot()
        assert borrowed._folders["DATA"] is original._folders["DATA"]
        bob = _context(node, "vm-b", borrowed, principal="bob")
        alice._sanitize(original, "send")
        bob._sanitize(borrowed, "recv")
        borrowed.put("DATA", "bob's")           # bob takes his copies
        original.get("MORE").push("alice's")
        alice._sanitize(original, "send")
        bob._sanitize(borrowed, "send")
    assert sanitizer.clean
    assert sanitizer.observations > 0


def test_one_owned_folder_in_two_live_agents_still_fires_san001():
    """What the sanitizer skips is a *borrowed* folder; a Folder that
    two briefcases each hold as their own is the skipped-copy bug."""
    with sanitizing("owned") as sanitizer:
        node = _Node(Kernel())
        original = Briefcase()
        original.put("DATA", "hello")
        original.snapshot()                     # a borrower, long gone
        leaked = Briefcase()
        leaked._folders["DATA"] = original.get("DATA")
        _context(node, "vm-a", original, principal="alice")
        _context(node, "vm-b", leaked, principal="bob")
    assert [f.rule for f in sanitizer.findings] == [RULE_ALIASING]


def test_same_instant_conflicting_writes_fire_san002():
    with sanitizing("conflict") as sanitizer:
        node = _Node(Kernel())
        shared = Briefcase()
        shared.put("DATA", "v0")
        a = _context(node, "vm-a", shared, principal="alice")
        shared.put("DATA", "v1")
        a._sanitize(shared, "send")          # write attributed to alice
        shared.put("DATA", "v2")
        _context(node, "vm-b", shared, "bob")  # bob writes, same instant
    rules = {f.rule for f in sanitizer.findings}
    assert RULE_CONFLICT in rules


def test_repeated_writes_by_one_agent_are_fine():
    with sanitizing("solo") as sanitizer:
        node = _Node(Kernel())
        briefcase = Briefcase()
        briefcase.put("DATA", "v0")
        ctx = _context(node, "vm-a", briefcase, principal="alice")
        for i in range(5):
            briefcase.put("DATA", f"v{i + 1}")
            ctx._sanitize(briefcase, "send")
    assert sanitizer.clean


def test_ownership_transfer_from_finished_agent():
    with sanitizing("transfer") as sanitizer:
        node = _Node(Kernel())
        briefcase = Briefcase()
        briefcase.put("DATA", "hello")
        a = _context(node, "vm-a", briefcase, principal="alice")
        a.finished = True                    # agent completed its run
        _context(node, "vm-b", briefcase, principal="bob")
    assert sanitizer.clean


def test_findings_deduplicate():
    sanitizer = AliasingSanitizer("dedup")
    with sanitizing("dedup", sanitizer):
        node = _Node(Kernel())
        shared = Briefcase()
        shared.put("DATA", "hello")
        a = _context(node, "vm-a", shared, principal="alice")
        b = _context(node, "vm-b", shared, principal="bob")
        for _ in range(4):
            a._sanitize(shared, "send")
            b._sanitize(shared, "send")
    aliasing = [f for f in sanitizer.findings if f.rule == RULE_ALIASING]
    assert len(aliasing) == 1


# -- no false positives on the real flows ------------------------------------


def test_quickstart_runs_clean_under_sanitizer():
    with sanitizing("quickstart") as sanitizer:
        from repro.obs.demo import run_traced_quickstart
        run_traced_quickstart()
    assert sanitizer.clean
    assert sanitizer.observations > 50   # the taps actually fired


def test_e1_runs_clean_under_sanitizer():
    with sanitizing("e1") as sanitizer:
        from repro.bench.experiments import run_e1
        run_e1(seed=2000)
    assert sanitizer.clean
    assert sanitizer.observations > 0


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=50),
       scenario=st.sampled_from(["chaos", "overload"]))
def test_property_sanitizer_never_fires_on_real_flows(seed, scenario):
    """R2 (chaos recovery) and R3 (overload) runs are alias-free for
    any seed: every briefcase that crosses an agent boundary is a
    snapshot."""
    with sanitizing(f"{scenario}-{seed}") as sanitizer:
        if scenario == "chaos":
            from repro.chaos.scenario import run_chaos
            run_chaos(seed=seed, plan="mid-crash", recovery=True)
        else:
            from repro.bench.overload import run_overload
            run_overload(seed=seed, governed=True)
    assert sanitizer.clean, [f.message for f in sanitizer.findings]
    assert sanitizer.observations > 0

"""The registry of behaviour pins: every committed pin and its producer.

    scripts/goldens.sh --check | --write

``--check`` recomputes every pin and diffs it with the committed file.
It exits 1 if one moved, naming each, and prints the ``--write``
command.  ``--write`` rewrites the pins that moved and no other, so on
an unchanged tree it writes no byte.  A producer runs either in a fresh
``python -m repro`` (the CLI documents) or in this process (what only a
test can read: telemetry artifacts and the literals).
"""

import argparse
import difflib
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from typing import Callable, Dict, List

from repro.bench.experiments import run_e1
from repro.bench.overload import run_overload
from repro.chaos.crashtest import run_crashtest
from repro.chaos.scenario import run_chaos
from repro.core import codec
from repro.obs.demo import run_traced_quickstart
from repro.obs.telemetry import Telemetry
from repro.sim.eventloop import Kernel
from repro.system.cluster import TaxCluster
from tests.golden import REGENERATE, ROOT
from tests.oracles.codec import make_codec_workload
from tests.oracles.kernel import _timer_delays


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stdout(*argv: str) -> str:
    """What ``argv``, run at the repo root, prints; raises if it fails."""
    return subprocess.run(argv, cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout.decode("utf-8")


def _repro(*args: str) -> str:
    return _stdout(sys.executable, "-m", "repro", *args)


# -- telemetry.txt: what telemetry records, per artifact ------------------------

#: Scenario label -> the run that produces it (seed 7, as the CLI).
SCENARIOS: Dict[str, Callable[[], object]] = {
    "overload --seed 7":
        lambda: run_overload(seed=7, governed=True),
    "overload --seed 7 --mode ungoverned":
        lambda: run_overload(seed=7, governed=False),
    "chaos --seed 7 --plan crash-restart":
        lambda: run_chaos(seed=7, plan="crash-restart"),
    "crashtest --seed 7 --scenario kill-during-migration":
        lambda: run_crashtest(seed=7, scenario="kill-during-migration"),
}


def telemetry_artifacts(telemetry) -> List[tuple]:
    """``(artifact name, text)`` for everything ``telemetry`` recorded."""
    tracer, flight = telemetry.tracer, telemetry.flight
    artifacts = [("trace.jsonl", tracer.to_jsonl()),
                 ("trace.chrome", json.dumps(tracer.to_chrome()))]
    for host in flight.hosts():
        artifacts.append((f"flight.ring[{host}]",
                          json.dumps(flight.snapshot(host))))
    for index, dump in enumerate(flight.dumps):
        artifacts.append((f"flight.dump[{index}]", json.dumps(dump)))
    artifacts.append(("metrics.snapshot",
                      json.dumps(telemetry.metrics.snapshot())))
    return artifacts


def capture(run: Callable[[], object]) -> List[tuple]:
    """Run one scenario; return the artifacts of every cluster it
    closed, each read just before its close."""
    captured: List[tuple] = []
    close = TaxCluster.close
    ordinals = itertools.count()

    def reading_close(cluster):
        ordinal = next(ordinals)
        for name, text in telemetry_artifacts(cluster.telemetry):
            captured.append((f"cluster{ordinal} {name}", text))
        close(cluster)

    TaxCluster.close = reading_close
    try:
        run()
    finally:
        TaxCluster.close = close
    return captured


def telemetry_lines() -> List[str]:
    """``telemetry.txt``'s lines: ``scenario<TAB>artifact<TAB>sha256``."""
    lines = []
    for label, run in SCENARIOS.items():
        for name, text in capture(run):
            lines.append(f"{label}\t{name}\t{sha256_text(text)}")
    return lines


# -- literals.json: the single figures tests assert ----------------------------

def e1_report_digest(telemetry: bool) -> str:
    """sha256 of E1's report document at seed 2000 (what ``repro bench
    --json`` writes, less its wall time), as indented sorted-keys JSON."""
    document = run_e1(seed=2000, telemetry=telemetry).to_dict()
    return sha256_text(json.dumps(document, indent=2, sort_keys=True))


def codec_wire_digest() -> str:
    return sha256_text(codec.encode(make_codec_workload()).hex())


def timer_drain_now(kernel, step: bool = False) -> float:
    """The instant ``kernel`` ends at after 10 000 seeded timers, run to
    the end in one drain or (``step``) under an event budget."""
    for delay in _timer_delays(10_000, 2000):
        kernel.timeout(delay)
    if step:
        kernel.run(max_events=10**9)
    else:
        kernel.run()
    return round(kernel.now, 9)


def literals() -> Dict[str, object]:
    cluster, _ = run_traced_quickstart(telemetry=Telemetry(enabled=False))
    # What the traced quickstart moved, and the instant it ended at.
    quickstart = {"remote_bytes": cluster.network.total_remote_bytes(),
                  "remote_messages": cluster.network.total_remote_messages(),
                  "final_now": round(cluster.kernel.now, 9)}
    cluster.close()
    return {
        "codec_workload_wire_sha256": codec_wire_digest(),
        "e1_report_sha256": {"telemetry-off": e1_report_digest(False),
                             "telemetry-on": e1_report_digest(True)},
        "quickstart": quickstart,
        "timer_drain_now": timer_drain_now(Kernel()),
    }


# -- the registry ---------------------------------------------------------------

def _experiments_document() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "results.json")
        _repro("experiments", "--json", out)
        with open(out, encoding="utf-8") as handle:
            return handle.read()


#: Every pin, by its path from the repo root, and its producer.
PINS: Dict[str, Callable[[], str]] = {
    "tests/golden/digests.txt": lambda: _stdout("bash", "scripts/digests.sh"),
    "tests/golden/metrics.txt": lambda: _repro("metrics"),
    "tests/golden/telemetry.txt":
        lambda: "".join(line + "\n" for line in telemetry_lines()),
    "tests/golden/literals.json":
        lambda: json.dumps(literals(), indent=2, sort_keys=True) + "\n",
    "results.json": _experiments_document,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="scripts/goldens.sh", description=(
        "Recompute every behaviour pin; diff it with (--check) or write "
        "it over (--write) the committed file."))
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    moved, failed = [], []
    for pin, produce in PINS.items():
        try:
            produced = produce()
        except subprocess.CalledProcessError as exc:
            print(f"{pin}: its producer exited {exc.returncode}")
            failed.append(pin)
            continue
        with open(os.path.join(ROOT, pin), encoding="utf-8",
                  newline="") as handle:
            committed = handle.read()
        if produced == committed:
            continue
        moved.append(pin)
        if args.write:
            with open(os.path.join(ROOT, pin), "w", encoding="utf-8",
                      newline="") as handle:
                handle.write(produced)
            print(f"wrote {pin}")
            continue
        diff = list(difflib.unified_diff(
            committed.splitlines(), produced.splitlines(), pin,
            "recomputed", lineterm="", n=0))
        print("\n".join(diff[:60]))
    if failed:
        print(f"{len(failed)} producer(s) failed: {', '.join(failed)}")
    if args.check and moved:
        print(f"{len(moved)} pin(s) moved: {', '.join(moved)}\n"
              f"{REGENERATE}")
    elif not moved and not failed:
        print(f"all {len(PINS)} pins hold")
    return 1 if failed or (args.check and moved) else 0


if __name__ == "__main__":
    sys.exit(main())

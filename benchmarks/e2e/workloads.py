"""The four benchmark workloads.

Each workload is a closed loop of byte-identical rounds over inputs
generated once from the seed: ``build(seed)`` is the (timed, repeated)
set-up, ``round(inputs)`` the timed work, ``verify(inputs, output)`` the
untimed correctness check that also yields the round's digest and its
operation count.  Why each workload exists — which layers do its work
and which do none — is recorded on the class and in README.md.

Everything here reaches the program through public functions only.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.bench.experiments import run_e1
from repro.core import codec
from repro.core.briefcase import Briefcase
from repro.core.errors import CommTimeoutError, OverloadError
from repro.core.limits import QueueLimits, WireLimits
from repro.core.uri import AgentUri
from repro.durability.journal import HostJournal
from repro.durability.recovery import replay_image
from repro.durability.store import VirtualDisk
from repro.firewall.dedup import DedupWindow, inject_seq
from repro.firewall.firewall import Firewall
from repro.firewall.governor import GovernorConfig
from repro.firewall.message import Message, SenderInfo
from repro.firewall.msgqueue import PendingQueue
from repro.firewall.policy import Policy
from repro.mining.strategies import CrawlTask, run_mobile, run_stationary
from repro.robot.webbot import extract_links
from repro.sim.eventloop import Kernel
from repro.sim.host import SimHost
from repro.sim.network import (BANDWIDTH_1MBIT, BANDWIDTH_100MBIT,
                               LATENCY_LAN, LATENCY_WAN, Network)
from repro.sim.rng import derive_seed
from repro.suites import load_suite, parse_suite, run_suite, suite_ok
from repro.system.bootstrap import (CLIENT_HOST, DEFAULT_EXTERNAL_HOSTS,
                                    Testbed)
from repro.system.cluster import TaxCluster
from repro.web import urls
from repro.web.server import HttpRequest, WebDeployment, WebServer
from repro.web.site import external_stub_site, generate_site, paper_site_spec

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Verdict:
    """What one round's output amounts to."""

    digest: str
    ops: int
    problems: List[str] = field(default_factory=list)


@dataclass
class Probe:
    """A direct timing of one public function on captured inputs:
    ``run(prepare())`` performs ``units`` calls (or kilobytes)."""

    prepare: Callable[[], Any]
    run: Callable[[Any], Any]
    units: float


def _sha256(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


class Workload:
    name = ""
    why = ""

    def build(self, seed: int) -> Any:
        raise NotImplementedError

    def round(self, inputs: Any) -> Any:
        raise NotImplementedError

    def verify(self, inputs: Any, output: Any) -> Verdict:
        raise NotImplementedError

    def reference_problems(self, inputs: Any, output: Any) -> List[str]:
        """A once-per-run comparison against the product's own driver."""
        return []

    def offered_wire_bytes(self, output: Any) -> int:
        """Wire bytes the round handed to the program directly (they
        cross no simulated link, so the network never counts them)."""
        return 0

    def probes(self, inputs: Any) -> Dict[str, Probe]:
        return {}


# -- e1_crawl ---------------------------------------------------------------


class E1Crawl(Workload):
    name = "e1_crawl"
    why = ("the paper's headline: stationary vs mobile Webbot over the "
           "917-page site; robot/web/network/ledger do the work, "
           "firewall/codec/journal/telemetry do none")

    def build(self, seed: int) -> Dict[str, Any]:
        spec = paper_site_spec(seed=seed)
        return {
            "seed": seed,
            "spec": spec,
            "site": generate_site(spec),
            "externals": {host: external_stub_site(host)
                          for host in DEFAULT_EXTERNAL_HOSTS},
        }

    @staticmethod
    def wire(inputs: Dict[str, Any]) -> Testbed:
        """``build_linkcheck_testbed`` minus site generation: the same
        public constructors around the pre-generated sites."""
        spec, site = inputs["spec"], inputs["site"]
        deployment = WebDeployment()
        cluster = TaxCluster(web=deployment)
        client = cluster.add_node(CLIENT_HOST)
        server = cluster.add_node(spec.host)
        cluster.network.link(CLIENT_HOST, spec.host, latency=LATENCY_LAN,
                             bandwidth=BANDWIDTH_100MBIT)
        deployment.add(WebServer(server.host, site))
        for name, stub in inputs["externals"].items():
            host = cluster.hosts.add(
                SimHost(cluster.kernel, cluster.network, name))
            deployment.add(WebServer(host, stub))
            for attached in (CLIENT_HOST, spec.host):
                cluster.network.link(attached, name, latency=LATENCY_WAN,
                                     bandwidth=BANDWIDTH_1MBIT)
        return Testbed(cluster=cluster, deployment=deployment,
                       client=client, servers=[server],
                       sites={spec.host: site})

    def round(self, inputs: Dict[str, Any]):
        testbed = self.wire(inputs)
        task = CrawlTask.for_site(inputs["site"])
        return run_stationary(testbed, [task]), run_mobile(testbed, [task])

    @staticmethod
    def _rows(output) -> List[list]:
        return [[m.strategy, m.elapsed_seconds, m.remote_bytes,
                 m.pages_scanned, m.dead_links_found] for m in output]

    def verify(self, inputs, output) -> Verdict:
        stationary, mobile = output
        problems = []
        if stationary.dead_links_found != mobile.dead_links_found:
            problems.append(
                f"dead links differ: stationary "
                f"{stationary.dead_links_found}, mobile "
                f"{mobile.dead_links_found}")
        ratio = stationary.elapsed_seconds / mobile.elapsed_seconds
        if not 1.05 <= ratio <= 1.35:
            problems.append(f"speed-up {ratio:.3f} outside E1's "
                            f"1.05-1.35 band")
        digest = _sha256(json.dumps(
            [self._rows(output), stationary.reports, mobile.reports],
            sort_keys=True))
        return Verdict(digest, stationary.pages_scanned +
                       mobile.pages_scanned, problems)

    def reference_problems(self, inputs, output) -> List[str]:
        report = run_e1(seed=inputs["seed"])
        expected = [row[1:] for row in report.rows if row[0] == "full-task"]
        if expected != self._rows(output):
            return [f"benchmark-wired testbed rows {self._rows(output)} "
                    f"!= run_e1 full-task rows {expected}"]
        return []

    def probes(self, inputs) -> Dict[str, Probe]:
        site, spec = inputs["site"], inputs["spec"]
        paths = [path for path, page in site.pages.items()
                 if page.is_html][:200]
        pages = [site.pages[path].html for path in paths]
        base = urls.parse(site.root_url)
        references = [link for html in pages
                      for link in extract_links(html)][:2000]
        requests = [HttpRequest("GET", path) for path in paths]

        def fresh_server():
            testbed = self.wire(inputs)
            return testbed.deployment.resolve(base)

        return {
            "probe.web.site.generate_site_ms": Probe(
                lambda: spec, generate_site, 1),
            "probe.robot.extract_links_us": Probe(
                lambda: pages,
                lambda htmls: [extract_links(html) for html in htmls],
                len(pages)),
            "probe.web.urls.join_us": Probe(
                lambda: references,
                lambda refs: [urls.join(base, ref) for ref in refs],
                len(references)),
            "probe.web.server.handle_us": Probe(
                fresh_server,
                lambda server: [server.handle(req) for req in requests],
                len(requests)),
            "probe.sim.network.charge_us": Probe(
                lambda: self.wire(inputs).network,
                lambda network: [network.charge(CLIENT_HOST, spec.host, 3000)
                                 for _ in range(2000)],
                2000),
        }


# -- suite workloads ----------------------------------------------------------


class SuiteWorkload(Workload):
    """A pass of ``repro.suites.run_suite`` over a fixed cell list."""

    def round(self, spec):
        return run_suite(spec)

    def ops(self, document) -> int:
        raise NotImplementedError

    def verify(self, spec, document) -> Verdict:
        problems = [f"cell {cell['id']} {cell['status']}: "
                    f"{[c for c in cell['checks'] if not c['ok']]}"
                    for cell in document["cells"]
                    if cell["status"] != "passed"]
        if not suite_ok(document) and not problems:
            problems.append("suite summary not ok")
        digest = _sha256(*[f"{cell['id']} {cell['status']} {cell['digest']}"
                           for cell in document["cells"]])
        return Verdict(digest, self.ops(document), problems)


class MsgStorm(SuiteWorkload):
    name = "msg_storm"
    why = ("governed and ungoverned overload floods with telemetry on: "
           "in-sim envelope delivery under admission control "
           "(firewall, obs, eventloop, briefcase); no crawl, no codec "
           "decode")

    def build(self, seed: int):
        return parse_suite({
            "suite": "msg_storm",
            "seed": seed,
            "early_stop": "never",
            "cells": [{
                "plugin": "overload",
                "matrix": {
                    "mode": ["governed", "ungoverned"],
                    "seed": [derive_seed(seed, "msg_storm/a"),
                             derive_seed(seed, "msg_storm/b")],
                },
            }],
        })

    def ops(self, document) -> int:
        return sum(cell["document"]["flood"]["offered"]
                   for cell in document["cells"])

    def probes(self, spec) -> Dict[str, Probe]:
        target = AgentUri(host="probe.example", name="absent")
        sender = SenderInfo(principal="probe", host="peer.example")
        n = 1000

        def messages():
            return PendingQueue(Kernel(), host="probe.example"), [
                Message(target=target, briefcase=Briefcase(), sender=sender)
                for _ in range(n)]

        def park_claim(prepared):
            queue, parked = prepared
            for message in parked:
                queue.park(message, wire_bytes=64)
            return queue.claim(lambda uri: True)

        def scheduled():
            kernel = Kernel()
            for i in range(5000):
                kernel.timeout(i * 0.001)
            return kernel

        return {
            "probe.sim.eventloop.drain_us_per_event": Probe(
                scheduled, lambda kernel: kernel.run(), 5000),
            "probe.firewall.dedup.observe_us": Probe(
                DedupWindow,
                lambda window: [window.observe("peer", seq)
                                for seq in range(5000)],
                5000),
            "probe.firewall.msgqueue.park_claim_us": Probe(
                messages, park_claim, n),
        }


class DurableSuite(SuiteWorkload):
    name = "durable_suite"
    why = ("what a user or CI runs: chaos, partition and crashtest cells "
           "through the suite runner; the only workload with journal "
           "replay, VM migration, fault injection, wrappers and "
           "per-cell cluster boot")

    #: The suite file pins its own seed: partition-storm does not hold
    #: ``exactly_once`` at every seed (8, 14, 15, 32, 38 fail among
    #: 1-40), and a workload may not contain failing operations.
    suite_file = os.path.join(HERE, "durable.suite.yaml")

    def build(self, seed: int):
        return load_suite(self.suite_file)

    def ops(self, document) -> int:
        return len(document["cells"])

    def probes(self, spec) -> Dict[str, Probe]:
        n = 500

        def fresh_journal():
            return HostJournal(VirtualDisk(Kernel(), "probe.example"),
                               "probe.example")

        def write(journal):
            for seq in range(n):
                journal.record("dedup-observe", peer="peer.example", seq=seq)
            return journal

        with observed(VirtualDisk) as seen:
            run_suite(spec)
        disk = max(seen[VirtualDisk], key=lambda d: d.bytes_written)
        records, torn, segment = HostJournal(disk, disk.host).replay()

        return {
            "probe.durability.journal.record_us": Probe(
                fresh_journal, write, n),
            "probe.durability.replay_image_ms": Probe(
                lambda: records,
                lambda recs: replay_image(recs, torn, segment,
                                          disk.kernel.now),
                1),
        }


# -- wire_ingress ---------------------------------------------------------------

WIRE_TARGET_HOST = "target.wire.example"
WIRE_PEER_HOST = "peer.wire.example"
WIRE_COLLECTOR = "collector"
#: Frames offered before the collector registers; the bounded pending
#: queue parks WIRE_QUEUE_BOUND of them and sheds the rest (typed).
WIRE_EARLY_FRAMES = 200
WIRE_QUEUE_BOUND = 125
WIRE_LIMIT_BYTES = 64_000
WIRE_BATCH = 50
#: Frames per round by kind: ~200 B, ~4 KB and ~48 KB well-formed ones
#: (per-frame overhead and per-byte cost both matter), 2 % malformed
#: and 2 % retransmits of a recent frame.  1500 frames make the round
#: about as long as the other workloads' (~0.13 s).
WIRE_MIX = {"small": 1020, "medium": 375, "large": 45,
            "truncated": 10, "bit-flipped": 10, "oversized": 10,
            "retransmit": 30}
WIRE_PLAIN = ("small", "medium", "large")
WIRE_MALFORMED = ("truncated", "bit-flipped", "oversized")
WIRE_FRAMES = sum(WIRE_MIX.values())


class WireIngress(Workload):
    name = "wire_ingress"
    why = ("raw bytes through Firewall.receive_wire on a governed "
           "target: cold encode beside decode under limits, strip, "
           "dedup, park/claim, quarantine; core.codec is 22 % of the "
           "round here, at most 2 % elsewhere")

    def build(self, seed: int) -> List[Dict[str, Any]]:
        """Frame recipes.  The mix is fixed (WIRE_MIX) so every seed
        offers the same work; the seed draws order, sizes and bytes."""
        rng = random.Random(seed)
        plain = [kind for kind in WIRE_PLAIN
                 for _ in range(WIRE_MIX[kind])]
        rng.shuffle(plain)
        special = [kind for kind in WIRE_MIX if kind not in WIRE_PLAIN
                   for _ in range(WIRE_MIX[kind])]
        # Nothing special until well after the collector has registered:
        # a retransmit must follow a frame that was delivered, so that
        # the dedup window still holds its stamp.
        quiet = WIRE_EARLY_FRAMES + 20
        late = plain[quiet:] + special
        rng.shuffle(late)
        recipes: List[Dict[str, Any]] = []
        for index, kind in enumerate(plain[:quiet] + late):
            recipe: Dict[str, Any] = {"id": f"f{index:04d}",
                                      "seq": index + 1, "kind": kind}
            if kind == "retransmit":
                recipe["of"] = index - rng.randrange(1, 10)
                while recipes[recipe["of"]]["kind"] not in WIRE_PLAIN:
                    recipe["of"] -= 1
                folders = []        # re-offers that frame's bytes
            elif kind == "oversized":
                folders = [("PAYLOAD", [rng.randbytes(70_000)])]
            elif kind == "medium":
                folders = [(f"FOLDER-{j}",
                            [rng.randbytes(rng.randrange(100, 300))
                             for _ in range(rng.randrange(2, 6))])
                           for j in range(rng.randrange(3, 7))]
            elif kind == "large":
                folders = [("BULK", [rng.randbytes(24_000)
                                     for _ in range(2)])]
            else:       # small, and the truncated / bit-flipped victims
                folders = [("SENT-AT", [repr(rng.random()).encode()]),
                           ("PAYLOAD", [rng.randbytes(120)])]
            recipe["folders"] = [("ID", [recipe["id"].encode()])] + folders
            recipes.append(recipe)
        return recipes

    @staticmethod
    def _briefcase(recipe, stamped: bool) -> Briefcase:
        briefcase = Briefcase()
        for name, elements in recipe["folders"]:
            for element in elements:
                briefcase.append(name, element)
        if stamped:
            inject_seq(briefcase, WIRE_PEER_HOST, recipe["seq"])
        return briefcase

    def _frame(self, recipe) -> bytes:
        data = codec.encode(self._briefcase(recipe, stamped=True))
        if recipe["kind"] == "truncated":
            return data[: len(data) // 2]
        if recipe["kind"] == "bit-flipped":
            flipped = bytearray(data)
            flipped[5] ^= 0x80      # folder count jumps past every cap
            return bytes(flipped)
        return data

    @staticmethod
    def _target_cluster():
        cluster = TaxCluster()
        governor = GovernorConfig(
            queue_limits=QueueLimits(max_messages=WIRE_QUEUE_BOUND),
            wire_limits=WireLimits(max_encoded_bytes=WIRE_LIMIT_BYTES))
        node = cluster.add_node(WIRE_TARGET_HOST,
                                policy=Policy(governor=governor))
        return cluster, node

    def round(self, recipes) -> Dict[str, Any]:
        cluster, node = self._target_cluster()
        kernel, firewall = cluster.kernel, node.firewall
        target = AgentUri(host=WIRE_TARGET_HOST, name=WIRE_COLLECTOR)
        sender = SenderInfo(principal="feeder", host=WIRE_PEER_HOST)
        frames: List[bytes] = []
        outcomes: List[str] = []
        delivered: List[Briefcase] = []

        def offer(recipe) -> None:
            if recipe["kind"] == "retransmit":
                data = frames[recipe["of"]]
            else:
                data = self._frame(recipe)
            frames.append(data)
            try:
                accepted = firewall.receive_wire(data, target, sender)
            except OverloadError as exc:
                outcomes.append(type(exc).__name__)
            else:
                outcomes.append("accepted" if accepted else "refused")

        def collector(ctx):
            while True:
                try:
                    message = yield from ctx.recv(timeout=1.0)
                except CommTimeoutError:
                    return
                delivered.append(message.briefcase)

        def scenario():
            for recipe in recipes[:WIRE_EARLY_FRAMES]:
                offer(recipe)
            drain = kernel.spawn(
                collector(node.driver(name=WIRE_COLLECTOR)),
                name=WIRE_COLLECTOR)
            rest = recipes[WIRE_EARLY_FRAMES:]
            for start in range(0, len(rest), WIRE_BATCH):
                for recipe in rest[start:start + WIRE_BATCH]:
                    offer(recipe)
                yield kernel.timeout(0.01)
            yield drain

        cluster.run(scenario(), name=self.name)
        return {"outcomes": outcomes, "delivered": delivered,
                "offered_bytes": sum(len(data) for data in frames),
                "duplicates": firewall.stats.duplicates,
                "quarantined": len(firewall.quarantine)}

    def offered_wire_bytes(self, output) -> int:
        return output["offered_bytes"]

    def verify(self, recipes, output) -> Verdict:
        outcomes = output["outcomes"]
        delivered = output["delivered"]
        by_id = {recipe["id"]: recipe for recipe in recipes}
        kinds = [recipe["kind"] for recipe in recipes]
        malformed = sum(kind in WIRE_MALFORMED for kind in kinds)
        rejected = len(outcomes) - outcomes.count("accepted") \
            - outcomes.count("refused")
        problems = []
        accounted = len(delivered) + output["duplicates"] + \
            output["quarantined"] + rejected
        if len(outcomes) != len(recipes) or accounted != len(recipes):
            problems.append(
                f"offered {len(recipes)} != delivered {len(delivered)} + "
                f"duplicates {output['duplicates']} + quarantined "
                f"{output['quarantined']} + typed-rejected {rejected}")
        if output["quarantined"] != malformed:
            problems.append(f"quarantined {output['quarantined']} != "
                            f"malformed {malformed}")
        if output["duplicates"] != kinds.count("retransmit"):
            problems.append(f"duplicates {output['duplicates']} != "
                            f"retransmits {kinds.count('retransmit')}")
        if rejected != WIRE_EARLY_FRAMES - WIRE_QUEUE_BOUND:
            problems.append(f"typed-rejected {rejected} != frames shed by "
                            f"the bounded queue "
                            f"{WIRE_EARLY_FRAMES - WIRE_QUEUE_BOUND}")
        encodings = []
        for briefcase in delivered:
            wire = codec.encode(briefcase)
            encodings.append(hashlib.sha256(wire).hexdigest())
            recipe = by_id.get(briefcase.get_text("ID", ""))
            if recipe is None or wire != codec.encode(
                    self._briefcase(recipe, stamped=False)):
                problems.append(f"delivered briefcase "
                                f"{briefcase.get_text('ID')!r} does not "
                                f"re-encode to its source bytes")
        return Verdict(_sha256(*outcomes, *encodings), len(recipes), problems)

    def probes(self, recipes) -> Dict[str, Probe]:
        good = [recipe for recipe in recipes
                if recipe["kind"] in WIRE_PLAIN]
        small = [recipe for recipe in good
                 if recipe["kind"] == "small"][:200]
        frames = [self._frame(recipe) for recipe in good]
        small_frames = [self._frame(recipe) for recipe in small]
        limits = WireLimits(max_encoded_bytes=WIRE_LIMIT_BYTES)

        def fresh():
            return [self._briefcase(recipe, stamped=True) for recipe in good]

        def warm():
            briefcases = fresh()
            for briefcase in briefcases:
                codec.encode(briefcase)
            return briefcases

        def receiver():
            cluster, node = self._target_cluster()
            node.driver(name=WIRE_COLLECTOR)
            return node.firewall

        target = AgentUri(host=WIRE_TARGET_HOST, name=WIRE_COLLECTOR)
        sender = SenderInfo(principal="feeder", host=WIRE_PEER_HOST)
        encode_all = lambda briefcases: [codec.encode(b) for b in briefcases]
        return {
            "probe.core.codec.encode_cold_us": Probe(
                fresh, encode_all, len(good)),
            "probe.core.codec.encode_warm_us": Probe(
                warm, encode_all, len(good)),
            "probe.core.codec.encoded_size_us": Probe(
                fresh,
                lambda briefcases: [codec.encoded_size(b)
                                    for b in briefcases],
                len(good)),
            "probe.core.codec.decode_us_per_kb": Probe(
                lambda: frames,
                lambda datas: [codec.decode(data, limits=limits)
                               for data in datas],
                sum(len(data) for data in frames) / 1024.0),
            "probe.firewall.receive_wire_us": Probe(
                receiver,
                lambda firewall: [firewall.receive_wire(data, target, sender)
                                  for data in small_frames],
                len(small_frames)),
        }


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (E1Crawl(), MsgStorm(), WireIngress(), DurableSuite())}

PROBE_NAMES: Tuple[str, ...] = (
    "probe.web.site.generate_site_ms",
    "probe.robot.extract_links_us",
    "probe.web.urls.join_us",
    "probe.web.server.handle_us",
    "probe.sim.network.charge_us",
    "probe.sim.eventloop.drain_us_per_event",
    "probe.core.codec.encode_cold_us",
    "probe.core.codec.encode_warm_us",
    "probe.core.codec.encoded_size_us",
    "probe.core.codec.decode_us_per_kb",
    "probe.firewall.receive_wire_us",
    "probe.firewall.dedup.observe_us",
    "probe.firewall.msgqueue.park_claim_us",
    "probe.durability.journal.record_us",
    "probe.durability.replay_image_ms",
)


# -- exact counts ---------------------------------------------------------------


@contextmanager
def observed(*classes) -> Iterator[Dict[type, list]]:
    """Record every instance of ``classes`` constructed inside the block.

    The suite plugins build their clusters internally, so the counting
    pass (never a timed one) watches constructors to reach the kernels,
    networks, firewalls and disks whose public counters it then reads.
    """
    seen: Dict[type, list] = {cls: [] for cls in classes}
    originals = {cls: cls.__init__ for cls in classes}

    def recording(cls):
        original = originals[cls]

        def __init__(self, *args, **kwargs):
            original(self, *args, **kwargs)
            seen[cls].append(self)
        return __init__

    for cls in classes:
        cls.__init__ = recording(cls)
    try:
        yield seen
    finally:
        for cls, original in originals.items():
            cls.__init__ = original


def count_round(workload: Workload, inputs) -> Tuple[Dict[str, float], Any]:
    """One untimed round under observation: the simulated statistics a
    pure speed-up must leave identical, per round."""
    with observed(Kernel, Network, Firewall, VirtualDisk) as seen:
        output = workload.round(inputs)
    firewalls = seen[Firewall]
    return {
        "count.sim_events": sum(k.processed_events for k in seen[Kernel]),
        "count.virtual_s_per_round": sum(k.now for k in seen[Kernel]),
        "count.wire_bytes": sum(n.total_remote_bytes()
                                for n in seen[Network])
        + workload.offered_wire_bytes(output),
        "count.journal_bytes": sum(d.bytes_written
                                   for d in seen[VirtualDisk]),
        "count.fw_admitted": sum(f.governor.admitted for f in firewalls),
        "count.fw_rejected": sum(f.stats.rejected for f in firewalls),
        "count.fw_duplicates": sum(f.stats.duplicates for f in firewalls),
        "count.fw_quarantined": sum(len(f.quarantine) for f in firewalls),
    }, output

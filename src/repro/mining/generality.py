"""Generality glue: mobilising the second robot with the same wrapper.

Nothing in :mod:`repro.wrappers.mobility` changes here — that is the
point.  Mobilising a different COTS robot takes exactly three
app-specific pieces, mirroring what the Webbot needed:

1. ship its source (``build_checkbot_program``),
2. phrase its arguments (``checkbot_args``),
3. condense its result vocabulary into the common dead-link report
   (``condense_checkbot_result``).
"""

from __future__ import annotations

import json
from typing import Dict, Sequence

from repro.firewall.auth import KeyChain
from repro.mining.strategies import (
    RunMetrics,
    _ensure_principal,
    run_wrapped,
)
from repro.mining.webbot_agent import WEBBOT_PRINCIPAL, link_sources
from repro.robot import checkbot as _checkbot_module
from repro.robot.report import DeadLinkReport
from repro.system.bootstrap import Testbed
from repro.vm import loader
from repro.wrappers.mobility import make_task_briefcase

PROGRAM_ENTRY = "run_checkbot"


def build_checkbot_program(keychain: KeyChain,
                           principal: str = WEBBOT_PRINCIPAL,
                           archs: Sequence[str] = ("x86-unix",)
                           ) -> loader.Payload:
    source = link_sources([_checkbot_module])
    payload = loader.pack_source(source, PROGRAM_ENTRY,
                                 origin="checkbot-linked")
    compiled = loader.compile_source(payload)
    return loader.pack_binary_list(
        [(arch, compiled) for arch in archs], keychain, principal)


def checkbot_args(start_url: str, allowed_hosts: Sequence[str],
                  site: str) -> Dict:
    return {"start_urls": [start_url],
            "allowed_hosts": list(allowed_hosts),
            "site": site}


def condense_checkbot_result(result: Dict, args: Dict) -> Dict:
    """Checkbot vocabulary -> the common dead-link report dict."""
    invalid = [{"url": record["href"],
                "referrer": record["parent"],
                "reason": "http",
                "status": record["code"]}
               for record in result.get("broken", ())]
    report = DeadLinkReport(
        site=args.get("site", "<unknown>"),
        pages_scanned=result.get("ok", 0),
        bytes_scanned=result.get("bytes_fetched", 0),
        links_seen=result.get("checked", 0) +
        result.get("offsite_checked", 0),
        invalid=invalid,
        rejected_checked=result.get("offsite_checked", 0))
    return json.loads(report.to_json())


def run_checkbot_mobile(testbed: Testbed, site_host: str,
                        timeout: float = 1_000_000.0) -> RunMetrics:
    """The Checkbot under the unchanged mobility wrapper."""
    _ensure_principal(testbed)
    cluster = testbed.cluster
    archs = sorted({node.host.arch for node in cluster.nodes.values()})
    program = build_checkbot_program(cluster.keychain, WEBBOT_PRINCIPAL,
                                     archs=archs)
    driver = cluster.node(testbed.client.host.name).driver(
        name="checkbot_home", principal=WEBBOT_PRINCIPAL)
    site = testbed.site_of(site_host)
    briefcase = make_task_briefcase(
        program,
        [{"vm": str(cluster.vm_uri(site_host)),
          "args": checkbot_args(site.root_url, [site_host], site_host)}],
        home_uri=str(driver.uri),
        postprocessor=condense_checkbot_result,
        agent_name="mwCheckbot")

    return run_wrapped(testbed, driver, briefcase, "checkbot-mobile",
                       timeout)

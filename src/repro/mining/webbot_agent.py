"""mwWebbot / rwWebbot: the paper's Figure-5 case study, assembled.

This module turns the stationary Webbot into the paper's mobile link
validator:

1. :func:`build_webbot_program` — "statically links" the Webbot module
   and the second-pass link checker into one self-contained source blob
   (the Python analogue of the single C binary), compiles it, and signs
   it per architecture into the ``binary`` payload ag_exec consumes.
2. :func:`condense_webbot_result` — the condensation step: the raw crawl
   result (including the bulky rejected-link log) is reduced to the
   dead-link report before it is stored in the agent's briefcase, so
   only the mining *result* rides the network home.
3. :func:`make_mwwebbot` — assembles the launch briefcase: the mobility
   wrapper carrying the program, the itinerary, and optionally the
   monitoring wrapper (rwWebbot) around it.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import inspect

from repro.core.briefcase import Briefcase
from repro.core.uri import AgentUri
from repro.core import wellknown
from repro.firewall.auth import KeyChain
from repro.robot import linkcheck as _linkcheck_module
from repro.robot import webbot as _webbot_module
from repro.robot.report import DeadLinkReport
from repro.vm import loader
from repro.wrappers.mobility import make_task_briefcase
from repro.wrappers.monitor import OP_STATUS_QUERY, MonitorWrapper
from repro.wrappers.stack import WrapperSpec, install_wrappers

#: The principal the case-study agents run under (the paper's own
#: example principal from Figure 2).
WEBBOT_PRINCIPAL = "tacomaproject"

#: Entry point of the linked program.
PROGRAM_ENTRY = "run_link_audit"

_LAUNCHER_SOURCE = '''

def run_link_audit(args, env):
    """Program entry: full crawl plus the second validation pass."""
    config = WebbotConfig.from_dict(args)
    robot = Webbot(config, env.http)
    result = robot.run()
    if args.get("check_rejected", True):
        result["second_pass_invalid"] = validate_rejected(
            result["rejected"], env.http)
    else:
        result["second_pass_invalid"] = []
    return result
'''


def link_sources(modules: Iterable, extra_source: str = "") -> str:
    """Concatenate module sources into one compilable blob.

    ``from __future__`` imports are hoisted to the top (they are only
    legal there); everything else keeps its order.  This is the "static
    linking" a C toolchain would have done for the real Webbot.
    """
    future_lines: List[str] = []
    bodies: List[str] = []
    for module in modules:
        source = inspect.getsource(module)
        kept: List[str] = []
        for line in source.splitlines():
            if line.startswith("from __future__ import"):
                if line not in future_lines:
                    future_lines.append(line)
            else:
                kept.append(line)
        bodies.append("\n".join(kept))
    return "\n".join(future_lines) + "\n\n" + "\n\n".join(bodies) + \
        extra_source


def build_webbot_program_source() -> str:
    """The complete, self-contained link-audit program source."""
    return link_sources([_webbot_module, _linkcheck_module],
                        _LAUNCHER_SOURCE)


def build_webbot_program(keychain: KeyChain,
                         principal: str = WEBBOT_PRINCIPAL,
                         archs: Sequence[str] = ("x86-unix",)
                         ) -> loader.Payload:
    """Compile and sign the program for each architecture.

    The result is the ``binary`` payload mwWebbot carries: ag_exec at
    each landing pad extracts the blob matching the local architecture
    and verifies ``principal``'s signature before running it.
    """
    source_payload = loader.pack_source(
        build_webbot_program_source(), PROGRAM_ENTRY, origin="webbot-linked")
    compiled = loader.compile_source(source_payload)
    return loader.pack_binary_list(
        [(arch, compiled) for arch in archs], keychain, principal)


def condense_webbot_result(result: Dict, args: Dict) -> Dict:
    """Raw crawl result → dead-link report dict (the condensation step)."""
    report = DeadLinkReport.from_webbot_result(
        site=args.get("site", result.get("start_url", "<unknown>")),
        result=result,
        second_pass_invalid=result.get("second_pass_invalid", ()))
    return json.loads(report.to_json())


def crawl_args(start_url: str, prefix: Optional[str] = None,
               max_depth: int = 12, check_rejected: bool = True,
               site: Optional[str] = None,
               max_pages: Optional[int] = None) -> Dict:
    """The argument dict one itinerary stop passes to the program."""
    args: Dict = {
        "start_url": start_url,
        "prefix": prefix,
        "max_depth": max_depth,
        "check_rejected": check_rejected,
        "site": site or start_url,
    }
    if max_pages is not None:
        args["max_pages"] = max_pages
    return args


def make_mwwebbot(program: loader.Payload,
                  stops: Sequence[Tuple[str, Dict]],
                  home_uri: str,
                  monitor_uri: Optional[str] = None,
                  agent_name: str = "mwWebbot",
                  condense: bool = True,
                  extra_wrappers: Sequence[WrapperSpec] = ()) -> Briefcase:
    """Assemble the launch briefcase for the wrapped Webbot.

    ``stops`` is a list of ``(vm_uri, crawl_args)`` pairs.  With
    ``monitor_uri`` the rwWebbot monitoring wrapper is stacked around
    the mobility wrapper (Figure 5's full picture); ``extra_wrappers``
    are stacked inside the monitor (closer to the agent).
    """
    briefcase = make_task_briefcase(
        program=program,
        stops=[{"vm": vm, "args": args} for vm, args in stops],
        home_uri=home_uri,
        postprocessor=condense_webbot_result if condense else None,
        agent_name=agent_name)
    specs = []
    if monitor_uri is not None:
        specs.append(WrapperSpec.by_ref(
            MonitorWrapper, {"monitor": monitor_uri, "tag": agent_name}))
    specs.extend(extra_wrappers)
    if specs:
        install_wrappers(briefcase, specs)
    return briefcase


def query_status(ctx, agent_uri: "str | AgentUri",
                 timeout: float = 30.0) -> Dict:
    """Ask a monitored (rwWebbot-wrapped) agent where it is (generator)."""
    request = Briefcase()
    request.put(wellknown.OP, OP_STATUS_QUERY)
    reply = yield from ctx.meet(agent_uri, request, timeout=timeout)
    return reply.get_json(wellknown.RESULTS, {})

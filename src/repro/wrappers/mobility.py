"""The mobility wrapper: making non-mobile programs itinerant.

This is the paper's central move (section 5): *"take a stationary web
robot and encapsulate it using a mobile agent wrapper"*.  The generic
:func:`mobile_task_agent` is that wrapper, with the Webbot-specific
pieces factored into configuration:

- the carried **program** (a signed, per-architecture ``binary`` payload
  — the Webbot binary in the paper) lives in the PROGRAM folder;
- the **itinerary** is a folder of stops, each naming a destination VM
  and the program's arguments there;
- at each stop the agent executes the program through the site's
  ``ag_exec`` service (exactly mwWebbot's use of ag_exec), optionally
  condenses the result through a named post-processor, appends it to
  RESULTS, and moves on;
- when the itinerary is exhausted, the condensed results are sent to the
  HOME agent.

Unreachable hosts and failed executions do not kill the agent: they are
recorded in FAILURES and the itinerary continues — the Figure-4
"Unable to reach" pattern.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Optional

from repro.agent.context import DEFAULT_MEET_TIMEOUT
from repro.core.briefcase import Briefcase
from repro.core.errors import BriefcaseError, MigrationError, TaxError
from repro.core.uri import AgentUri
from repro.core import wellknown
from repro.vm import loader

#: Folder names of the mobility protocol.
ITINERARY = "ITINERARY"
PROGRAM = "PROGRAM"
PROGRAM_KIND = "PROGRAM-KIND"
CURRENT_STOP = "CURRENT-STOP"
HOME = "HOME"
FAILURES = "FAILURES"
POSTPROCESS = "POSTPROCESS"
HOP_TIMEOUT = "HOP-TIMEOUT"


def install_program(briefcase: Briefcase, payload: loader.Payload) -> None:
    """Put the carried program into the agent's briefcase."""
    briefcase.put(PROGRAM_KIND, payload.kind)
    briefcase.folder(PROGRAM).replace([payload.blob])


def read_program(briefcase: Briefcase) -> loader.Payload:
    kind = briefcase.get_text(PROGRAM_KIND)
    blob = briefcase.get_first(PROGRAM)
    if kind is None or blob is None:
        raise TaxError("briefcase carries no PROGRAM payload")
    return loader.Payload(kind, blob.data)


def add_stop(briefcase: Briefcase, vm_uri: str,
             args: Optional[Dict[str, Any]] = None) -> None:
    """Append an itinerary stop: run the program with ``args`` after
    relocating to ``vm_uri``."""
    briefcase.folder(ITINERARY).push(
        json.dumps({"vm": vm_uri, "args": args or {}}, sort_keys=True))


def set_home(briefcase: Briefcase, home_uri: str) -> None:
    briefcase.put(HOME, home_uri)


def set_hop_timeout(briefcase: Briefcase, seconds: float) -> None:
    """Per-hop ack patience for the carried itinerary.

    The mobility wrapper waits this long for each migration ack before
    re-sending the transport (the landing handshake makes the re-send
    land exactly once).  Without the folder, hops use the default meet
    timeout — fine on a quiet network, glacial when an asymmetric link
    failure is eating acks."""
    briefcase.put(HOP_TIMEOUT, repr(float(seconds)))


def hop_timeout(briefcase: Briefcase, default: float) -> float:
    raw = briefcase.get_text(HOP_TIMEOUT)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


def set_postprocessor(briefcase: Briefcase, func) -> None:
    """Name an *installed* function (module:qualname) applied to every raw
    program result before it is stored — the condensation step."""
    briefcase.put(POSTPROCESS, loader.pack_ref(func).blob)


def make_task_briefcase(program: loader.Payload,
                        stops: Iterable[Dict[str, Any]],
                        home_uri: Optional[str] = None,
                        postprocessor=None,
                        agent_name: str = "mw_agent",
                        hop_timeout: Optional[float] = None) -> Briefcase:
    """Assemble a launch-ready mobility-wrapper briefcase.

    ``stops`` are dicts with keys ``vm`` (URI string) and ``args``.
    """
    briefcase = Briefcase()
    loader.install_payload(
        briefcase, loader.pack_ref(mobile_task_agent),
        agent_name=agent_name)
    install_program(briefcase, program)
    for stop in stops:
        add_stop(briefcase, stop["vm"], stop.get("args"))
    if home_uri is not None:
        set_home(briefcase, home_uri)
    if postprocessor is not None:
        set_postprocessor(briefcase, postprocessor)
    if hop_timeout is not None:
        set_hop_timeout(briefcase, hop_timeout)
    return briefcase


# -- the agent itself -------------------------------------------------------------


def _postprocess(briefcase: Briefcase, result: Any, args: Dict) -> Any:
    blob = briefcase.get_first(POSTPROCESS)
    if blob is None:
        return result
    func = loader.materialize_ref(
        loader.Payload(loader.KIND_REF, blob.data))
    return func(result, args)


def _execute_here(ctx, briefcase: Briefcase, stop: Dict):
    """Run the carried program at this site via ag_exec."""
    request = Briefcase()
    loader.install_payload(request, read_program(briefcase))
    request.put(wellknown.ARGS, stop.get("args", {}))
    response = yield from ctx.call_service("ag_exec", "exec", request)
    return response.get_json(wellknown.RESULTS)


def _report_home(ctx, briefcase: Briefcase):
    """Ship only the condensed results (plus trail/failures) home."""
    results = [e.as_json() for e in briefcase.folder(wellknown.RESULTS)]
    home = briefcase.get_text(HOME)
    if home is None:
        return results
    report = Briefcase()
    report.folder(wellknown.RESULTS).push_all(
        e.data for e in briefcase.folder(wellknown.RESULTS))
    for extra in (FAILURES, wellknown.TRAIL):
        if briefcase.has(extra):
            report.folder(extra).push_all(
                e.data for e in briefcase.get(extra))
    report.put(wellknown.STATUS, "ok")
    report.put(wellknown.AGENT_NAME, ctx.name)
    yield from ctx.send(home, report)
    return results


def _stop_host(stop: Dict) -> Optional[str]:
    """The planned host of an itinerary stop (None for local VM names)."""
    try:
        return AgentUri.parse(stop["vm"]).host
    except TaxError:
        return None


def mobile_task_agent(ctx, briefcase: Briefcase):
    """Generic mobility wrapper: execute-here, hop, repeat, report."""
    briefcase.append(wellknown.TRAIL,
                     json.dumps({"host": ctx.host_name, "t": ctx.now}))
    patience = hop_timeout(briefcase, DEFAULT_MEET_TIMEOUT)
    current = briefcase.get_first(CURRENT_STOP)
    stop = None if current is None else current.as_object("vm")
    if stop is not None:
        planned = _stop_host(stop)
        if planned is not None and planned != ctx.host_name:
            # Relaunched off-site — a rear-guard recovered this agent's
            # checkpoint onto a surviving host.  Try to resume at the
            # planned stop (CURRENT-STOP stays set, so the fresh
            # incarnation executes there); if the host is still
            # unreachable, skip the stop and report it.
            try:
                yield from ctx.go(stop["vm"], timeout=patience)
            except MigrationError as exc:
                briefcase.drop(CURRENT_STOP)
                briefcase.append(FAILURES, {
                    "host": planned, "phase": "go", "error": str(exc)})
                stop = None
    if stop is not None:
        briefcase.drop(CURRENT_STOP)
        try:
            raw = yield from _execute_here(ctx, briefcase, stop)
            condensed = _postprocess(briefcase, raw, stop.get("args", {}))
            briefcase.append(wellknown.RESULTS, condensed)
        except TaxError as exc:
            briefcase.append(FAILURES, {
                "host": ctx.host_name, "phase": "exec", "error": str(exc)})
    while True:
        entry = briefcase.folder(ITINERARY).pop_first()
        if entry is None:
            return (yield from _report_home(ctx, briefcase))
        try:
            stop = entry.as_object("vm")
        except BriefcaseError as exc:
            briefcase.append(FAILURES, {
                "host": ctx.host_name, "phase": "itinerary",
                "error": str(exc)})
            continue
        briefcase.put(CURRENT_STOP, stop)
        try:
            yield from ctx.go(stop["vm"], timeout=patience)
        except MigrationError as exc:
            # "Unable to reach %s": record it and try the next stop.
            briefcase.drop(CURRENT_STOP)
            briefcase.append(FAILURES, {
                "host": _stop_host(stop) or stop["vm"], "phase": "go",
                "error": str(exc)})

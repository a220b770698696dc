"""ag_cron: deferred delivery (the paper's example names an ``ag_cron``).

Schedules a briefcase to be sent to a target agent URI after a delay —
the building block for watchdogs and periodic itinerant launches.  The
stored briefcase is the request's payload folders (system folders are
stripped, and so is a signature that covered them), so an agent can
schedule *any* message, including a signed launch briefcase addressed
to a VM.
"""

from __future__ import annotations

import itertools
from typing import Dict

from repro.core.briefcase import Briefcase
from repro.core.errors import ServiceError
from repro.core.uri import AgentUri, UriSyntaxError
from repro.core import wellknown
from repro.firewall.firewall import code_signing_bytes
from repro.firewall.message import Message
from repro.services.base import ServiceAgent


class AgCron(ServiceAgent):
    """The deferred-delivery service."""

    name = "ag_cron"

    def __init__(self, node):
        super().__init__(node)
        self._jobs: Dict[str, dict] = {}
        self._job_ids = itertools.count(1)
        self.fired = 0

    def op_schedule(self, message: Message):
        args = message.briefcase.get_json(wellknown.ARGS)
        if not isinstance(args, dict):
            raise ServiceError("ag_cron needs ARGS {delay, target}")
        try:
            delay = float(args["delay"])
            target = AgentUri.parse(args["target"])
        except (KeyError, ValueError, UriSyntaxError) as exc:
            raise ServiceError(f"bad schedule request: {exc}") from exc
        if delay < 0:
            raise ServiceError("delay must be non-negative")

        deferred = Briefcase()
        skip = {wellknown.OP, wellknown.REPLY_TO, wellknown.MEET_TOKEN,
                wellknown.ARGS}
        if not code_signing_bytes(message.briefcase):
            # A codeless request's signature covers the whole request,
            # OP and ARGS included, so it would not verify on the job;
            # a code-carrying launch's covers its CODE, which the job
            # carries unchanged.
            skip.add(wellknown.SIGNATURE)
        for folder in message.briefcase.snapshot():
            if folder.name not in skip:
                deferred.folder(folder.name).push_all(folder)

        job_id = f"job-{next(self._job_ids)}"
        self._jobs[job_id] = {"target": str(target), "at":
                              self.kernel.now + delay}
        self.kernel.spawn(self._fire(job_id, delay, target, deferred),
                          name=f"ag_cron:{job_id}")
        yield self.kernel.timeout(0)
        response = Briefcase()
        response.put(wellknown.RESULTS, {"job_id": job_id})
        return response

    def _fire(self, job_id: str, delay: float, target: AgentUri,
              briefcase: Briefcase):
        yield self.kernel.timeout(delay)
        if job_id not in self._jobs:
            return  # cancelled
        del self._jobs[job_id]
        self.fired += 1
        yield from self.ctx.send(target, briefcase)

    def op_cancel(self, message: Message):
        args = message.briefcase.get_json(wellknown.ARGS, {})
        job_id = args.get("job_id") if isinstance(args, dict) else None
        yield self.kernel.timeout(0)
        cancelled = self._jobs.pop(job_id, None) is not None
        response = Briefcase()
        response.put(wellknown.RESULTS, {"cancelled": cancelled})
        return response

    def op_list(self, message: Message):
        yield self.kernel.timeout(0)
        response = Briefcase()
        response.put(wellknown.RESULTS, {"jobs": sorted(self._jobs)})
        return response

"""Logging wrapper: a transparent traffic tap around an agent.

The simplest useful wrapper — and the paper's Figure-5 diagram shows a
"Logging" layer inside the wrapped Webbot.  It observes every send and
receive without altering them, keeping counters and (optionally) a trace
folder inside the agent's own briefcase so the log travels with the
agent and comes home in the final report.

The counters are per residency: each host rebuilds the wrapper stack
from the carried specs, so they start at zero on every landing.  The
trace folder is what travels — its ``hop`` record is written on
departure, before the transport snapshot is taken.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.core.briefcase import Briefcase
from repro.core import codec
from repro.core.uri import AgentUri
from repro.firewall.message import Message
from repro.wrappers.base import AgentWrapper

LOG_FOLDER = "WRAPLOG"


class LoggingWrapper(AgentWrapper):
    """Counts and traces the wrapped agent's traffic.

    Config keys:

    - ``trace``: append one JSON line per event to the WRAPLOG folder of
      the agent's briefcase (default False — counters only);
    - ``max_trace``: cap on trace entries (default 1000).
    """

    kind = "logging"

    def __init__(self, config: Optional[dict] = None):
        super().__init__(config)
        self.sent = 0
        self.received = 0
        self.sent_bytes = 0
        self.received_bytes = 0
        self.hops = 0

    def _trace(self, ctx, record: dict) -> None:
        if not self.config.get("trace", False):
            return
        folder = ctx.briefcase.folder(LOG_FOLDER)
        if len(folder) >= int(self.config.get("max_trace", 1000)):
            return
        record["t"] = ctx.now
        folder.push(json.dumps(record, sort_keys=True))

    def on_send(self, ctx, target: AgentUri, briefcase: Briefcase):
        size = codec.encoded_size(briefcase)
        self.sent += 1
        self.sent_bytes += size
        self._trace(ctx, {"dir": "send", "to": str(target), "bytes": size})
        return target, briefcase

    def on_receive(self, ctx, message: Message) -> Message:
        size = codec.encoded_size(message.briefcase)
        self.received += 1
        self.received_bytes += size
        self._trace(ctx, {"dir": "recv",
                          "from": message.sender.principal, "bytes": size})
        return message

    def on_depart(self, ctx, target: AgentUri) -> None:
        self.hops += 1
        self._trace(ctx, {"dir": "hop", "to": str(target)})

    def counters(self) -> dict:
        return {"sent": self.sent, "received": self.received,
                "sent_bytes": self.sent_bytes,
                "received_bytes": self.received_bytes, "hops": self.hops}

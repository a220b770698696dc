"""Well-known folder names used by the TAX system and service agents.

The briefcase layer never interprets folder contents, but the system and
the standard service agents agree on a handful of folder *names* — the
moral equivalent of well-known Unix environment variables.  Agents are
free to use any other names for their own state.
"""

#: Itinerary of agent URIs still to visit (Figure 4's hello-world agent).
HOSTS = "HOSTS"

#: The agent's executable payload (code, source text, or binary list).
CODE = "CODE"

#: Kind tag describing how CODE should be executed (one of the
#: ``repro.vm.loader`` payload kinds).
CODE_KIND = "CODE-KIND"

#: Arguments passed to the agent / service call.
ARGS = "ARGS"

#: Accumulated results carried home by the agent.
RESULTS = "RESULTS"

#: Error description set by a failing service call or VM.
ERROR = "ERROR"

#: Status value for request/reply service calls ("ok" / "error").
STATUS = "STATUS"

#: Signature over the CODE folder, set by the packager.
SIGNATURE = "SIGNATURE"

#: Principal name claimed by the briefcase's sender/owner.
PRINCIPAL = "PRINCIPAL"

#: Name the agent wishes to register under at the destination.
AGENT_NAME = "AGENT-NAME"

#: URI of the agent a VM launched, set in its ack of the launch.
AGENT_URI = "AGENT-URI"

#: Reply address (an agent URI string) for request/reply exchanges.
REPLY_TO = "REPLY-TO"

#: Correlation token matching replies to requests.
MEET_TOKEN = "MEET-TOKEN"

#: Folder used by ag_exec: list of per-architecture binaries.
BINARIES = "BINARIES"

#: The operation requested from a service agent or the firewall.
OP = "OP"

#: System folder: the chain of wrapper payloads around an inner agent.
WRAPPERS = "WRAPPERS"

#: Trace of hosts visited, appended by the mobility machinery.
TRAIL = "TRAIL"

#: Transport retry policy (JSON RetryPolicy config) carried by the agent;
#: the destination VM re-installs it into the new context at launch.
RETRY = "RETRY-POLICY"

#: Reserved system folder: the W3C-traceparent-style causal trace
#: context (see :mod:`repro.obs.propagation`).  It exists only on the
#: raw wire — the firewall's decoder strips it into the message envelope
#: on receipt, and it is never present while a briefcase is resident on
#: a host.
TRACE_CONTEXT = "TRACE-CONTEXT"

#: Reserved system folder: the per-sender monotonic sequence number
#: behind firewall-level duplicate suppression (see
#: :mod:`repro.firewall.dedup`).  Like TRACE-CONTEXT it exists only on
#: the raw wire — in-simulation the sequence rides the Message envelope
#: at zero wire bytes, and ``receive_wire``'s decoder always strips the
#: folder.
DELIVERY_SEQ = "DELIVERY-SEQ"

#: Reserved system folder: the unique landing id a ``go``/``spawn``
#: transport carries so a retried or duplicated migration lands exactly
#: once (see :class:`repro.firewall.dedup.LandingRegistry`).  Wire-only,
#: like DELIVERY-SEQ; in-sim it rides the Message envelope.
LANDING_ID = "LANDING-ID"

#: Incarnation counter of a recoverable agent: stamped into the task
#: briefcase at launch and bumped by every checkpoint recovery, so a
#: rear guard can tell a relaunched agent from an orphaned twin.
INCARNATION = "INCARNATION"

#: The reserved folders that exist only on the raw wire: the codec
#: splits them off an arriving briefcase while decoding it
#: (``codec.decode_arrival``), so no resident briefcase carries one.
WIRE_ONLY_FOLDERS = frozenset({TRACE_CONTEXT, DELIVERY_SEQ, LANDING_ID})

SYSTEM_FOLDERS = frozenset({
    CODE, CODE_KIND, SIGNATURE, PRINCIPAL, AGENT_NAME, WRAPPERS,
}) | WIRE_ONLY_FOLDERS

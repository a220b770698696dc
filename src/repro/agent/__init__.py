"""Agent-side runtime: mailboxes, the TAX library context, the
paper-named API, and object agents."""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    ".": "api",
    ".context": "AgentContext DEFAULT_MEET_TIMEOUT",
    ".mailbox": "Mailbox",
    ".objagent": "ObjectAgent launch_briefcase",
})

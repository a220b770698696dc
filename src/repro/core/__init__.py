"""Core TAX data model: elements, folders, briefcases, identities, URIs.

This is the language-independent heart of the system (paper section 3.1):
everything agents exchange or carry is a briefcase, and everything a
briefcase contains is uninterpreted bytes.
"""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    ".": "codec wellknown",
    ".briefcase": "Briefcase",
    ".element": "Element",
    ".folder": "Folder",
    ".identity": (
        "AgentId InstanceAllocator Principal ANONYMOUS_PRINCIPAL "
        "SYSTEM_PRINCIPAL"),
    ".uri": "AgentUri DEFAULT_PORT",
    ".errors": (
        "AccessDeniedError AgentNotFoundError AmbiguousAgentError "
        "BriefcaseError CodecError CommTimeoutError FolderNotFoundError "
        "IdentityError MigrationError SandboxViolation ServiceError TaxError "
        "TrustError UnsupportedPayloadError UriSyntaxError VMError"),
})

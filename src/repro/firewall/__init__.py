"""The TAX firewall: reference monitor, routing, queues, auth, policy."""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    ".admin": "FirewallAdmin",
    ".auth": "KeyChain Signature TrustStore build_shared_trust",
    ".firewall": (
        "Firewall FirewallDirectory LOCAL_DISPATCH_SECONDS "
        "code_signing_bytes"),
    ".message": (
        "DEFAULT_QUEUE_TIMEOUT ENVELOPE_OVERHEAD_BYTES DeliveryStats Message "
        "SenderInfo"),
    ".msgqueue": "PendingQueue",
    ".policy": "Policy closed_policy open_policy",
    ".routing": "Registration Registry",
})

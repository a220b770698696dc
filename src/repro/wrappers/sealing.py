"""Sealing wrapper: end-to-end confidentiality carried by the agent.

Paper section 4 lists stronger *security guarantees* among the support
multi-hop agents need in hostile networks.  A sealing wrapper gives two
wrapped agents a private channel over untrusted firewalls and links:

- on send, every application folder is serialised, encrypted under a
  shared key, and authenticated; only the opaque SEALED/SEAL-MAC folders
  (plus routing metadata) remain visible to the system;
- on receive, the MAC is verified and the folders are restored; sealed
  messages that fail verification are *consumed* (dropped), so tampered
  traffic never reaches the agent.

The cipher is a SHA-256 keystream (stdlib-only, same substitution policy
as the HMAC signatures elsewhere); the confidentiality/authenticity
*decisions* are the real content here, not the primitive.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import itertools
from typing import Optional

from repro.core import codec
from repro.core.briefcase import Briefcase
from repro.core.errors import CodecError
from repro.core import wellknown
from repro.core.uri import AgentUri
from repro.firewall.message import Message
from repro.wrappers.base import AgentWrapper

SEALED_FOLDER = "SEALED"
MAC_FOLDER = "SEAL-MAC"

#: Folders that must stay readable for routing and RPC correlation.
CLEAR_FOLDERS = frozenset({
    SEALED_FOLDER, MAC_FOLDER,
    wellknown.MEET_TOKEN, wellknown.REPLY_TO, wellknown.AGENT_NAME,
})


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    blocks = []
    for counter in itertools.count():
        if sum(len(b) for b in blocks) >= length:
            break
        blocks.append(hashlib.sha256(
            key + nonce + counter.to_bytes(8, "big")).digest())
    return b"".join(blocks)[:length]


def _xor(data: bytes, stream: bytes) -> bytes:
    return bytes(a ^ b for a, b in zip(data, stream))


def seal(key: bytes, nonce: bytes, plaintext: bytes) -> "tuple[bytes, str]":
    """Encrypt-then-MAC; returns (nonce+ciphertext, mac hex)."""
    ciphertext = _xor(plaintext, _keystream(key, nonce, len(plaintext)))
    sealed = nonce + ciphertext
    mac = hmac.new(key, sealed, hashlib.sha256).hexdigest()
    return sealed, mac


def unseal(key: bytes, sealed: bytes, mac: str,
           nonce_len: int = 16) -> Optional[bytes]:
    """Verify and decrypt; None when the MAC does not check out."""
    expected = hmac.new(key, sealed, hashlib.sha256).hexdigest()
    if not hmac.compare_digest(expected, mac):
        return None
    nonce, ciphertext = sealed[:nonce_len], sealed[nonce_len:]
    return _xor(ciphertext, _keystream(key, nonce, len(ciphertext)))


class SealingWrapper(AgentWrapper):
    """Seals application folders between wrapper peers.

    Config keys:

    - ``key_b64``: the shared secret, base64 (required);
    - ``seal_sends``: seal outbound traffic (default True);
    - ``require_sealed``: consume inbound messages that are *not* sealed
      (default False — mixed deployments pass plain traffic through).
    """

    kind = "sealing"

    def __init__(self, config: Optional[dict] = None):
        super().__init__(config)
        if "key_b64" not in self.config:
            raise ValueError("sealing wrapper needs a key_b64 config entry")
        self.key = base64.b64decode(self.config["key_b64"])
        self.seal_sends = bool(self.config.get("seal_sends", True))
        self.require_sealed = bool(self.config.get("require_sealed", False))
        self._nonce_counter = 0
        self.rejected_count = 0

    @staticmethod
    def make_key_config(secret: bytes, **extra) -> dict:
        return {"key_b64": base64.b64encode(secret).decode("ascii"),
                **extra}

    def _next_nonce(self, ctx) -> bytes:
        self._nonce_counter += 1
        seed = (f"{ctx.instance if ctx.registration else 'boot'}:"
                f"{self._nonce_counter}").encode()
        return hashlib.sha256(seed).digest()[:16]

    # -- outbound -----------------------------------------------------------------

    def on_send(self, ctx, target: AgentUri, briefcase: Briefcase):
        if not self.seal_sends:
            return target, briefcase
        payload = Briefcase()
        to_hide = [folder for folder in briefcase
                   if folder.name not in CLEAR_FOLDERS]
        if not to_hide:
            return target, briefcase
        for folder in to_hide:
            payload.folder(folder.name).push_all(folder)
        sealed, mac = seal(self.key, self._next_nonce(ctx),
                           codec.encode(payload))
        out = Briefcase()
        for folder in briefcase:
            if folder.name in CLEAR_FOLDERS:
                out.folder(folder.name).push_all(folder)
        out.folder(SEALED_FOLDER).replace([sealed])
        out.put(MAC_FOLDER, mac)
        return target, out

    # -- inbound ---------------------------------------------------------------------

    def on_receive(self, ctx, message: Message) -> Optional[Message]:
        briefcase = message.briefcase
        sealed_element = briefcase.get_first(SEALED_FOLDER)
        if sealed_element is None:
            if self.require_sealed:
                self.rejected_count += 1
                return None
            return message
        mac = briefcase.get_text(MAC_FOLDER, "")
        plaintext = unseal(self.key, sealed_element.data, mac)
        if plaintext is None:
            self.rejected_count += 1
            return None
        try:
            restored = codec.decode(plaintext)
        except CodecError:
            # A hostile payload's decode failure is a rejection, never
            # a retry.
            self.rejected_count += 1
            return None
        briefcase.drop(SEALED_FOLDER)
        briefcase.drop(MAC_FOLDER)
        briefcase.merge(restored)
        return message

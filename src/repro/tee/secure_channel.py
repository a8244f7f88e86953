"""Authenticated secure channel between a victim and a VIF enclave.

The paper has the victim establish a TLS channel with each attested enclave
to submit rules and fetch sketch logs.  The simulation implements a real
(if minimal) cryptographic channel using only the standard library:

* **key agreement** — finite-field Diffie-Hellman over the RFC 3526
  2048-bit MODP group; each endpoint's public value is bound into the
  attestation ``report_data``, so the victim knows the far end of the
  channel is the attested enclave, not the untrusted host (channel binding);
* **record protection** — SHA-256 counter-mode keystream for
  confidentiality plus HMAC-SHA256 for integrity, with a sequence number in
  the additional data to stop reordering/replay by the host who carries the
  ciphertexts.

This is deliberately *not* a novel cipher design — it is the textbook
encrypt-then-MAC construction instantiated with stdlib hashes so that
tampering by the simulated adversary genuinely fails authentication.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Tuple

from repro.errors import SecureChannelError
from repro.util.rng import deterministic_rng

# RFC 3526, group 14 (2048-bit MODP).
_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
_G = 2


@dataclass
class ChannelEndpoint:
    """One side of a DH key agreement."""

    name: str
    _secret: int = 0
    public: int = 0

    @classmethod
    def create(cls, name: str, seed: str) -> "ChannelEndpoint":
        """Create an endpoint with a deterministic (seeded) DH secret."""
        rng = deterministic_rng(f"dh:{seed}:{name}")
        secret = rng.getrandbits(256) | 1
        return cls(name=name, _secret=secret, public=pow(_G, secret, _P))

    def public_bytes(self) -> bytes:
        """Wire encoding of the public value (bound into report_data)."""
        return self.public.to_bytes(256, "big")

    def shared_key(self, peer_public: int) -> bytes:
        """Derive the symmetric session key from the peer's public value."""
        if not 1 < peer_public < _P - 1:
            raise SecureChannelError("peer public value out of range")
        shared = pow(peer_public, self._secret, _P)
        return hashlib.sha256(b"vif-session" + shared.to_bytes(256, "big")).digest()


class SecureChannel:
    """An established, sequence-numbered, authenticated channel."""

    def __init__(self, session_key: bytes, role: str) -> None:
        if len(session_key) != 32:
            raise SecureChannelError("session key must be 32 bytes")
        if role not in ("client", "server"):
            raise SecureChannelError("role must be 'client' or 'server'")
        self._enc_key = hashlib.sha256(session_key + b"|enc|" + role.encode()).digest()
        self._mac_key = hashlib.sha256(session_key + b"|mac|" + role.encode()).digest()
        peer = "server" if role == "client" else "client"
        self._peer_enc_key = hashlib.sha256(
            session_key + b"|enc|" + peer.encode()
        ).digest()
        self._peer_mac_key = hashlib.sha256(
            session_key + b"|mac|" + peer.encode()
        ).digest()
        self._send_seq = 0
        self._recv_seq = 0

    @classmethod
    def establish(
        cls,
        local: ChannelEndpoint,
        peer_public: int,
        role: str,
    ) -> "SecureChannel":
        """Complete the handshake given the peer's DH public value."""
        return cls(local.shared_key(peer_public), role)

    # -- records ----------------------------------------------------------------

    def seal(self, plaintext: bytes) -> bytes:
        """Encrypt-then-MAC one record; the host may carry but not alter it."""
        seq = self._send_seq
        self._send_seq += 1
        ciphertext = self._xor_keystream(self._enc_key, seq, plaintext)
        header = seq.to_bytes(8, "big") + len(ciphertext).to_bytes(4, "big")
        tag = hmac.new(self._mac_key, header + ciphertext, hashlib.sha256).digest()
        return header + ciphertext + tag

    def open(self, record: bytes) -> bytes:
        """Verify and decrypt a record from the peer; raises on any tampering."""
        if len(record) < 12 + 32:
            raise SecureChannelError("record too short")
        header, rest = record[:12], record[12:]
        seq = int.from_bytes(header[:8], "big")
        length = int.from_bytes(header[8:12], "big")
        if len(rest) != length + 32:
            raise SecureChannelError("record length mismatch")
        ciphertext, tag = rest[:length], rest[length:]
        expected = hmac.new(
            self._peer_mac_key, header + ciphertext, hashlib.sha256
        ).digest()
        if not hmac.compare_digest(expected, tag):
            raise SecureChannelError("record authentication failed")
        if seq != self._recv_seq:
            raise SecureChannelError(
                f"record replayed or reordered (seq {seq}, expected {self._recv_seq})"
            )
        self._recv_seq += 1
        return self._xor_keystream(self._peer_enc_key, seq, ciphertext)

    @staticmethod
    def _xor_keystream(key: bytes, seq: int, data: bytes) -> bytes:
        """XOR ``data`` with block ``i`` = SHA-256(key ‖ seq ‖ i), 32 bytes
        each; the whole record is XORed as one big integer."""
        length = len(data)
        prefix = hashlib.sha256(key + seq.to_bytes(8, "big"))
        blocks = []
        for i in range((length + 31) // 32):
            block = prefix.copy()
            block.update(i.to_bytes(8, "big"))
            blocks.append(block.digest())
        stream = b"".join(blocks)[:length]
        mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
        return mixed.to_bytes(length, "big")


def establish_pair(
    client_seed: str, server_seed: str
) -> Tuple[SecureChannel, SecureChannel, ChannelEndpoint, ChannelEndpoint]:
    """Convenience: run the handshake and return both channel ends.

    Returns ``(client_channel, server_channel, client_ep, server_ep)`` —
    tests and examples use it; the production path in
    :mod:`repro.core.session` performs the same steps with the enclave's
    endpoint bound into attestation report data.
    """
    client_ep = ChannelEndpoint.create("client", client_seed)
    server_ep = ChannelEndpoint.create("server", server_seed)
    client = SecureChannel.establish(client_ep, server_ep.public, "client")
    server = SecureChannel.establish(server_ep, client_ep.public, "server")
    return client, server, client_ep, server_ep

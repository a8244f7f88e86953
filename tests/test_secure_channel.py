"""The victim<->enclave secure channel: a hostile host cannot tamper."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SecureChannelError
from repro.tee.secure_channel import (
    ChannelEndpoint,
    SecureChannel,
    establish_pair,
)


def test_roundtrip():
    client, server, _, _ = establish_pair("c", "s")
    record = client.seal(b"install rule 1")
    assert server.open(record) == b"install rule 1"
    reply = server.seal(b"ack")
    assert client.open(reply) == b"ack"


def test_both_sides_derive_same_key():
    a = ChannelEndpoint.create("a", "seed-1")
    b = ChannelEndpoint.create("b", "seed-2")
    assert a.shared_key(b.public) == b.shared_key(a.public)


def test_different_sessions_have_different_keys():
    a1 = ChannelEndpoint.create("a", "s1")
    b1 = ChannelEndpoint.create("b", "s1b")
    a2 = ChannelEndpoint.create("a", "s2")
    assert a1.shared_key(b1.public) != a2.shared_key(b1.public)


#: SHA-256 of each sealed record, in sealing order on one channel, for a
#: plaintext of ``i % 251`` bytes.  Any change to the keystream, the MAC or
#: the record layout changes these.
SEALED_RECORD_DIGESTS = {
    0: "935aee4633d36c263233f0902a53244921d7a8cc3212ba8b2275ed9909c1434b",
    1: "07a4d204eace24badf316c86c8fd619485b0d7f67adf9cc32ec0821aa18a6761",
    31: "17297db6e661f5b5226e83e4570ba96c5f5dec1207d01b5ba2b18cdc33bc0383",
    32: "31599e1b93a59045ad1362997593bd046832069599713ca663f166e71505b261",
    33: "68ee5e6bfefdb8dfba8ed6ec5f594da61ec9afa924b690ac382be02bcd678f4e",
    450_000: "24dc9d09a706ef1ede802c41fef488bed0cc304686487eb223f008aacc01d219",
}


def test_sealed_records_match_known_answers():
    client, server, _, _ = establish_pair("kat-client", "kat-server")
    for length, digest in SEALED_RECORD_DIGESTS.items():
        plaintext = bytes(i % 251 for i in range(length))
        record = client.seal(plaintext)
        assert hashlib.sha256(record).hexdigest() == digest, length
        assert server.open(record) == plaintext


def test_ciphertext_hides_plaintext():
    client, _, _, _ = establish_pair("c", "s")
    record = client.seal(b"SECRET-RULE-PAYLOAD")
    assert b"SECRET-RULE-PAYLOAD" not in record


def test_tampered_record_rejected():
    client, server, _, _ = establish_pair("c", "s")
    record = bytearray(client.seal(b"hello"))
    record[14] ^= 0xFF  # flip a ciphertext bit
    with pytest.raises(SecureChannelError, match="authentication"):
        server.open(bytes(record))


def test_truncated_record_rejected():
    client, server, _, _ = establish_pair("c", "s")
    record = client.seal(b"hello")
    with pytest.raises(SecureChannelError):
        server.open(record[: len(record) // 2])
    with pytest.raises(SecureChannelError):
        server.open(b"")


def test_replay_rejected():
    client, server, _, _ = establish_pair("c", "s")
    record = client.seal(b"one")
    assert server.open(record) == b"one"
    with pytest.raises(SecureChannelError, match="replayed"):
        server.open(record)


def test_reorder_rejected():
    client, server, _, _ = establish_pair("c", "s")
    first = client.seal(b"one")
    second = client.seal(b"two")
    with pytest.raises(SecureChannelError, match="replayed or reordered"):
        server.open(second)
    assert server.open(first) == b"one"


def test_reflected_record_rejected():
    """A record sealed by the client cannot be passed back to the client."""
    client, _, _, _ = establish_pair("c", "s")
    record = client.seal(b"x")
    with pytest.raises(SecureChannelError):
        client.open(record)


def test_bad_peer_public_rejected():
    endpoint = ChannelEndpoint.create("a", "seed")
    with pytest.raises(SecureChannelError):
        endpoint.shared_key(0)
    with pytest.raises(SecureChannelError):
        endpoint.shared_key(1)


def test_channel_construction_validation():
    with pytest.raises(SecureChannelError):
        SecureChannel(b"short-key", "client")
    with pytest.raises(SecureChannelError):
        SecureChannel(b"k" * 32, "observer")


@settings(max_examples=30, deadline=None)
@given(st.binary(max_size=4096))
def test_roundtrip_arbitrary_payloads(payload):
    client, server, _, _ = establish_pair("c", "s")
    assert server.open(client.seal(payload)) == payload


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=1, max_size=256), st.integers(min_value=0, max_value=2000))
def test_any_single_bitflip_detected(payload, position):
    client, server, _, _ = establish_pair("c", "s")
    record = bytearray(client.seal(payload))
    record[position % len(record)] ^= 0x01
    with pytest.raises(SecureChannelError):
        server.open(bytes(record))

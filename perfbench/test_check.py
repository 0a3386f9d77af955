"""Tests for the benchmark's independent output checker.

    PYTHONPATH=src python3 -m pytest perfbench

Envelopes are made with hcie itself; the checker must accept them and
reject every planted fault.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
from hcie import envelope, hill, rsa  # noqa: E402


@pytest.fixture(scope="module")
def keys():
    recipient_pub, recipient_priv = rsa.keygen(512, random.Random(0xC0FFEE))
    sender_pub, sender_priv = rsa.keygen(512, random.Random(0xBEEF))
    return {
        "recipient_pub": recipient_pub,
        "sender_pub": sender_pub,
        "sender_priv": sender_priv,
        "recipient": check.read_key_file(rsa.serialize_key(recipient_priv)),
        "sender": check.read_key_file(rsa.serialize_key(sender_pub)),
    }


def _seal(keys, payload: bytes, dim_log2: int = 4, seed: int = 1) -> envelope.Envelope:
    return envelope.seal(payload, keys["recipient_pub"], keys["sender_priv"],
                         keys["sender_pub"], random.Random(seed), dim_log2)


def _check(keys, data: bytes, payload: bytes, dim_log2: int = 4) -> None:
    check.check_envelope(data, payload, dim_log2=dim_log2, recipient=keys["recipient"],
                         sender=keys["sender"], rng=random.Random(0))


PAYLOAD = random.Random(7).randbytes(300)
LARGE = random.Random(8).randbytes(check.FULL_CHECK_BYTES + 1000)


@pytest.mark.parametrize("size", [0, 1, 15, 16, 300, check.FULL_CHECK_BYTES + 1000])
@pytest.mark.parametrize("dim_log2", [1, 4, 6])
def test_accepts_envelopes_from_hcie(keys, size, dim_log2):
    payload = random.Random(size).randbytes(size)
    _check(keys, envelope.serialize(_seal(keys, payload, dim_log2)), payload, dim_log2)


def test_key_matrix_matches_hcie():
    seed = bytes(range(32))
    for dim_log2 in (1, 3, 6):
        key = hill.derive_key(seed, dim_log2)
        assert check.key_matrix(seed, dim_log2).tolist() == [list(r) for r in key.forward.rows]


def _flip(data: bytes, index: int) -> bytes:
    out = bytearray(data)
    out[index] ^= 0x01
    return bytes(out)


def _other_seed(keys, env):
    wrong = bytes(32 - i for i in range(32))
    return dataclasses.replace(
        env, encapsulated_seed=rsa.encrypt_seed(keys["recipient_pub"], wrong, random.Random(3)))


FAULTS = {
    "flipped ciphertext byte": lambda keys, env, data: _flip(data, len(data) - 100),
    "flipped last ciphertext byte": lambda keys, env, data: _flip(data, len(data) - 1),
    "wrong seed": lambda keys, env, data: envelope.serialize(_other_seed(keys, env)),
    "wrong dim_log2 in header": lambda keys, env, data: data[:5] + bytes([3]) + data[6:],
    "nonzero reserved field": lambda keys, env, data: data[:7] + b"\x01" + data[8:],
    "bad signature": lambda keys, env, data: envelope.serialize(
        dataclasses.replace(env, signature=_flip(env.signature, 10))),
    "truncated envelope": lambda keys, env, data: data[:-1],
    "truncated header": lambda keys, env, data: data[:20],
    "trailing byte": lambda keys, env, data: data + b"\x00",
    "wrong sender fingerprint": lambda keys, env, data: envelope.serialize(
        dataclasses.replace(env, sender_fingerprint=hashlib.sha256(b"other").digest())),
    "bad magic": lambda keys, env, data: b"HCIF" + data[4:],
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_rejects_planted_fault(keys, fault):
    env = _seal(keys, PAYLOAD)
    data = envelope.serialize(env)
    _check(keys, data, PAYLOAD)
    with pytest.raises(check.CheckError):
        _check(keys, FAULTS[fault](keys, env, data), PAYLOAD)


def test_rejects_flipped_last_block_of_large_payload(keys):
    data = envelope.serialize(_seal(keys, LARGE))
    _check(keys, data, LARGE)
    with pytest.raises(check.CheckError):
        _check(keys, _flip(data, len(data) - 1), LARGE)


def test_rejects_envelope_of_another_dim(keys):
    data = envelope.serialize(_seal(keys, PAYLOAD, dim_log2=3))
    _check(keys, data, PAYLOAD, dim_log2=3)
    with pytest.raises(check.CheckError):
        _check(keys, data, PAYLOAD, dim_log2=4)


def test_rejects_envelope_of_another_payload(keys):
    data = envelope.serialize(_seal(keys, PAYLOAD))
    with pytest.raises(check.CheckError):
        _check(keys, data, _flip(PAYLOAD, 0))


def test_ack_digest():
    check.check_ack(hashlib.sha256(PAYLOAD).digest(), PAYLOAD)
    with pytest.raises(check.CheckError):
        check.check_ack(_flip(hashlib.sha256(PAYLOAD).digest(), 0), PAYLOAD)
    with pytest.raises(check.CheckError):
        check.check_ack(b"\x00" * 32, PAYLOAD)


def test_round_trip_comparison():
    check.check_same("opened plaintext", PAYLOAD, PAYLOAD)
    with pytest.raises(check.CheckError):
        check.check_same("opened plaintext", PAYLOAD[:-1], PAYLOAD)
    with pytest.raises(check.CheckError):
        check.check_same("received file", _flip(PAYLOAD, 5), PAYLOAD)


def test_seed_block_must_be_well_formed(keys):
    recipient = keys["recipient"]
    k = recipient.width
    good = b"\x00\x02" + b"\x07" * (k - 35) + b"\x00" + bytes(range(32))

    def encrypt(block: bytes) -> bytes:
        return pow(int.from_bytes(block, "big"), keys["recipient_pub"].e,
                   recipient.n).to_bytes(k, "big")

    assert check.recover_seed(encrypt(good), recipient) == bytes(range(32))
    zero_in_fill = good[:5] + b"\x00" + good[6:]
    wrong_type = b"\x00\x01" + good[2:]
    for bad in (zero_in_fill, wrong_type):
        with pytest.raises(check.CheckError):
            check.recover_seed(encrypt(bad), recipient)

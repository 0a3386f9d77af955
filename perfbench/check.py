"""Independent checker for hcie outputs, written from the documented formats.

Nothing here imports hcie: every check rebuilds the expected bytes from the
published layouts, so a fault in the package cannot hide behind the same
fault in the checker.

- ``HCIE`` v1 envelope: ``magic "HCIE" | version u8 | dim_log2 u8 |
  reserved u16 = 0 | sender_fingerprint (32) | seed_ct_len u32 | seed_ct |
  sig_len u32 | sig | plaintext_len u64 | ct_len u64 | ciphertext``,
  big-endian throughout.
- ``hcirsa-v1`` key file: magic line, role line, then hex fields
  (public: n, e; private: n, e, d, p, q), one per line, newline-terminated.
- Encapsulated seed: ``c^d mod n`` is the block
  ``00 02 | >= 8 nonzero bytes | 00 | 32-byte seed``.
- Hill key: SHA-256(seed || u32 counter) keystream read four bytes at a
  time as [[a, b], [c, d]]; factors with an even determinant are skipped;
  K is the Kronecker product of the first ``dim_log2`` factors.  The
  ciphertext is the PKCS#7-padded plaintext, cut into rows of n bytes,
  times K^T mod 256.
- Signature: ``sig^e mod n`` equals SHA-256(plaintext) as an integer.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

MAGIC = b"HCIE"
VERSION = 1
KEYFILE_MAGIC = "hcirsa-v1"
SEED_LEN = 32
MIN_FILL = 8

_HEADER = struct.Struct(">4sBBH32s")

#: Payloads up to this size get their whole ciphertext recomputed; larger
#: ones get a sample of blocks (and always the last, padded one).
FULL_CHECK_BYTES = 64 * 1024
SAMPLE_BLOCKS = 256


class CheckError(Exception):
    """An output does not match what the documented format requires."""


@dataclass(frozen=True)
class KeyFile:
    n: int
    e: int
    d: Optional[int] = None

    @property
    def width(self) -> int:
        return (self.n.bit_length() + 7) // 8


def read_key_file(data: bytes) -> KeyFile:
    lines = data.decode("ascii").split("\n")
    if lines[0] != KEYFILE_MAGIC or lines[-1] != "":
        raise CheckError("not an hcirsa-v1 key file")
    role, fields = lines[1], [int(v, 16) for v in lines[2:-1]]
    if role == "public" and len(fields) == 2:
        return KeyFile(n=fields[0], e=fields[1])
    if role == "private" and len(fields) == 5:
        return KeyFile(n=fields[0], e=fields[1], d=fields[2])
    raise CheckError(f"bad key file role or field count: {role!r}")


def public_key_text(key: KeyFile) -> bytes:
    return f"{KEYFILE_MAGIC}\npublic\n{key.n:x}\n{key.e:x}\n".encode("ascii")


@dataclass(frozen=True)
class EnvelopeFields:
    version: int
    dim_log2: int
    reserved: int
    fingerprint: bytes
    seed_ct: bytes
    signature: bytes
    plaintext_len: int
    ciphertext: bytes


def split_envelope(data: bytes) -> EnvelopeFields:
    """Cut an envelope into its fields; any truncation or trailing byte fails."""
    pos = 0

    def take(count: int) -> bytes:
        nonlocal pos
        if pos + count > len(data):
            raise CheckError(f"envelope truncated at byte {len(data)}, need {pos + count}")
        pos += count
        return data[pos - count : pos]

    magic, version, dim_log2, reserved, fingerprint = _HEADER.unpack(take(_HEADER.size))
    if magic != MAGIC:
        raise CheckError(f"bad magic {magic!r}")
    seed_ct = take(struct.unpack(">I", take(4))[0])
    signature = take(struct.unpack(">I", take(4))[0])
    plaintext_len, ct_len = struct.unpack(">QQ", take(16))
    ciphertext = take(ct_len)
    if pos != len(data):
        raise CheckError(f"{len(data) - pos} trailing bytes after the ciphertext")
    return EnvelopeFields(version, dim_log2, reserved, fingerprint, seed_ct,
                          signature, plaintext_len, ciphertext)


def recover_seed(seed_ct: bytes, recipient: KeyFile) -> bytes:
    """Decrypt the encapsulated seed with plain ``pow`` and check its block."""
    k = recipient.width
    if len(seed_ct) != k:
        raise CheckError(f"encapsulated seed is {len(seed_ct)} bytes, modulus is {k}")
    block = pow(int.from_bytes(seed_ct, "big"), recipient.d, recipient.n).to_bytes(k, "big")
    fill = block[2 : k - SEED_LEN - 1]
    if block[:2] != b"\x00\x02" or block[k - SEED_LEN - 1] != 0:
        raise CheckError("seed block is not 00 02 | fill | 00 | seed")
    if len(fill) < MIN_FILL or 0 in fill:
        raise CheckError("seed block fill is short or has a zero byte")
    return block[k - SEED_LEN :]


def key_matrix(seed: bytes, dim_log2: int) -> np.ndarray:
    """Rebuild the Hill key K (n x n, int64 entries in [0, 256)) from a seed."""
    factors = []
    counter = 0
    stream = b""
    while len(factors) < dim_log2:
        while len(stream) < 4:
            stream += hashlib.sha256(seed + struct.pack(">I", counter)).digest()
            counter += 1
        a, b, c, d = stream[:4]
        stream = stream[4:]
        if (a * d - b * c) % 2 == 1:
            factors.append(np.array([[a, b], [c, d]], dtype=np.int64))
    key = factors[0]
    for factor in factors[1:]:
        key = np.kron(key, factor) % 256
    return key


def _check_ciphertext(ciphertext: bytes, payload: bytes, key: np.ndarray,
                      rng: random.Random) -> None:
    n = key.shape[0]
    pad = n - len(payload) % n
    expected_len = len(payload) + pad
    if len(ciphertext) != expected_len:
        raise CheckError(f"ciphertext is {len(ciphertext)} bytes, padding gives {expected_len}")
    blocks = expected_len // n
    if len(payload) <= FULL_CHECK_BYTES:
        rows = np.arange(blocks)
    else:
        rows = np.array(sorted({blocks - 1, *rng.sample(range(blocks), SAMPLE_BLOCKS)}))
    # The last row carries the padding bytes; every other row is plaintext.
    last = payload[(blocks - 1) * n :] + bytes([pad]) * pad
    body = np.frombuffer(payload, dtype=np.uint8, count=(blocks - 1) * n)
    plain = np.concatenate([body, np.frombuffer(last, dtype=np.uint8)]).reshape(blocks, n)
    got = np.frombuffer(ciphertext, dtype=np.uint8).reshape(blocks, n)
    want = (plain[rows].astype(np.int64) @ key.T) % 256
    if not np.array_equal(got[rows], want):
        bad = int(rows[np.nonzero((got[rows] != want).any(axis=1))[0][0]])
        raise CheckError(f"ciphertext block {bad} is not plaintext x K^T mod 256")


def check_envelope(data: bytes, payload: bytes, *, dim_log2: int, recipient: KeyFile,
                   sender: KeyFile, rng: random.Random) -> None:
    """Check one sealed envelope of ``payload`` end to end; raise CheckError."""
    env = split_envelope(data)
    if env.version != VERSION:
        raise CheckError(f"version {env.version}, expected {VERSION}")
    if env.dim_log2 != dim_log2:
        raise CheckError(f"dim_log2 {env.dim_log2}, expected {dim_log2}")
    if env.reserved != 0:
        raise CheckError(f"reserved field is {env.reserved}, expected 0")
    if env.fingerprint != hashlib.sha256(public_key_text(sender)).digest():
        raise CheckError("sender fingerprint is not SHA-256 of the sender's key file")
    if env.plaintext_len != len(payload):
        raise CheckError(f"plaintext_len {env.plaintext_len}, payload is {len(payload)}")
    seed = recover_seed(env.seed_ct, recipient)
    _check_ciphertext(env.ciphertext, payload, key_matrix(seed, dim_log2), rng)
    if len(env.signature) != sender.width:
        raise CheckError(f"signature is {len(env.signature)} bytes, modulus is {sender.width}")
    digest = int.from_bytes(hashlib.sha256(payload).digest(), "big")
    if pow(int.from_bytes(env.signature, "big"), sender.e, sender.n) != digest:
        raise CheckError("signature^e mod n is not SHA-256(plaintext)")


def check_same(what: str, got: bytes, payload: bytes) -> None:
    if got != payload:
        raise CheckError(f"{what} ({len(got)} bytes) differs from the payload ({len(payload)} bytes)")


def check_ack(digest: bytes, payload: bytes) -> None:
    if digest != hashlib.sha256(payload).digest():
        raise CheckError("ACK digest is not SHA-256 of the payload")

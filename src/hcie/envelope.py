"""The mixed-encryption container shared by disk (.hcie files) and wire.

A sealed envelope carries everything the recipient needs: the session seed
encapsulated under their public key, the Hill ciphertext, the sender's
signature over the plaintext, and a fingerprint naming which sender key to
verify against.  The binary layout is fixed and big-endian throughout so any
implementation produces identical bytes:

    magic "HCIE" (4) | version u8 | dim_log2 u8 | reserved u16 = 0
    | sender_fingerprint (32)
    | seed_ct_len u32 | encapsulated_seed
    | sig_len u32 | signature
    | plaintext_len u64 | ct_len u64 | ciphertext

The seed and signature fields hold the bytes :mod:`rsa` returns, unchanged.
Opening never returns partial plaintext: every check (decapsulation,
padding, recorded length, signature, sender fingerprint) must pass first.

:func:`seal` builds the serialized envelope in one ``bytearray``: the Hill
kernel writes the ciphertext behind room for the header, which is packed
once the seed is encapsulated and the plaintext signed.  For a payload over
three kernel chunks, on a process that may run on two CPUs
(:func:`_worth_a_thread`), the plaintext is hashed on a worker thread while
the kernel runs: the signature in :func:`seal`, and in
:func:`open_envelope` the digest the signature is checked against, fed the
plaintext chunk by chunk as the kernel decrypts it.  SHA-256 and numpy's
ufuncs both release the GIL, so the kernel and the hash overlap instead of
adding up.  The ciphertext of
a sealed :class:`Envelope` is a read-only ``memoryview`` into that buffer,
and :func:`serialize` returns the buffer itself, so changing the returned
bytes changes the envelope.  The ciphertext of a parsed envelope is a
read-only ``memoryview`` into the bytes given to :func:`parse`, so the
envelope keeps those bytes alive.  :func:`open_envelope` returns the
plaintext as the ``bytearray`` it was decrypted into.
"""

from __future__ import annotations

import hashlib
import os
import random
import struct
import threading
from dataclasses import dataclass, field
from typing import Optional, Union

from . import hill, rsa
from .errors import (
    EnvelopeFormatError,
    FingerprintMismatchError,
    PlaintextLengthError,
    SignatureError,
)

MAGIC = b"HCIE"
VERSION = 1

_HEADER = struct.Struct(">4sBBH32s")

#: A seal or open hashes on a worker thread only for a payload over this
#: many kernel chunks (768 KiB): below it the thread's start, join and GIL
#: handoffs cost more than the overlap saves.
_THREAD_CHUNKS = 3


@dataclass(frozen=True)
class Envelope:
    dim_log2: int
    sender_fingerprint: bytes
    encapsulated_seed: bytes
    signature: bytes
    plaintext_len: int
    ciphertext: bytes
    #: The v1 bytes that :func:`seal` wrote; ``dataclasses.replace`` leaves
    #: it unset, so a changed copy is encoded from its fields.
    _serialized: Optional[bytearray] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not hill.MIN_DIM_LOG2 <= self.dim_log2 <= hill.MAX_DIM_LOG2:
            raise EnvelopeFormatError(f"dim_log2 {self.dim_log2} out of range")
        if len(self.sender_fingerprint) != 32:
            raise EnvelopeFormatError("sender fingerprint must be 32 bytes")
        # padding always adds 1 .. block bytes
        block = 1 << self.dim_log2
        padded = (self.plaintext_len // block + 1) * block
        if self.plaintext_len < 0 or len(self.ciphertext) != padded:
            raise EnvelopeFormatError("ciphertext length is not the padded plaintext length")


def seal(
    plaintext: bytes,
    recipient: rsa.RsaPublicKey,
    sender: rsa.RsaPrivateKey,
    sender_pub: rsa.RsaPublicKey,
    rng: Optional[random.Random] = None,
    dim_log2: int = hill.DEFAULT_DIM_LOG2,
) -> Envelope:
    """Seal a payload: fresh seed, Hill-encrypt, encapsulate, sign.

    The signature covers the plaintext, not the ciphertext, so it is checked
    after decryption on the receiving side.  The kernel runs first, writing
    behind room for the header: the seed and signature are k bytes each,
    so the header's length is known before either exists.

    A payload that :func:`_worth_a_thread` passes is signed on a worker
    thread while this thread runs the kernel and encapsulates the seed; the
    worker is joined before ``seal`` returns or raises, and its exception
    is raised here.  The envelope's bytes and the draws from ``rng`` are
    the same either way.
    """
    if sender_pub.n != sender.n or sender_pub.e != sender.e:
        raise ValueError("sender_pub does not match the sender private key")
    seed = hill.random_seed(rng)
    key = hill.derive_key(seed, dim_log2)
    header_len = _HEADER.size + 4 + recipient.byte_length() + 4 + sender.byte_length() + 16
    if _worth_a_thread(len(plaintext)):
        signed: list = []
        worker = threading.Thread(
            target=_sign_into, args=(signed, sender, plaintext), name="hcie-seal-sign"
        )
        worker.start()
        try:
            buf = hill.encrypt_stream(key, plaintext, header_len)
            encapsulated = rsa.encrypt_seed(recipient, seed, rng)
        finally:
            worker.join()
        if isinstance(signed[0], BaseException):
            raise signed[0]
        signature = signed[0]
    else:
        # a thread costs more than it saves on a small payload or one CPU
        buf = hill.encrypt_stream(key, plaintext, header_len)
        encapsulated = rsa.encrypt_seed(recipient, seed, rng)
        signature = rsa.sign(sender, plaintext)
    env = Envelope(
        dim_log2=dim_log2,
        sender_fingerprint=rsa.fingerprint(sender_pub),
        encapsulated_seed=encapsulated,
        signature=signature,
        plaintext_len=len(plaintext),
        ciphertext=memoryview(buf).toreadonly()[header_len:],
    )
    memoryview(buf)[:header_len] = _header(env)  # raises if the lengths disagree
    object.__setattr__(env, "_serialized", buf)
    return env


def _sign_into(signed: list, sender: rsa.RsaPrivateKey, plaintext: bytes) -> None:
    """Append ``rsa.sign(sender, plaintext)``, or the exception it raised, to
    ``signed``.  A module function rather than a closure in :func:`seal`,
    so that a seal on the serial path allocates no closure cells."""
    try:
        signed.append(rsa.sign(sender, plaintext))
    except BaseException as exc:
        signed.append(exc)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _worth_a_thread(size: int) -> bool:
    """Whether a seal or open of a ``size``-byte payload gains from hashing
    on a worker thread beside the kernel: the payload spans more than
    ``_THREAD_CHUNKS`` kernel chunks and the process may run on two CPUs."""
    return size > _THREAD_CHUNKS * hill.CHUNK_BYTES and _cpus() > 1


def open_envelope(
    env: Envelope, recipient: rsa.RsaPrivateKey, sender_pub: rsa.RsaPublicKey
) -> bytearray:
    """Open a sealed envelope, or raise; never returns partial plaintext.

    Failure causes stay distinguishable by exception type: decapsulation,
    stream padding, recorded-length mismatch, signature, fingerprint.

    For a payload that :func:`_worth_a_thread` passes, a worker thread
    hashes the plaintext while the kernel decrypts it, and ``rsa.verify``
    is given the digest; the worker is joined inside ``hill.decrypt_stream``.
    The checks, their order and their errors are the same either way.
    """
    seed = rsa.decrypt_seed(recipient, env.encapsulated_seed)
    key = hill.derive_key(seed, env.dim_log2)
    if _worth_a_thread(env.plaintext_len):
        hashed = hashlib.sha256()
        plaintext = hill.decrypt_stream(key, env.ciphertext, hashed.update)
        digest = hashed.digest()
    else:
        plaintext = hill.decrypt_stream(key, env.ciphertext)
        digest = None
    if len(plaintext) != env.plaintext_len:
        raise PlaintextLengthError(
            f"recovered {len(plaintext)} bytes, envelope records {env.plaintext_len}"
        )
    if not rsa.verify(sender_pub, plaintext, env.signature, digest=digest):
        raise SignatureError("signature verification failed")
    if env.sender_fingerprint != rsa.fingerprint(sender_pub):
        raise FingerprintMismatchError("sender fingerprint mismatch")
    return plaintext


def _header(env: Envelope) -> bytes:
    """Every v1 byte in front of the ciphertext."""
    parts = [
        _HEADER.pack(MAGIC, VERSION, env.dim_log2, 0, env.sender_fingerprint),
        struct.pack(">I", len(env.encapsulated_seed)),
        env.encapsulated_seed,
        struct.pack(">I", len(env.signature)),
        env.signature,
        struct.pack(">QQ", env.plaintext_len, len(env.ciphertext)),
    ]
    return b"".join(parts)


def serialize(env: Envelope) -> Union[bytes, bytearray]:
    """The v1 bytes of ``env``.  For an envelope from :func:`seal` that is
    the buffer its ciphertext views, not a copy; any other is encoded from
    its fields."""
    if env._serialized is not None:
        return env._serialized
    return b"".join([_header(env), env.ciphertext])


def parse(data: bytes) -> Envelope:
    """Parse any bytes-like serialized envelope, with a distinct error per
    defect.  The ciphertext is a read-only view into ``data``, not a copy."""
    data = memoryview(data).toreadonly().cast("B")
    offset = 0

    def take(count: int, what: str) -> memoryview:
        # every field is read in order through this one bounds check
        nonlocal offset
        if offset + count > len(data):
            raise EnvelopeFormatError(f"truncated {what}")
        offset += count
        return data[offset - count : offset]

    magic, version, dim_log2, reserved, fingerprint = _HEADER.unpack(take(_HEADER.size, "header"))
    if magic != MAGIC:
        raise EnvelopeFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise EnvelopeFormatError(f"unsupported version {version}")
    if reserved != 0:
        raise EnvelopeFormatError("reserved field must be zero")
    (seed_ct_len,) = struct.unpack(">I", take(4, "seed length field"))
    encapsulated = bytes(take(seed_ct_len, "encapsulated seed"))
    (sig_len,) = struct.unpack(">I", take(4, "signature length field"))
    signature = bytes(take(sig_len, "signature"))
    plaintext_len, ct_len = struct.unpack(">QQ", take(16, "length fields"))
    ciphertext = take(ct_len, "ciphertext")
    if offset < len(data):
        raise EnvelopeFormatError("trailing data after ciphertext")

    return Envelope(
        dim_log2=dim_log2,
        sender_fingerprint=fingerprint,
        encapsulated_seed=encapsulated,
        signature=signature,
        plaintext_len=plaintext_len,
        ciphertext=ciphertext,
    )

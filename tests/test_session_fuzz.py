"""Differential fuzzing of the receiver session.

Envelopes are sealed from a seeded generator, and each case changes one
field of one of them: ``dim_log2``, the reserved field, a length field or
the bytes of the seed or signature, ``plaintext_len``, ``ct_len``, the
fingerprint, a ciphertext bit, or the file name in front of it.  Every case
goes to a :class:`~hcie.transfer.TransferServer` that trusts two senders,
one connection at a time, and the same FILE payload goes through the steps
the session runs, in process: ``decode_file_payload``, ``parse``, the trust
lookup and ``open_envelope``.  The two must agree: ERR with the exception's
reason, or ACK with the SHA-256 of the plaintext.  An ERR leaves the inbox
as it was, and an ACK adds exactly the one file it names.
"""

import os
import random
import struct
import threading
import time
from collections import Counter

from hcie import envelope, rsa, transfer
from hcie.errors import HcieError, ProtocolError
from hcie.transfer import AckPayload, Frame, FrameKind
from test_transfer import frame_bytes, raw_session

CASES = 2000
HELLO = frame_bytes(FrameKind.HELLO, transfer.HELLO_PAYLOAD)
_HEADER = struct.Struct(">4sBBH32s")


def fields(env):
    """The v1 fields of an envelope, its two RSA length fields apart from
    the bytes they count."""
    return dict(
        dim_log2=env.dim_log2, reserved=0, fingerprint=env.sender_fingerprint,
        seed_len=len(env.encapsulated_seed), seed=env.encapsulated_seed,
        sig_len=len(env.signature), sig=env.signature,
        plaintext_len=env.plaintext_len, ct_len=len(env.ciphertext), ct=bytes(env.ciphertext),
    )


def encode(f):
    """The v1 bytes of ``fields``, written independently of ``serialize``."""
    return b"".join([
        _HEADER.pack(envelope.MAGIC, envelope.VERSION, f["dim_log2"], f["reserved"],
                     f["fingerprint"]),
        struct.pack(">I", f["seed_len"]), f["seed"],
        struct.pack(">I", f["sig_len"]), f["sig"],
        struct.pack(">QQ", f["plaintext_len"], f["ct_len"]), f["ct"],
    ])


def flip(rng, data, lo, hi):
    """``data`` with one random bit flipped in bytes lo..hi-1."""
    out = bytearray(data)
    out[rng.randrange(lo, hi)] ^= 1 << rng.randrange(8)
    return bytes(out)


def mutate(rng, f, other_fingerprint):
    """(the field changed, the new fields) for one random change; a change
    of the name leaves the envelope as it is."""
    n = 1 << f["dim_log2"]
    k = len(f["seed"])
    ct = f["ct"]
    field = rng.choice([
        "dim_log2", "reserved", "seed_len", "seed", "sig_len", "sig", "plaintext_len",
        "ct_len", "fingerprint", "ct_last_block", "ct_other_block", "name",
    ])

    def length():
        return rng.choice([0, k - 1, k + 1, rng.randrange(1 << 32)])

    change = {
        "dim_log2": lambda: rng.choice([0, 7, rng.randrange(1, 7), rng.randrange(8, 256)]),
        "reserved": lambda: rng.randrange(1, 1 << 16),
        "seed_len": length,
        "seed": lambda: flip(rng, f["seed"], 0, k),
        "sig_len": length,
        "sig": lambda: flip(rng, f["sig"], 0, len(f["sig"])),
        "plaintext_len": lambda: rng.choice([
            f["plaintext_len"] + 1, abs(f["plaintext_len"] - 1),
            len(ct) - rng.randrange(1, n + 1), rng.randrange(1 << 64),
        ]),
        "ct_len": lambda: rng.choice([len(ct) + n, len(ct) - n, len(ct) + 1, len(ct) - 1, 0,
                                      rng.randrange(1 << 64)]),
        "fingerprint": lambda: rng.choice([rng.randbytes(32), other_fingerprint]),
        "ct_last_block": lambda: flip(rng, ct, len(ct) - n, len(ct)),
        "ct_other_block": lambda: flip(rng, ct, 0, max(len(ct) - n, 1)),
        "name": lambda: None,
    }[field]()
    key = {"ct_last_block": "ct", "ct_other_block": "ct", "name": None}.get(field, field)
    return field, {**f, key: change} if key else f


def file_payload(rng, index, env_bytes):
    """(the name change, a FILE payload) with a fresh valid name, or with
    one from a hostile peer."""
    raw = f"case-{index}.bin".encode()
    change = rng.choice(["valid"] * 8 + [
        "empty", "separator", "dot", "dotdot", "nul", "not utf-8", "256 bytes", "unicode",
        "250 bytes", "name_len too long", "name_len too short",
    ])
    raw = {
        "empty": b"", "separator": b"a/b", "dot": b".", "dotdot": b"..", "nul": b"a\x00b",
        "not utf-8": b"\xff" + raw, "256 bytes": b"n" * 256, "unicode": "é".encode() + raw,
        "250 bytes": raw.ljust(250, b"n"),
    }.get(change, raw)
    declared = {"name_len too long": len(raw) + len(env_bytes) + 1,
                "name_len too short": len(raw) - 1}.get(change, len(raw))
    return f"name {change}", struct.pack(">H", declared) + raw + env_bytes


def boundary_frames(base):
    """FILE payloads at the decoders' edges: 0, 1 and 2 bytes, a name with
    no envelope, and envelopes whose ``dim_log2`` of 0 or 7 agrees with
    their lengths."""
    yield "payload of 0 bytes", b""
    yield "payload of 1 byte", b"\x00"
    yield "payload of 2 bytes", b"\x00\x00"
    yield "payload of 2 + name_len bytes", b"\x00\x01x"
    for dim_log2 in (0, 7):
        f = {**base, "dim_log2": dim_log2, "plaintext_len": 0, "ct_len": 1 << dim_log2,
             "ct": bytes(1 << dim_log2)}
        yield f"dim_log2 {dim_log2}, consistent lengths", b"\x00\x01y" + encode(f)


def expected_reply(payload, priv, table):
    """The reply the session owes a FILE payload, from the same steps in process."""
    try:
        _, env_bytes = transfer.decode_file_payload(payload)
        env = envelope.parse(env_bytes)
        sender = table.get(env.sender_fingerprint)
        if sender is None:
            raise ProtocolError("unknown sender")
        plaintext = envelope.open_envelope(env, priv, sender)
    except HcieError as exc:
        return Frame(FrameKind.ERR, exc.reason.encode())
    return Frame(FrameKind.ACK, AckPayload(0, rsa.sha256(plaintext)).encode())


def test_server_and_in_process_steps_agree_on_every_case(
    recipient_pair, sender_pair, other_pair, tmp_path
):
    pub, priv = recipient_pair
    senders = [sender_pair, other_pair]
    table = {rsa.fingerprint(spub): spub for spub, _ in senders}
    rng = random.Random("session-fuzz")
    bases = []
    for dim_log2 in (1, 2, 4):
        n = 1 << dim_log2
        for size in sorted({0, 1, n - 1, n, 300}):
            spub, spriv = senders[len(bases) % 2]
            env = envelope.seal(rng.randbytes(size), pub, spriv, spub, rng, dim_log2)
            other = next(fp for fp in table if fp != env.sender_fingerprint)
            bases.append((fields(env), other))

    cases = list(boundary_frames(bases[0][0]))
    while len(cases) < CASES:
        base, other = rng.choice(bases)
        field, f = mutate(rng, base, other)
        if field == "name":
            field, payload = file_payload(rng, len(cases), encode(f))
        else:
            payload = struct.pack(">H", 8) + f"c{len(cases):07d}".encode() + encode(f)
        cases.append((field, payload))

    inbox = tmp_path / "inbox"
    inbox.mkdir()
    threads = set(threading.enumerate())
    srv = transfer.TransferServer(0, priv, table.get, inbox, host="127.0.0.1")
    loop = threading.Thread(target=srv.serve_forever, daemon=True)
    loop.start()
    try:
        # a FILE frame first, even one carrying the HELLO payload, is refused
        first = frame_bytes(FrameKind.FILE, transfer.HELLO_PAYLOAD)
        (refused,) = raw_session(srv.port, [first])
        assert refused == Frame(FrameKind.ERR, b"expected HELLO, got kind 3")
        replies = Counter()
        files = set()
        for field, payload in cases:
            expected = expected_reply(payload, priv, table)
            ok, reply = raw_session(srv.port, [HELLO, frame_bytes(FrameKind.FILE, payload)])
            assert (ok, reply) == (Frame(FrameKind.OK, b""), expected), field
            now = set(os.listdir(inbox))
            if reply.kind == FrameKind.ERR:
                assert now == files, field
            else:
                (new,) = now - files
                assert files < now and rsa.sha256((inbox / new).read_bytes()) == reply.payload[1:]
            files = now
            replies["ACK" if reply.kind == FrameKind.ACK else reply.payload.decode()] += 1
    finally:
        srv.shutdown()
        loop.join(timeout=5)
    assert not loop.is_alive()
    # session threads outlive their sessions, but not the server
    deadline = time.monotonic() + 5.0
    while not set(threading.enumerate()) <= threads and time.monotonic() < deadline:
        time.sleep(0.01)
    assert set(threading.enumerate()) <= threads
    print(f"{len(cases)} cases:", dict(replies.most_common()))
    assert replies["ACK"] and replies["decapsulation failed"] and replies["invalid padding"]

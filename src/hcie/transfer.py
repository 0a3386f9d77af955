"""TCP transfer of sealed envelopes: length-prefixed frames, one file per
connection.

Wire format per frame: kind u8, length u32 big-endian, payload.  A session
is HELLO -> OK -> FILE -> ACK, with ERR(reason) replacing any reply on
failure.  The server never writes unverified bytes: the envelope is fully
opened first, then the plaintext is written to a temp file and hard-linked
to its name, with numeric suffixes instead of overwrites on name collisions.
"""

from __future__ import annotations

import errno
import itertools
import logging
import os
import queue
import random
import socket
import socketserver
import struct
import tempfile
import threading
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import BinaryIO, Callable, Dict, List, Optional

from . import envelope as envelope_mod
from . import hill, rsa
from .errors import (
    ConnectionClosedError,
    FrameTooLargeError,
    HcieError,
    ProtocolError,
    ServerBusyError,
    TransferError,
)

logger = logging.getLogger(__name__)

MAX_FRAME = 256 * 1024 * 1024
HELLO_PAYLOAD = b"hciv1"
CONNECTION_TIMEOUT = 30.0
#: Connections a server holds at once, as many as its listen backlog.
MAX_CONNECTIONS = 64


class FrameKind(IntEnum):
    HELLO = 1
    OK = 2
    FILE = 3
    ACK = 4
    ERR = 5


@dataclass(frozen=True)
class Frame:
    kind: FrameKind
    payload: bytes


@dataclass(frozen=True)
class AckPayload:
    status: int
    digest: bytes  # sha256 of the recovered plaintext; all-zero when status != 0

    def encode(self) -> bytes:
        return bytes([self.status]) + self.digest

    @classmethod
    def decode(cls, data: bytes) -> "AckPayload":
        if len(data) != 33:
            raise ProtocolError(f"ACK payload must be 33 bytes, got {len(data)}")
        ack = cls(status=data[0], digest=data[1:])
        if ack.status != 0 and ack.digest != b"\x00" * 32:
            raise ProtocolError("non-ok ACK must carry an all-zero digest")
        return ack


def _read_exact(stream: BinaryIO, count: int) -> bytes:
    # a buffered stream's read(n) returns short only at EOF
    buf = stream.read(count)
    if len(buf) < count:
        raise ConnectionClosedError("connection closed")
    return buf


def write_frame(stream: BinaryIO, kind: FrameKind, *parts: bytes) -> None:
    """Write one frame whose payload is ``parts`` in order, without joining them."""
    length = sum(len(part) for part in parts)
    if length > MAX_FRAME:  # the peer's read_frame would refuse it anyway
        raise FrameTooLargeError(f"frame of {length} bytes exceeds maximum {MAX_FRAME}")
    stream.write(struct.pack(">BI", int(kind), length))
    for part in parts:
        stream.write(part)
    stream.flush()


def read_frame(stream: BinaryIO) -> Frame:
    header = _read_exact(stream, 5)
    kind_byte, length = struct.unpack(">BI", header)
    if length > MAX_FRAME:
        # reject before touching the payload, let alone allocating it
        raise FrameTooLargeError(f"frame of {length} bytes exceeds maximum {MAX_FRAME}")
    try:
        kind = FrameKind(kind_byte)
    except ValueError:
        raise ProtocolError(f"unknown frame kind {kind_byte}") from None
    return Frame(kind, _read_exact(stream, length))


_NAME_BAD_CHARS = ("/", "\\", "\x00")


def validate_filename(name: str) -> bytes:
    """The UTF-8 bytes of ``name``, or :class:`ProtocolError` if the wire refuses it."""
    try:
        raw = name.encode("utf-8")
    except UnicodeEncodeError:  # a surrogate-escaped byte of a non-UTF-8 path or FILE name
        raise ProtocolError("filename is not valid UTF-8") from None
    if not name or len(raw) > 255:
        raise ProtocolError("filename must be 1..255 UTF-8 bytes")
    if any(c in name for c in _NAME_BAD_CHARS) or name in (".", ".."):
        raise ProtocolError("filename must not contain path separators")
    return raw


def decode_file_payload(payload: bytes) -> tuple:
    """(name, envelope bytes); the envelope bytes are a view into ``payload``."""
    if len(payload) < 2:
        raise ProtocolError("FILE payload too short")
    (name_len,) = struct.unpack(">H", payload[:2])
    if len(payload) < 2 + name_len:
        raise ProtocolError("FILE payload shorter than its name field")
    name = payload[2 : 2 + name_len].decode("utf-8", "surrogateescape")
    validate_filename(name)
    return name, memoryview(payload)[2 + name_len :]


def send_file(
    host: str,
    port: int,
    path,
    recipient_pub: rsa.RsaPublicKey,
    sender_priv: rsa.RsaPrivateKey,
    sender_pub: rsa.RsaPublicKey,
    rng: Optional[random.Random] = None,
    dim_log2: int = hill.DEFAULT_DIM_LOG2,
) -> AckPayload:
    """Seal a file and push it to a listening server.

    Returns the server's ACK after checking its digest against the
    plaintext hash the local signature carries; any deviation raises
    :class:`TransferError` whose ``stage`` names the failing step.
    """
    path = Path(path)
    raw = validate_filename(path.name)
    # unnamed, so the plaintext is freed as soon as seal returns
    env = envelope_mod.seal(
        path.read_bytes(), recipient_pub, sender_priv, sender_pub, rng, dim_log2
    )

    with socket.create_connection((host, port), timeout=CONNECTION_TIMEOUT) as sock:
        with sock.makefile("rwb") as stream:
            _request(stream, FrameKind.OK, "hello", FrameKind.HELLO, HELLO_PAYLOAD)
            parts = (struct.pack(">H", len(raw)), raw, envelope_mod.serialize(env))
            reply = _request(stream, FrameKind.ACK, "transfer", FrameKind.FILE, *parts)
    ack = AckPayload.decode(reply.payload)
    if ack.status != 0:
        raise TransferError("ack", f"server reported status {ack.status}")
    if ack.digest != rsa.signed_digest(sender_pub, env.signature):
        raise TransferError("digest", "server digest does not match local plaintext")
    return ack


def _request(stream: BinaryIO, expected: FrameKind, stage: str, kind, *parts) -> Frame:
    """Write a ``kind`` frame of ``parts`` and read the reply, raising
    :class:`TransferError` at ``stage`` on an ERR or any reply other than
    ``expected``."""
    write_frame(stream, kind, *parts)
    reply = read_frame(stream)
    if reply.kind == FrameKind.ERR:
        raise TransferError(stage, reply.payload.decode("utf-8", "replace"))
    if reply.kind != expected:
        raise TransferError(stage, f"expected {expected.name}, got {reply.kind.name}")
    return reply


def load_trusted_keys(trust_dir) -> Dict[bytes, rsa.RsaPublicKey]:
    """Index every parseable public key file in a directory by fingerprint."""
    table: Dict[bytes, rsa.RsaPublicKey] = {}
    for entry in sorted(Path(trust_dir).iterdir()):
        if not entry.is_file():
            continue
        try:
            key = rsa.parse_key(entry.read_bytes())
        except HcieError:
            logger.warning("ignoring unparseable key file %s", entry)
            continue
        if isinstance(key, rsa.RsaPrivateKey):
            logger.warning("ignoring private key %s in trust directory", entry)
            continue
        table[rsa.fingerprint(key)] = key
    return table


def _claim_output_path(out_dir: Path, name: str, tmp: str) -> Path:
    """Hard-link ``tmp`` to a collision-free name in ``out_dir``: ``name``,
    else ``name.i`` for the smallest free i >= 1, so gaps are filled first.

    The directory is listed once, on the first collision; a suffix another
    writer links between that listing and our ``link`` is skipped.
    """
    prefix, taken = f"{name}.", set()
    for i in itertools.count():
        if str(i) in taken:
            continue
        path = out_dir / (f"{prefix}{i}" if i else name)
        try:
            os.link(tmp, path)
            return path
        except FileExistsError:
            if not i:
                with os.scandir(out_dir) as entries:
                    taken = {e.name[len(prefix) :] for e in entries if e.name.startswith(prefix)}
        except OSError as exc:
            # a valid name can outgrow the filesystem's limit once suffixed
            if exc.errno == errno.ENAMETOOLONG:
                raise ProtocolError("filename too long") from None
            raise


def _write_atomic(out_dir: Path, name: str, data: bytes) -> Path:
    # the final name appears only once the bytes are on disk; the temp name
    # is removed when the block exits, whether or not the link succeeded
    with tempfile.NamedTemporaryFile(dir=out_dir, prefix=".hcie-") as tmp:
        tmp.write(data)
        tmp.flush()
        os.fsync(tmp.fileno())
        return _claim_output_path(out_dir, name, tmp.name)


def _send_err(stream: BinaryIO, addr, exc: Exception) -> None:
    """Log why a connection failed and send the peer its ERR reason."""
    if isinstance(exc, HcieError):
        reason = exc.reason
    elif isinstance(exc, TimeoutError):  # the peer stalled
        reason = "timeout"
    else:
        reason = "internal error"
    logger.info("connection from %s failed: %s", addr, exc)
    try:
        write_frame(stream, FrameKind.ERR, reason.encode("utf-8"))
    except OSError:
        pass


def _close(stream: BinaryIO, conn: socket.socket) -> None:
    try:
        stream.close()
    except OSError:  # a failed ERR write leaves bytes to flush
        pass
    conn.close()


class TransferServer(socketserver.TCPServer):
    """Receive-only envelope server; one file per connection.

    Construct with ``port=0`` to bind an ephemeral port (see ``.port``),
    run :meth:`serve_forever` on a dedicated thread, and stop it with
    ``shutdown()`` while that loop runs; the port closes when it returns.
    Each connection goes to the session thread that went idle last; a new
    daemon thread starts only when none is idle and fewer than
    ``MAX_CONNECTIONS`` run, so the session threads are the cap: with all
    of them busy, one more connection is answered ERR ``server busy`` and
    closed on the accepting thread.  Closing the server stops the idle
    threads and each busy one once its session ends.  Sessions share only
    the output directory, where files appear whole and ``link`` never
    replaces a name, so they need no locking.
    """

    allow_reuse_address = True
    request_queue_size = MAX_CONNECTIONS

    def __init__(
        self,
        port: int,
        recipient_priv: rsa.RsaPrivateKey,
        sender_pub_lookup: Callable[[bytes], Optional[rsa.RsaPublicKey]],
        out_dir,
        host: str = "0.0.0.0",
    ):
        self._recipient_priv = recipient_priv
        self._lookup = sender_pub_lookup
        self._out_dir = Path(out_dir)
        self._handoffs: List[queue.SimpleQueue] = []  # one per session thread
        self._idle: List[queue.SimpleQueue] = []  # of idle threads, the newest last
        super().__init__((host, port), None)
        self.port = self.server_address[1]

    def serve_forever(self) -> None:
        try:
            super().serve_forever(poll_interval=0.2)
        finally:
            self.server_close()

    def server_close(self) -> None:
        super().server_close()
        for handoff in self._handoffs:
            handoff.put(None)

    def process_request(self, conn: socket.socket, addr) -> None:
        # only this thread pops _idle or grows _handoffs, and a session thread
        # only appends itself to _idle, so a test below that passes stays true
        if self._idle:
            self._idle.pop().put((conn, addr))
        elif len(self._handoffs) < MAX_CONNECTIONS:
            handoff = queue.SimpleQueue()
            handoff.put((conn, addr))
            self._handoffs.append(handoff)
            try:
                threading.Thread(target=self._serve, args=(handoff,), daemon=True).start()
            except RuntimeError:  # no thread started, so none will serve it
                self._handoffs.remove(handoff)
                raise
        else:
            # the accepting thread must not wait on this peer: a short ERR
            # fits an empty send buffer, or is dropped
            conn.setblocking(False)
            stream = conn.makefile("wb")
            _send_err(stream, addr, ServerBusyError("connection cap reached"))
            _close(stream, conn)

    def _serve(self, handoff: queue.SimpleQueue) -> None:
        for conn, addr in iter(handoff.get, None):
            try:
                self.finish_request(conn, addr)
            except Exception:
                self.handle_error(conn, addr)
            self._idle.append(handoff)

    def finish_request(self, conn: socket.socket, addr) -> None:
        conn.settimeout(CONNECTION_TIMEOUT)
        stream = conn.makefile("rwb")
        try:
            self._session(stream)
        except (HcieError, OSError, ValueError) as exc:
            _send_err(stream, addr, exc)
        finally:
            _close(stream, conn)

    def _session(self, stream: BinaryIO) -> None:
        hello = read_frame(stream)
        if hello.kind != FrameKind.HELLO:
            raise ProtocolError(f"expected HELLO, got kind {hello.kind}")
        if hello.payload != HELLO_PAYLOAD:
            raise ProtocolError("version")
        write_frame(stream, FrameKind.OK)

        file_frame = read_frame(stream)
        if file_frame.kind != FrameKind.FILE:
            raise ProtocolError(f"expected FILE, got kind {file_frame.kind}")
        name, env_bytes = decode_file_payload(file_frame.payload)
        env = envelope_mod.parse(env_bytes)
        sender_pub = self._lookup(env.sender_fingerprint)
        if sender_pub is None:
            raise ProtocolError("unknown sender")
        plaintext = envelope_mod.open_envelope(env, self._recipient_priv, sender_pub)
        target = _write_atomic(self._out_dir, name, plaintext)
        logger.info("received %d bytes into %s", len(plaintext), target)
        # the signature open_envelope accepted carries the plaintext's SHA-256
        ack = AckPayload(0, rsa.signed_digest(sender_pub, env.signature))
        write_frame(stream, FrameKind.ACK, ack.encode())


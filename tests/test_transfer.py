import contextlib
import errno
import io
import logging
import os
import random
import socket
import struct
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from hcie import envelope, errors, rsa, transfer
from hcie.errors import (
    ConnectionClosedError,
    FrameTooLargeError,
    ProtocolError,
    TransferError,
)
from hcie.transfer import AckPayload, Frame, FrameKind


def roundtrip(frame: Frame) -> Frame:
    buf = io.BytesIO()
    transfer.write_frame(buf, frame.kind, frame.payload)
    buf.seek(0)
    return transfer.read_frame(buf)


def file_payload(name: str, envelope_bytes: bytes) -> bytes:
    """A FILE frame's payload: u16 name length, UTF-8 name, envelope."""
    raw = name.encode("utf-8")
    return struct.pack(">H", len(raw)) + raw + envelope_bytes


class TestClaimOutputPath:
    @pytest.fixture
    def src(self, tmp_path):
        # stands in for the temp file that _write_atomic links from
        path = tmp_path / ".hcie-src"
        path.write_bytes(b"")
        return str(path)

    @staticmethod
    def _count(monkeypatch, listing_hook=None):
        links, scans = [], []
        real_link, real_scandir = os.link, os.scandir

        def counting_link(src, dst, *args, **kwargs):
            links.append(Path(dst).name)
            return real_link(src, dst, *args, **kwargs)

        def counting_scandir(path):
            scans.append(path)
            with real_scandir(path) as entries:
                listing = list(entries)
            if listing_hook:
                listing_hook()
            return contextlib.nullcontext(listing)

        monkeypatch.setattr(transfer.os, "link", counting_link)
        monkeypatch.setattr(transfer.os, "scandir", counting_scandir)
        return links, scans

    def test_free_name_needs_no_scan(self, tmp_path, monkeypatch, src):
        links, scans = self._count(monkeypatch)
        assert transfer._claim_output_path(tmp_path, "a.txt", src) == tmp_path / "a.txt"
        assert links == ["a.txt"] and scans == []
        assert (tmp_path / "a.txt").exists()

    def test_gap_among_1000_copies_found_with_one_scan(self, tmp_path, monkeypatch, src):
        for name in ["f.bin", "f.bin.x", "f.bin.1.1", "f.bin.0538", "g.bin.538"]:
            (tmp_path / name).write_bytes(b"")
        for i in range(1, 1001):
            if i != 538:
                (tmp_path / f"f.bin.{i}").write_bytes(b"")
        links, scans = self._count(monkeypatch)
        assert transfer._claim_output_path(tmp_path, "f.bin", src) == tmp_path / "f.bin.538"
        assert links == ["f.bin", "f.bin.538"] and len(scans) == 1
        links.clear(), scans.clear()
        assert transfer._claim_output_path(tmp_path, "f.bin", src) == tmp_path / "f.bin.1001"
        assert links == ["f.bin", "f.bin.1001"] and len(scans) == 1

    def test_suffix_taken_after_the_scan_is_skipped(self, tmp_path, monkeypatch, src):
        (tmp_path / "r").write_bytes(b"")
        # another writer links r.1 between the listing and our own link
        links, scans = self._count(monkeypatch, lambda: (tmp_path / "r.1").write_bytes(b"other"))
        assert transfer._claim_output_path(tmp_path, "r", src) == tmp_path / "r.2"
        assert links == ["r", "r.1", "r.2"] and len(scans) == 1
        assert (tmp_path / "r.1").read_bytes() == b"other"

    def test_concurrent_claims_of_one_name_are_distinct(self, tmp_path, src):
        claimed = []
        lock = threading.Lock()

        def worker():
            for _ in range(25):
                path = transfer._claim_output_path(tmp_path, "same", src)
                with lock:
                    claimed.append(path.name)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(claimed) == sorted(["same"] + [f"same.{i}" for i in range(1, 150)])


def test_failed_publish_leaves_nothing(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise OSError(errno.EIO, "injected")

    monkeypatch.setattr(transfer.os, "link", fail)
    monkeypatch.setattr(transfer.os, "replace", fail)
    with pytest.raises(OSError):
        transfer._write_atomic(tmp_path, "report.pdf", b"verified plaintext")
    assert list(tmp_path.iterdir()) == []  # neither the name nor a temp file


class TestConnectionTeardown:
    def test_err_to_a_gone_peer_is_dropped(self):
        class BrokenPipe(io.BytesIO):
            def write(self, data):
                raise BrokenPipeError(errno.EPIPE, "peer gone")

        transfer._send_err(BrokenPipe(), ("127.0.0.1", 1), ProtocolError("bad frame"))

    def test_socket_closed_when_the_stream_fails_to_close(self):
        class FailingClose(io.BytesIO):
            def close(self):
                super().close()
                raise OSError(errno.EPIPE, "unflushed bytes")

        conn, peer = socket.socketpair()
        with peer:
            transfer._close(FailingClose(), conn)
            assert conn.fileno() == -1


@contextlib.contextmanager
def running_server(recipient_pair, sender_pair, out_dir):
    """A TransferServer on an ephemeral port, serving on its own thread."""
    _, priv = recipient_pair
    spub, _ = sender_pair
    table = {rsa.fingerprint(spub): spub}
    srv = transfer.TransferServer(0, priv, table.get, out_dir)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        thread.join(timeout=5)


@pytest.fixture
def server(recipient_pair, sender_pair, tmp_path):
    """A running TransferServer on an ephemeral port, torn down after."""
    out_dir = tmp_path / "incoming"
    out_dir.mkdir()
    with running_server(recipient_pair, sender_pair, out_dir) as srv:
        yield srv, out_dir


def raw_session(port: int, payloads, timeout=5.0):
    """Push raw byte strings at the server, returning reply frames."""
    replies = []
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        stream = sock.makefile("rwb")
        for blob in payloads:
            stream.write(blob)
            stream.flush()
            replies.append(transfer.read_frame(stream))
        stream.close()
    return replies


def frame_bytes(kind: FrameKind, payload: bytes) -> bytes:
    return struct.pack(">BI", int(kind), len(payload)) + payload


def record_thread_starts(patch) -> list:
    """The threads started from now on, recorded through ``patch``, a
    monkeypatch or one of its contexts."""
    start, started = threading.Thread.start, []

    def counted_start(thread):
        started.append(thread)
        start(thread)

    patch.setattr(threading.Thread, "start", counted_start)
    return started


def record_server_errors(monkeypatch) -> list:
    """The exceptions TransferServer.handle_error is given from now on."""
    errors = []
    monkeypatch.setattr(
        transfer.TransferServer, "handle_error",
        lambda self, conn, addr: errors.append(sys.exc_info()[1]),
    )
    return errors


def wait_until_idle(srv) -> None:
    """Wait up to 5 s for a session thread of ``srv`` to go idle."""
    deadline = time.monotonic() + 5.0
    while not srv._idle and time.monotonic() < deadline:
        time.sleep(0.001)
    assert srv._idle


def test_shutdown_stops_the_loop_and_closes_the_port(recipient_pair, tmp_path):
    _, priv = recipient_pair
    srv = transfer.TransferServer(0, priv, {}.get, tmp_path, host="127.0.0.1")
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    # an OK reply shows the accept loop is running
    (reply,) = raw_session(srv.port, [frame_bytes(FrameKind.HELLO, transfer.HELLO_PAYLOAD)])
    assert reply.kind == FrameKind.OK
    start = time.monotonic()
    srv.shutdown()
    assert time.monotonic() - start < 1.0
    thread.join(timeout=1.0)
    assert not thread.is_alive()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", srv.port), timeout=5.0).close()


class TestFrames:
    @pytest.mark.parametrize("kind", list(FrameKind))
    def test_round_trip_every_kind(self, kind):
        frame = Frame(kind, b"payload-bytes")
        assert roundtrip(frame) == frame

    def test_empty_payload_is_five_bytes(self):
        buf = io.BytesIO()
        transfer.write_frame(buf, FrameKind.OK)
        assert len(buf.getvalue()) == 5

    def test_unknown_kind_rejected(self):
        buf = io.BytesIO(struct.pack(">BI", 9, 0))
        with pytest.raises(ProtocolError, match="unknown frame kind"):
            transfer.read_frame(buf)

    def test_oversized_declaration_rejected_before_read(self):
        # no payload follows; the guard must fire on the header alone
        buf = io.BytesIO(struct.pack(">BI", 1, transfer.MAX_FRAME + 1))
        with pytest.raises(FrameTooLargeError):
            transfer.read_frame(buf)

    def test_writer_refuses_a_frame_above_max_frame(self, monkeypatch):
        # read at call time, like read_frame, so both ends share one limit
        monkeypatch.setattr(transfer, "MAX_FRAME", 1024)
        buf = io.BytesIO()
        with pytest.raises(FrameTooLargeError):
            transfer.write_frame(buf, FrameKind.FILE, b"a" * 1000, b"b" * 25)
        assert buf.getvalue() == b""
        transfer.write_frame(buf, FrameKind.FILE, b"a" * 1024)
        assert len(buf.getvalue()) == 5 + 1024

    def test_reader_takes_a_frame_of_exactly_max_frame(self, monkeypatch):
        monkeypatch.setattr(transfer, "MAX_FRAME", 1024)
        frame = transfer.read_frame(io.BytesIO(frame_bytes(FrameKind.FILE, b"a" * 1024)))
        assert frame == Frame(FrameKind.FILE, b"a" * 1024)
        with pytest.raises(FrameTooLargeError):
            transfer.read_frame(io.BytesIO(frame_bytes(FrameKind.FILE, b"a" * 1025)))

    def test_short_header_rejected(self):
        with pytest.raises(ConnectionClosedError):
            transfer.read_frame(io.BytesIO(b"\x01\x00"))

    def test_short_payload_rejected(self):
        buf = io.BytesIO(struct.pack(">BI", 1, 10) + b"abc")
        with pytest.raises(ConnectionClosedError):
            transfer.read_frame(buf)


class TestAckPayload:
    def test_round_trip(self):
        ack = AckPayload(0, bytes(range(32)))
        assert AckPayload.decode(ack.encode()) == ack

    def test_wire_width(self):
        assert len(AckPayload(0, bytes(32)).encode()) == 33

    def test_wrong_width_rejected(self):
        with pytest.raises(ProtocolError):
            AckPayload.decode(bytes(32))

    def test_failure_ack_must_zero_digest(self):
        with pytest.raises(ProtocolError):
            AckPayload.decode(bytes([1]) + bytes(range(32)))
        ok = AckPayload.decode(bytes([1]) + bytes(32))
        assert ok.status == 1


class TestFilePayload:
    def test_round_trip(self):
        payload = file_payload("report.pdf", b"envelope-bytes")
        assert transfer.decode_file_payload(payload) == ("report.pdf", b"envelope-bytes")

    @pytest.mark.parametrize("name", ["", "a/b", "a\\b", "nul\x00byte", ".", "..", "x" * 256])
    def test_bad_names_rejected(self, name):
        with pytest.raises(ProtocolError):
            transfer.validate_filename(name)

    def test_unicode_name_round_trip(self):
        payload = file_payload("résumé.txt", b"x")
        assert transfer.decode_file_payload(payload)[0] == "résumé.txt"

    def test_truncated_payloads_rejected(self):
        with pytest.raises(ProtocolError):
            transfer.decode_file_payload(b"\x00")
        with pytest.raises(ProtocolError):
            transfer.decode_file_payload(struct.pack(">H", 10) + b"abc")

    def test_exact_length_boundaries(self):
        # two bytes hold the name length, so an empty name reaches the name check
        with pytest.raises(ProtocolError, match="filename must be 1..255 UTF-8 bytes"):
            transfer.decode_file_payload(b"\x00\x00")
        assert transfer.decode_file_payload(struct.pack(">H", 1) + b"a") == ("a", b"")

    def test_non_utf8_name_rejected(self):
        with pytest.raises(ProtocolError):
            transfer.decode_file_payload(struct.pack(">H", 2) + b"\xff\xfe" + b"rest")

    def test_sender_checks_the_name_before_sealing(
        self, recipient_pair, sender_pair, tmp_path, monkeypatch
    ):
        pub, _ = recipient_pair
        spub, spriv = sender_pair
        src = tmp_path / "a\\b"  # a legal name on POSIX, refused on the wire
        src.write_bytes(b"data")
        monkeypatch.setattr(envelope, "seal", lambda *a: pytest.fail("sealed a doomed file"))
        monkeypatch.setattr(socket, "create_connection", lambda *a, **k: pytest.fail("connected"))
        with pytest.raises(ProtocolError, match="path separators"):
            transfer.send_file("127.0.0.1", 1, src, pub, spriv, spub)

    def test_sender_refuses_a_non_utf8_name(
        self, recipient_pair, sender_pair, tmp_path, monkeypatch
    ):
        pub, _ = recipient_pair
        spub, spriv = sender_pair
        # the byte 0xff comes back from the file system as the surrogate '\udcff'
        src = tmp_path / os.fsdecode(b"\xffreport.bin")
        src.write_bytes(b"data")
        monkeypatch.setattr(socket, "create_connection", lambda *a, **k: pytest.fail("connected"))
        with pytest.raises(ProtocolError, match="filename is not valid UTF-8"):
            transfer.send_file("127.0.0.1", 1, src, pub, spriv, spub)


class TestLoopback:
    def test_single_file(self, server, recipient_pair, sender_pair, tmp_path):
        srv, out_dir = server
        pub, _ = recipient_pair
        spub, spriv = sender_pair
        src = tmp_path / "note.txt"
        data = random.Random(38).randbytes(70000)
        src.write_bytes(data)

        ack = transfer.send_file("127.0.0.1", srv.port, src, pub, spriv, spub)
        assert ack.status == 0
        assert ack.digest == rsa.sha256(data)
        assert (out_dir / "note.txt").read_bytes() == data

    def test_file_above_max_frame_is_refused_before_its_frame(
        self, server, recipient_pair, sender_pair, tmp_path, monkeypatch
    ):
        srv, out_dir = server
        pub, _ = recipient_pair
        spub, spriv = sender_pair
        monkeypatch.setattr(transfer, "MAX_FRAME", 64 * 1024)
        (tmp_path / "big.bin").write_bytes(bytes(100_000))
        with pytest.raises(FrameTooLargeError):
            transfer.send_file("127.0.0.1", srv.port, tmp_path / "big.bin", pub, spriv, spub)
        assert list(out_dir.iterdir()) == []

    def test_one_hash_of_the_plaintext_per_side(
        self, server, recipient_pair, sender_pair, tmp_path, monkeypatch
    ):
        # sign hashes it on the sender, verify on the receiver; both ACK
        # digests come from the signature
        srv, out_dir = server
        pub, _ = recipient_pair
        spub, spriv = sender_pair
        data = random.Random(41).randbytes(100_000)
        (tmp_path / "once.bin").write_bytes(data)
        hashed = []
        real_sha256 = rsa.sha256
        monkeypatch.setattr(rsa, "sha256", lambda m: hashed.append(len(m)) or real_sha256(m))
        ack = transfer.send_file("127.0.0.1", srv.port, tmp_path / "once.bin", pub, spriv, spub)
        assert ack.digest == real_sha256(data)
        assert (out_dir / "once.bin").read_bytes() == data
        assert hashed.count(len(data)) == 2

    def test_plaintext_digest_is_readable_on_the_wire(self, server, recipient_pair, sender_pair):
        # the signature is raw RSA over SHA-256(plaintext) and the ACK echoes
        # that digest, so a guessed plaintext is confirmed with the sender's
        # public key from the FILE frame, or with no key at all from the ACK
        srv, _ = server
        pub, _ = recipient_pair
        spub, spriv = sender_pair
        env = envelope.seal(b"yes", pub, spriv, spub, random.Random(43))
        file_frame = frame_bytes(FrameKind.FILE, file_payload("answer", envelope.serialize(env)))
        hello = frame_bytes(FrameKind.HELLO, transfer.HELLO_PAYLOAD)
        ok, ack = raw_session(srv.port, [hello, file_frame])
        assert (ok.kind, ack.kind) == (FrameKind.OK, FrameKind.ACK)

        captured = transfer.read_frame(io.BytesIO(file_frame))
        _, env_bytes = transfer.decode_file_payload(captured.payload)
        digest = rsa.signed_digest(spub, envelope.parse(env_bytes).signature)
        assert digest == rsa.sha256(b"yes") != rsa.sha256(b"no")
        assert AckPayload.decode(ack.payload).digest == rsa.sha256(b"yes")

    def test_empty_file(self, server, recipient_pair, sender_pair, tmp_path):
        srv, out_dir = server
        pub, _ = recipient_pair
        spub, spriv = sender_pair
        src = tmp_path / "empty.bin"
        src.write_bytes(b"")
        ack = transfer.send_file("127.0.0.1", srv.port, src, pub, spriv, spub)
        assert ack.status == 0
        assert (out_dir / "empty.bin").read_bytes() == b""

    def test_duplicate_names_get_suffixes(self, server, recipient_pair, sender_pair, tmp_path):
        srv, out_dir = server
        pub, _ = recipient_pair
        spub, spriv = sender_pair
        src = tmp_path / "dup.txt"
        for i in range(3):
            src.write_bytes(f"copy {i}".encode())
            transfer.send_file("127.0.0.1", srv.port, src, pub, spriv, spub)
        assert (out_dir / "dup.txt").read_bytes() == b"copy 0"
        assert (out_dir / "dup.txt.1").read_bytes() == b"copy 1"
        assert (out_dir / "dup.txt.2").read_bytes() == b"copy 2"

    def test_concurrent_senders(self, server, recipient_pair, sender_pair, tmp_path):
        srv, out_dir = server
        pub, _ = recipient_pair
        spub, spriv = sender_pair
        blobs = {}
        for i in range(4):
            src = tmp_path / f"conc-{i}.bin"
            blobs[src.name] = random.Random(100 + i).randbytes(30000)
            src.write_bytes(blobs[src.name])

        errors = []

        def push(name):
            try:
                transfer.send_file(
                    "127.0.0.1", srv.port, tmp_path / name, pub, spriv, spub
                )
            except Exception as exc:  # noqa: BLE001 - collected and re-raised
                errors.append(exc)

        threads = [threading.Thread(target=push, args=(name,)) for name in blobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors
        for name, data in blobs.items():
            assert (out_dir / name).read_bytes() == data

    def test_unknown_sender_rejected(self, server, recipient_pair, other_pair, tmp_path):
        srv, out_dir = server
        pub, _ = recipient_pair
        stranger_pub, stranger_priv = other_pair
        src = tmp_path / "intruder.txt"
        src.write_bytes(b"let me in")
        with pytest.raises(TransferError, match="unknown sender"):
            transfer.send_file("127.0.0.1", srv.port, src, pub, stranger_priv, stranger_pub)
        assert not (out_dir / "intruder.txt").exists()

    def test_wrong_server_key_reports_decapsulation(
        self, recipient_pair, sender_pair, other_pair, tmp_path
    ):
        # server configured with a private key that cannot open the seed
        pub, _ = recipient_pair
        spub, spriv = sender_pair
        _, wrong_priv = other_pair
        out_dir = tmp_path / "wrongkey"
        out_dir.mkdir()
        table = {rsa.fingerprint(spub): spub}
        srv = transfer.TransferServer(0, wrong_priv, table.get, out_dir)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            src = tmp_path / "sealed-for-other.txt"
            src.write_bytes(b"oops")
            with pytest.raises(TransferError, match="decapsulation failed"):
                transfer.send_file("127.0.0.1", srv.port, src, pub, spriv, spub)
            assert list(out_dir.iterdir()) == []
        finally:
            srv.shutdown()
            thread.join(timeout=5)

    def test_old_version_hello_rejected(self, server):
        srv, _ = server
        (reply,) = raw_session(srv.port, [frame_bytes(FrameKind.HELLO, b"hciv0")])
        assert reply.kind == FrameKind.ERR
        assert reply.payload == b"version"

    def test_file_frame_instead_of_hello_rejected(self, server):
        # its payload is the HELLO payload, so only the kind check refuses it
        srv, out_dir = server
        (reply,) = raw_session(srv.port, [frame_bytes(FrameKind.FILE, transfer.HELLO_PAYLOAD)])
        assert reply == Frame(FrameKind.ERR, b"expected HELLO, got kind 3")
        assert list(out_dir.iterdir()) == []

    def test_second_hello_instead_of_file_rejected(self, server):
        srv, out_dir = server
        hello = frame_bytes(FrameKind.HELLO, transfer.HELLO_PAYLOAD)
        ok, err = raw_session(srv.port, [hello, hello])
        assert ok.kind == FrameKind.OK
        assert err == Frame(FrameKind.ERR, b"expected FILE, got kind 1")
        assert list(out_dir.iterdir()) == []

    def test_non_hello_opening_rejected(self, server):
        srv, _ = server
        (reply,) = raw_session(srv.port, [frame_bytes(FrameKind.FILE, b"data")])
        assert reply.kind == FrameKind.ERR

    def test_garbage_bytes_get_err_or_close(self, server):
        srv, _ = server
        with socket.create_connection(("127.0.0.1", srv.port), timeout=5.0) as sock:
            sock.sendall(b"\x99" * 64)
            sock.shutdown(socket.SHUT_WR)
            reply = sock.recv(4096)  # ERR frame or empty on close; no hang
        assert reply == b"" or reply[0] == FrameKind.ERR

    def test_tampered_stream_writes_nothing(
        self, server, recipient_pair, sender_pair, tmp_path
    ):
        # a proxy flips one ciphertext byte in flight; server must refuse
        srv, out_dir = server
        pub, _ = recipient_pair
        spub, spriv = sender_pair
        data = random.Random(39).randbytes(50000)
        env = envelope.seal(data, pub, spriv, spub, random.Random(40))
        payload = file_payload("tampered.bin", envelope.serialize(env))
        corrupted = bytearray(payload)
        corrupted[-1] ^= 0x01  # last ciphertext byte
        replies = raw_session(
            srv.port,
            [
                frame_bytes(FrameKind.HELLO, transfer.HELLO_PAYLOAD),
                frame_bytes(FrameKind.FILE, bytes(corrupted)),
            ],
        )
        assert replies[0].kind == FrameKind.OK
        assert replies[1].kind == FrameKind.ERR
        assert not (out_dir / "tampered.bin").exists()
        assert list(out_dir.iterdir()) == []

    def test_disconnect_mid_transfer_writes_nothing(self, server):
        srv, out_dir = server
        with socket.create_connection(("127.0.0.1", srv.port), timeout=5.0) as sock:
            stream = sock.makefile("rwb")
            transfer.write_frame(stream, FrameKind.HELLO, transfer.HELLO_PAYLOAD)
            transfer.read_frame(stream)  # OK
            # declare a FILE frame but hang up before sending its payload
            stream.write(struct.pack(">BI", int(FrameKind.FILE), 1000))
            stream.flush()
        time.sleep(0.2)
        assert list(out_dir.iterdir()) == []

    def test_garbage_envelope_gets_envelope_format(self, server):
        srv, out_dir = server
        replies = raw_session(
            srv.port,
            [
                frame_bytes(FrameKind.HELLO, transfer.HELLO_PAYLOAD),
                frame_bytes(
                    FrameKind.FILE, file_payload("junk.bin", b"not an envelope")
                ),
            ],
        )
        assert replies == [Frame(FrameKind.OK, b""), Frame(FrameKind.ERR, b"envelope format")]
        assert list(out_dir.iterdir()) == []

    def test_oversized_file_frame_gets_frame_too_large(self, server):
        srv, out_dir = server
        tracemalloc.start()
        try:
            # only the header: the server must answer without reading on
            replies = raw_session(
                srv.port,
                [
                    frame_bytes(FrameKind.HELLO, transfer.HELLO_PAYLOAD),
                    struct.pack(">BI", int(FrameKind.FILE), transfer.MAX_FRAME + 1),
                ],
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert replies == [Frame(FrameKind.OK, b""), Frame(FrameKind.ERR, b"frame too large")]
        assert peak < 1 << 20  # the declared 256 MiB were never allocated
        assert list(out_dir.iterdir()) == []

    def test_stalled_client_is_cut_off(self, server, monkeypatch):
        srv, out_dir = server
        monkeypatch.setattr(transfer, "CONNECTION_TIMEOUT", 0.5)
        with socket.create_connection(("127.0.0.1", srv.port), timeout=5.0) as sock:
            stream = sock.makefile("rwb")
            transfer.write_frame(stream, FrameKind.HELLO, transfer.HELLO_PAYLOAD)
            assert transfer.read_frame(stream).kind == FrameKind.OK
            start = time.monotonic()
            err = transfer.read_frame(stream)  # send nothing more: ERR, then close
            rest = stream.read()
            elapsed = time.monotonic() - start
            stream.close()
        assert elapsed < 5.0
        assert err == Frame(FrameKind.ERR, b"timeout")
        assert rest == b""
        assert list(out_dir.iterdir()) == []

    def test_resend_of_a_255_byte_name_is_refused(
        self, server, recipient_pair, sender_pair, tmp_path
    ):
        # the first copy fills the name limit, so the ".1" suffix cannot fit
        srv, out_dir = server
        if os.pathconf(out_dir, "PC_NAME_MAX") < 255:
            pytest.skip("filesystem names are shorter than 255 bytes")
        pub, _ = recipient_pair
        spub, spriv = sender_pair
        name = "n" * 251 + ".txt"
        src = tmp_path / name
        src.write_bytes(b"first copy")
        ack = transfer.send_file("127.0.0.1", srv.port, src, pub, spriv, spub)
        assert ack.status == 0

        env = envelope.seal(b"second copy", pub, spriv, spub, random.Random(41))
        replies = raw_session(
            srv.port,
            [
                frame_bytes(FrameKind.HELLO, transfer.HELLO_PAYLOAD),
                frame_bytes(
                    FrameKind.FILE,
                    file_payload(name, envelope.serialize(env)),
                ),
            ],
        )
        assert replies[1] == Frame(FrameKind.ERR, b"filename too long")
        assert (out_dir / name).read_bytes() == b"first copy"
        assert [p.name for p in out_dir.iterdir()] == [name]  # no .hcie-* temp file


class TestConnectionCap:
    def test_connection_over_the_cap_is_refused_at_once(
        self, recipient_pair, sender_pair, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(transfer, "MAX_CONNECTIONS", 2)
        pub, _ = recipient_pair
        spub, spriv = sender_pair
        src = tmp_path / "late.bin"
        src.write_bytes(b"sent once a slot is free")
        out_dir = tmp_path / "incoming"
        out_dir.mkdir()
        with running_server(recipient_pair, sender_pair, out_dir) as srv, \
                contextlib.ExitStack() as stack:
            stalled = []
            for _ in range(2):
                sock = stack.enter_context(
                    socket.create_connection(("127.0.0.1", srv.port), timeout=5.0)
                )
                stream = stack.enter_context(sock.makefile("rwb"))
                transfer.write_frame(stream, FrameKind.HELLO, transfer.HELLO_PAYLOAD)
                # OK comes from the session's thread, so it holds a slot
                assert transfer.read_frame(stream).kind == FrameKind.OK
                stalled.append((sock, stream))

            start = time.monotonic()
            with socket.create_connection(("127.0.0.1", srv.port), timeout=5.0) as sock, \
                    sock.makefile("rb") as stream:
                assert transfer.read_frame(stream) == Frame(FrameKind.ERR, b"server busy")
                assert stream.read() == b""
            assert time.monotonic() - start < 2.0
            with pytest.raises(TransferError, match="^hello: server busy$"):
                transfer.send_file("127.0.0.1", srv.port, src, pub, spriv, spub)

            sock, stream = stalled.pop()
            stream.close()
            sock.close()
            deadline = time.monotonic() + 5.0
            while True:
                try:
                    ack = transfer.send_file("127.0.0.1", srv.port, src, pub, spriv, spub)
                    break
                except TransferError as exc:
                    # the closed session frees its slot just after it closes
                    if "server busy" not in str(exc) or time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
        assert ack.status == 0
        assert (out_dir / "late.bin").read_bytes() == src.read_bytes()

    def test_slot_is_released_when_the_thread_fails_to_start(
        self, recipient_pair, sender_pair, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(transfer, "MAX_CONNECTIONS", 1)
        pub, _ = recipient_pair
        spub, spriv = sender_pair
        src = tmp_path / "after.bin"
        src.write_bytes(b"served by the freed slot")
        out_dir = tmp_path / "incoming"
        out_dir.mkdir()
        errors = record_server_errors(monkeypatch)
        with running_server(recipient_pair, sender_pair, out_dir) as srv:
            def no_thread(self):
                raise RuntimeError("can't start new thread")

            with monkeypatch.context() as m:
                m.setattr(threading.Thread, "start", no_thread)
                with socket.create_connection(("127.0.0.1", srv.port), timeout=5.0) as sock:
                    assert sock.recv(1) == b""  # closed with no session
            ack = transfer.send_file("127.0.0.1", srv.port, src, pub, spriv, spub)
        assert ack.status == 0
        assert (out_dir / "after.bin").read_bytes() == src.read_bytes()
        # the serving loop reports the failed start and carries on
        assert [type(exc) for exc in errors] == [RuntimeError]

    def test_exception_escaping_a_session_leaves_its_thread_idle(
        self, recipient_pair, sender_pair, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(transfer, "MAX_CONNECTIONS", 1)
        pub, _ = recipient_pair
        spub, spriv = sender_pair
        src = tmp_path / "next.bin"
        src.write_bytes(b"served by the same thread")
        out_dir = tmp_path / "incoming"
        out_dir.mkdir()
        session, raised = transfer.TransferServer._session, []

        def fails_once(self, stream):
            if not raised:
                raised.append(True)
                raise RuntimeError("a bug in the session")
            return session(self, stream)

        monkeypatch.setattr(transfer.TransferServer, "_session", fails_once)
        errors = record_server_errors(monkeypatch)
        with running_server(recipient_pair, sender_pair, out_dir) as srv:
            started = record_thread_starts(monkeypatch)
            with socket.create_connection(("127.0.0.1", srv.port), timeout=5.0) as sock:
                assert sock.recv(1) == b""  # closed with no reply
            wait_until_idle(srv)
            ack = transfer.send_file("127.0.0.1", srv.port, src, pub, spriv, spub)
        assert ack.status == 0
        assert (out_dir / "next.bin").read_bytes() == src.read_bytes()
        assert len(started) == 1
        assert [str(exc) for exc in errors] == ["a bug in the session"]

    def test_interrupt_in_thread_start_keeps_the_slot_count(
        self, recipient_pair, sender_pair, tmp_path, monkeypatch
    ):
        # a SIGINT can land in Thread.start() after the session has already
        # ended and its thread gone idle; the interrupt must reach the
        # serving loop, and the started thread must stay the server's one
        monkeypatch.setattr(transfer, "MAX_CONNECTIONS", 1)
        pub, priv = recipient_pair
        spub, spriv = sender_pair
        src = tmp_path / "later.bin"
        src.write_bytes(b"served after the interrupt")
        out_dir = tmp_path / "incoming"
        out_dir.mkdir()
        table = {rsa.fingerprint(spub): spub}
        start = threading.Thread.start

        def start_then_interrupt(thread):
            start(thread)
            wait_until_idle(srv)  # the session thread outlives its session
            raise KeyboardInterrupt

        with transfer.TransferServer(0, priv, table.get, out_dir, host="127.0.0.1") as srv:
            socket.create_connection(("127.0.0.1", srv.port), timeout=5.0).close()
            with monkeypatch.context() as m:
                m.setattr(threading.Thread, "start", start_then_interrupt)
                with pytest.raises(KeyboardInterrupt):
                    srv._handle_request_noblock()
            loop = threading.Thread(target=srv.serve_forever, daemon=True)
            loop.start()
            try:
                with monkeypatch.context() as m:
                    started = record_thread_starts(m)
                    ack = transfer.send_file("127.0.0.1", srv.port, src, pub, spriv, spub)
            finally:
                srv.shutdown()
                loop.join(timeout=5)
        assert ack.status == 0
        assert started == []  # the idle thread took the send
        assert (out_dir / "later.bin").read_bytes() == src.read_bytes()

    def test_an_idle_session_thread_serves_the_next_connection(
        self, server, recipient_pair, sender_pair, tmp_path, monkeypatch
    ):
        srv, out_dir = server
        pub, _ = recipient_pair
        spub, spriv = sender_pair
        start, started = threading.Thread.start, []

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        for i in range(20):
            src = tmp_path / f"seq{i}.bin"
            src.write_bytes(bytes([i]) * i)
            assert transfer.send_file("127.0.0.1", srv.port, src, pub, spriv, spub).status == 0
            # the ACK is written before the session thread goes idle
            deadline = time.monotonic() + 5.0
            while not srv._idle and time.monotonic() < deadline:
                time.sleep(0.001)
            assert srv._idle
        assert len(started) == 1
        assert len(os.listdir(out_dir)) == 20

    def test_session_threads_never_outnumber_the_cap(
        self, recipient_pair, sender_pair, tmp_path, monkeypatch
    ):
        # sessions end while new connections arrive, with threads switched
        # as often as the interpreter allows; none of them may start a third
        monkeypatch.setattr(transfer, "MAX_CONNECTIONS", 2)
        out_dir = tmp_path / "incoming"
        out_dir.mkdir()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with running_server(recipient_pair, sender_pair, out_dir) as srv:
                before = set(threading.enumerate())  # the serving loop included
                for _ in range(50):
                    held = []
                    while len(held) < 2:
                        sock = socket.create_connection(("127.0.0.1", srv.port), timeout=5.0)
                        stream = sock.makefile("rwb")
                        transfer.write_frame(stream, FrameKind.HELLO, transfer.HELLO_PAYLOAD)
                        reply = transfer.read_frame(stream)
                        assert len(set(threading.enumerate()) - before) <= 2
                        if reply.kind == FrameKind.OK:
                            held.append((sock, stream))
                            continue
                        assert reply == Frame(FrameKind.ERR, b"server busy")
                        stream.close()
                        sock.close()
                    for sock, stream in held:
                        stream.close()
                        sock.close()
        finally:
            sys.setswitchinterval(interval)


def drain_and_reply(listener: socket.socket, last_reply: bytes) -> None:
    """A receiver that allocates nothing per byte: it answers HELLO with OK,
    reads the FILE payload into one 64 KiB buffer, and answers it with the
    frame ``last_reply``."""
    conn, _ = listener.accept()
    with conn:
        buf = bytearray(64 * 1024)
        view = memoryview(buf)
        for reply in [frame_bytes(FrameKind.OK, b""), last_reply]:
            conn.recv_into(view[:5], 5, socket.MSG_WAITALL)
            (remaining,) = struct.unpack(">I", view[1:5])
            while remaining:
                got = conn.recv_into(view, min(remaining, len(buf)))
                if not got:
                    return
                remaining -= got
            conn.sendall(reply)


def send_peak_per_byte(recipient_pair, sender_pair, tmp_path) -> float:
    """The sender's tracemalloc peak per payload byte for a 2 MiB send_file."""
    pub, _ = recipient_pair
    spub, spriv = sender_pair
    data = random.Random(42).randbytes(2 * 1024 * 1024)
    src = tmp_path / "big.bin"
    src.write_bytes(data)
    digest = rsa.sha256(data)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        ack_frame = frame_bytes(FrameKind.ACK, AckPayload(0, digest).encode())
        receiver = threading.Thread(
            target=drain_and_reply, args=(listener, ack_frame), daemon=True
        )
        receiver.start()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ack = transfer.send_file(
                "127.0.0.1", listener.getsockname()[1], src, pub, spriv, spub
            )
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        receiver.join(timeout=10)
    assert not receiver.is_alive()
    assert ack == AckPayload(0, digest)
    return peak / len(data)


@pytest.mark.parametrize(
    "reply, message",
    [
        (frame_bytes(FrameKind.ACK, AckPayload(1, bytes(32)).encode()),
         "^ack: server reported status 1$"),
        (frame_bytes(FrameKind.ACK, AckPayload(0, bytes(32)).encode()),
         "^digest: server digest does not match local plaintext$"),
        (frame_bytes(FrameKind.OK, b""), "^transfer: expected ACK, got OK$"),
    ],
    ids=["failure-status", "wrong-digest", "wrong-kind"],
)
def test_send_file_checks_the_reply(recipient_pair, sender_pair, tmp_path, reply, message):
    pub, _ = recipient_pair
    spub, spriv = sender_pair
    src = tmp_path / "a.bin"
    src.write_bytes(b"checked reply")
    with socket.create_server(("127.0.0.1", 0)) as listener:
        receiver = threading.Thread(target=drain_and_reply, args=(listener, reply), daemon=True)
        receiver.start()
        with pytest.raises(TransferError, match=message):
            transfer.send_file("127.0.0.1", listener.getsockname()[1], src, pub, spriv, spub)
        receiver.join(timeout=10)
    assert not receiver.is_alive()


def test_send_file_holds_three_payload_sized_buffers(recipient_pair, sender_pair, tmp_path):
    # a loose ceiling; the plaintext is gone once seal returns
    assert send_peak_per_byte(recipient_pair, sender_pair, tmp_path) <= 3.2


def test_send_file_writes_the_frame_from_its_parts(recipient_pair, sender_pair, tmp_path):
    # the ciphertext and the serialized envelope; the name header and the
    # envelope are written one after the other, never joined
    assert send_peak_per_byte(recipient_pair, sender_pair, tmp_path) <= 2.3


# The ERR payload each session failure puts on the wire.  Senders show
# these strings to users, so each one is pinned byte for byte.
ERR_REASONS = [
    pytest.param(errors.HcieError("x"), "internal error", id="HcieError"),
    pytest.param(errors.DimensionError("x"), "internal error", id="DimensionError"),
    pytest.param(errors.NotInvertibleError("x"), "internal error", id="NotInvertibleError"),
    pytest.param(errors.PaddingError("x"), "invalid padding", id="PaddingError"),
    pytest.param(
        errors.InsufficientPlaintextError("x"), "internal error", id="InsufficientPlaintextError"
    ),
    pytest.param(errors.InconsistentPairsError("x"), "internal error", id="InconsistentPairsError"),
    pytest.param(errors.KeyFileError("x"), "internal error", id="KeyFileError"),
    pytest.param(errors.DecapsulationError("x"), "decapsulation failed", id="DecapsulationError"),
    pytest.param(errors.RsaFaultError("x"), "internal error", id="RsaFaultError"),
    pytest.param(errors.EnvelopeFormatError("x"), "envelope format", id="EnvelopeFormatError"),
    pytest.param(errors.OpenError("x"), "internal error", id="OpenError"),
    pytest.param(
        errors.PlaintextLengthError("x"), "plaintext length mismatch", id="PlaintextLengthError"
    ),
    pytest.param(errors.SignatureError("x"), "signature verification failed", id="SignatureError"),
    pytest.param(
        errors.FingerprintMismatchError("x"),
        "signature verification failed",
        id="FingerprintMismatchError",
    ),
    pytest.param(errors.ProtocolError("unknown sender"), "unknown sender", id="ProtocolError"),
    pytest.param(errors.ProtocolError(), "protocol", id="ProtocolError-empty"),
    pytest.param(errors.FrameTooLargeError("x"), "frame too large", id="FrameTooLargeError"),
    pytest.param(
        errors.ConnectionClosedError("connection closed"),
        "connection closed",
        id="ConnectionClosedError",
    ),
    pytest.param(errors.ServerBusyError("x"), "server busy", id="ServerBusyError"),
    pytest.param(errors.TransferError("ack", "x"), "internal error", id="TransferError"),
    pytest.param(errors.BenchVerificationError("x"), "internal error", id="BenchVerificationError"),
    pytest.param(TimeoutError("timed out"), "timeout", id="TimeoutError"),
    pytest.param(OSError("x"), "internal error", id="OSError"),
    pytest.param(ValueError("x"), "internal error", id="ValueError"),
    # has a .reason of its own, which must not reach the wire
    pytest.param(
        UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
        "internal error",
        id="UnicodeDecodeError",
    ),
]


class TestErrReasons:
    @pytest.mark.parametrize("exc, reason", ERR_REASONS)
    def test_session_failure_sends_reason(self, server, monkeypatch, exc, reason):
        srv, _ = server

        def failing_session(self, stream):
            raise exc

        monkeypatch.setattr(transfer.TransferServer, "_session", failing_session)
        ours, theirs = socket.socketpair()
        with theirs, theirs.makefile("rb") as stream:
            srv.finish_request(ours, "socketpair")  # closes its end when done
            theirs.settimeout(5.0)
            assert transfer.read_frame(stream) == Frame(FrameKind.ERR, reason.encode())
            assert stream.read() == b""

    def test_every_error_class_is_pinned(self):
        pinned = {type(p.values[0]) for p in ERR_REASONS}
        declared = {
            cls
            for cls in vars(errors).values()
            if isinstance(cls, type) and cls.__module__ == errors.__name__
        }
        assert declared <= pinned


class TestTrustedKeys:
    def test_indexes_by_fingerprint(self, tmp_path, recipient_pair, sender_pair):
        pub_a, _ = recipient_pair
        pub_b, _ = sender_pair
        (tmp_path / "a.pub").write_bytes(rsa.serialize_key(pub_a))
        (tmp_path / "b.pub").write_bytes(rsa.serialize_key(pub_b))
        table = transfer.load_trusted_keys(tmp_path)
        assert table[rsa.fingerprint(pub_a)] == pub_a
        assert table[rsa.fingerprint(pub_b)] == pub_b
        assert len(table) == 2

    def test_skips_private_keys_and_garbage(self, tmp_path, recipient_pair, caplog):
        pub, priv = recipient_pair
        (tmp_path / "good.pub").write_bytes(rsa.serialize_key(pub))
        (tmp_path / "secret.key").write_bytes(rsa.serialize_key(priv))
        (tmp_path / "junk.txt").write_bytes(b"not a key at all")
        with caplog.at_level(logging.WARNING, logger="hcie.transfer"):
            table = transfer.load_trusted_keys(tmp_path)
        assert list(table.values()) == [pub]
        assert len(caplog.records) == 2

    def test_skips_subdirectories(self, tmp_path, recipient_pair, sender_pair):
        pub, _ = recipient_pair
        spub, _ = sender_pair
        (tmp_path / "a.pub").write_bytes(rsa.serialize_key(pub))
        (tmp_path / "nested").mkdir()
        (tmp_path / "nested" / "b.pub").write_bytes(rsa.serialize_key(spub))
        assert transfer.load_trusted_keys(tmp_path) == {rsa.fingerprint(pub): pub}

    def test_skips_keys_with_a_degenerate_exponent(self, tmp_path, recipient_pair, caplog):
        # under e = 1 every digest is its own signature
        pub, _ = recipient_pair
        (tmp_path / "forgeable.pub").write_bytes(rsa.serialize_key(rsa.RsaPublicKey(pub.n, 1)))
        with caplog.at_level(logging.WARNING, logger="hcie.transfer"):
            assert transfer.load_trusted_keys(tmp_path) == {}
        assert "ignoring unparseable key file" in caplog.text

import dataclasses
import os
import random
import struct
import sys
import threading
import time

import pytest

from hcie import envelope, hill, rsa
from hcie.errors import (
    DecapsulationError,
    DimensionError,
    EnvelopeFormatError,
    FingerprintMismatchError,
    HcieError,
    OpenError,
    PaddingError,
    PlaintextLengthError,
    RsaFaultError,
    SignatureError,
)


def make_envelope(recipient_pair, sender_pair, payload=b"hello envelope", **kwargs):
    pub, _ = recipient_pair
    spub, spriv = sender_pair
    rng = kwargs.pop("rng", random.Random(33))
    return envelope.seal(payload, pub, spriv, spub, rng, **kwargs)


class TestSealOpen:
    @pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 255, 4096, 65536])
    def test_round_trip_lengths(self, recipient_pair, sender_pair, length):
        pub, priv = recipient_pair
        spub, spriv = sender_pair
        payload = random.Random(length).randbytes(length)
        env = envelope.seal(payload, pub, spriv, spub, random.Random(34))
        assert envelope.open_envelope(env, priv, spub) == payload

    @pytest.mark.parametrize("dim_log2", [1, 2, 3, 4, 5, 6])
    def test_round_trip_dims(self, recipient_pair, sender_pair, dim_log2):
        pub, priv = recipient_pair
        spub, spriv = sender_pair
        payload = b"dimension sweep"
        env = envelope.seal(payload, pub, spriv, spub, random.Random(35), dim_log2)
        assert env.dim_log2 == dim_log2
        assert envelope.open_envelope(env, priv, spub) == payload

    def test_fresh_seed_every_seal(self, recipient_pair, sender_pair):
        pub, _ = recipient_pair
        spub, spriv = sender_pair
        payload = b"same plaintext"
        a = envelope.seal(payload, pub, spriv, spub)
        b = envelope.seal(payload, pub, spriv, spub)
        assert a.encapsulated_seed != b.encapsulated_seed
        assert a.ciphertext != b.ciphertext

    def test_plaintext_len_recorded_exactly(self, recipient_pair, sender_pair):
        env = make_envelope(recipient_pair, sender_pair, payload=bytes(123))
        assert env.plaintext_len == 123

    def test_ciphertext_length_invariant(self, recipient_pair, sender_pair):
        env = make_envelope(recipient_pair, sender_pair, payload=bytes(16))
        block = 1 << env.dim_log2
        assert len(env.ciphertext) % block == 0
        assert env.plaintext_len < len(env.ciphertext) <= env.plaintext_len + block

    def test_fingerprint_names_sender(self, recipient_pair, sender_pair):
        spub, _ = sender_pair
        env = make_envelope(recipient_pair, sender_pair)
        assert env.sender_fingerprint == rsa.fingerprint(spub)

    def test_seal_rejects_mismatched_sender_pub(self, recipient_pair, sender_pair, other_pair):
        pub, _ = recipient_pair
        _, spriv = sender_pair
        wrong_pub, _ = other_pair
        with pytest.raises(ValueError):
            envelope.seal(b"x", pub, spriv, wrong_pub)

    def test_surreptitious_forwarding_opens_as_from_sender(
        self, recipient_pair, sender_pair, other_pair
    ):
        # the signature covers the plaintext only, so Bob can re-address
        # Alice's envelope to Carol and it still opens as Alice's (see the
        # threat model); binding the recipient needs a new format version
        _, bob_priv = recipient_pair
        alice_pub, _ = sender_pair
        carol_pub, carol_priv = other_pair
        env = make_envelope(recipient_pair, sender_pair, payload=b"for Bob only")
        seed = rsa.decrypt_seed(bob_priv, env.encapsulated_seed)
        forwarded = dataclasses.replace(env, encapsulated_seed=rsa.encrypt_seed(carol_pub, seed))
        assert envelope.open_envelope(forwarded, carol_priv, alice_pub) == b"for Bob only"


class TestOpenFailures:
    def test_wrong_recipient_key(self, recipient_pair, sender_pair, other_pair):
        spub, _ = sender_pair
        _, wrong_priv = other_pair
        env = make_envelope(recipient_pair, sender_pair)
        with pytest.raises(DecapsulationError):
            envelope.open_envelope(env, wrong_priv, spub)

    def test_wrong_sender_key_is_a_signature_failure(
        self, recipient_pair, sender_pair, other_pair
    ):
        _, priv = recipient_pair
        wrong_pub, _ = other_pair
        env = make_envelope(recipient_pair, sender_pair)
        with pytest.raises(SignatureError):
            envelope.open_envelope(env, priv, wrong_pub)

    def test_fingerprint_mismatch_detected_after_signature(
        self, recipient_pair, sender_pair, other_pair
    ):
        # valid signature but relabeled fingerprint: the last check fires
        _, priv = recipient_pair
        spub, _ = sender_pair
        wrong_pub, _ = other_pair
        env = make_envelope(recipient_pair, sender_pair)
        relabeled = dataclasses.replace(
            env, sender_fingerprint=rsa.fingerprint(wrong_pub)
        )
        with pytest.raises(FingerprintMismatchError):
            envelope.open_envelope(relabeled, priv, spub)

    def test_recorded_length_mismatch(self, recipient_pair, sender_pair):
        _, priv = recipient_pair
        spub, _ = sender_pair
        env = make_envelope(recipient_pair, sender_pair, payload=bytes(16))
        lying = dataclasses.replace(env, plaintext_len=17)
        with pytest.raises(PlaintextLengthError):
            envelope.open_envelope(lying, priv, spub)

    def test_ciphertext_tamper_100_positions(self, recipient_pair, sender_pair):
        _, priv = recipient_pair
        spub, _ = sender_pair
        payload = random.Random(36).randbytes(2000)
        env = make_envelope(recipient_pair, sender_pair, payload=payload)
        rng = random.Random(37)
        for _ in range(100):
            i = rng.randrange(len(env.ciphertext))
            delta = rng.randrange(1, 256)
            ct = bytearray(env.ciphertext)
            ct[i] ^= delta
            tampered = dataclasses.replace(env, ciphertext=bytes(ct))
            # A flip in the final block may die at padding validation
            # instead of the signature check; both are documented
            # fail-closed outcomes of open_envelope.
            with pytest.raises((OpenError, PaddingError)):
                envelope.open_envelope(tampered, priv, spub)

    def test_encapsulated_seed_tamper_every_position(self, recipient_pair, sender_pair):
        _, priv = recipient_pair
        spub, _ = sender_pair
        env = make_envelope(recipient_pair, sender_pair)
        for i in range(len(env.encapsulated_seed)):
            seed_ct = bytearray(env.encapsulated_seed)
            seed_ct[i] ^= 0xFF
            tampered = dataclasses.replace(env, encapsulated_seed=bytes(seed_ct))
            with pytest.raises((DecapsulationError, HcieError)):
                envelope.open_envelope(tampered, priv, spub)


class TestEnvelopeInvariants:
    def test_dim_log2_range_enforced(self, recipient_pair, sender_pair):
        # every other length agrees: one padding block of 2^dim_log2 bytes
        # holds an empty plaintext, so only the range check can refuse it
        env = make_envelope(recipient_pair, sender_pair)
        for dim_log2 in (0, 7):
            with pytest.raises(EnvelopeFormatError, match="dim_log2 .* out of range"):
                dataclasses.replace(
                    env, dim_log2=dim_log2, plaintext_len=0, ciphertext=bytes(1 << dim_log2)
                )

    def test_fingerprint_width_enforced(self, recipient_pair, sender_pair):
        env = make_envelope(recipient_pair, sender_pair)
        with pytest.raises(EnvelopeFormatError):
            dataclasses.replace(env, sender_fingerprint=bytes(31))

    def test_ciphertext_block_multiple_enforced(self, recipient_pair, sender_pair):
        env = make_envelope(recipient_pair, sender_pair)
        with pytest.raises(EnvelopeFormatError):
            dataclasses.replace(env, ciphertext=bytes(env.ciphertext) + b"x")
        with pytest.raises(EnvelopeFormatError):
            dataclasses.replace(env, ciphertext=b"")

    def test_length_window_enforced(self, recipient_pair, sender_pair):
        env = make_envelope(recipient_pair, sender_pair)
        block = 1 << env.dim_log2
        with pytest.raises(EnvelopeFormatError):
            dataclasses.replace(env, plaintext_len=len(env.ciphertext))
        with pytest.raises(EnvelopeFormatError):
            dataclasses.replace(env, plaintext_len=len(env.ciphertext) - block - 1)
        # with no ciphertext, -block .. -1 would satisfy the length equation
        with pytest.raises(EnvelopeFormatError):
            dataclasses.replace(env, ciphertext=b"", plaintext_len=-1)


class TestWireFormat:
    def test_round_trip_field_for_field(self, recipient_pair, sender_pair):
        env = make_envelope(recipient_pair, sender_pair)
        assert envelope.parse(envelope.serialize(env)) == env

    def test_header_layout(self, recipient_pair, sender_pair):
        env = make_envelope(recipient_pair, sender_pair)
        blob = envelope.serialize(env)
        assert blob[:4] == b"HCIE"
        assert blob[4] == 1  # version
        assert blob[5] == env.dim_log2
        assert blob[6:8] == b"\x00\x00"  # reserved
        assert blob[8:40] == env.sender_fingerprint
        (seed_ct_len,) = struct.unpack(">I", blob[40:44])
        assert seed_ct_len == len(env.encapsulated_seed)
        off = 44 + seed_ct_len
        (sig_len,) = struct.unpack(">I", blob[off : off + 4])
        assert sig_len == len(env.signature)
        off += 4 + sig_len
        plaintext_len, ct_len = struct.unpack(">QQ", blob[off : off + 16])
        assert plaintext_len == env.plaintext_len
        assert ct_len == len(env.ciphertext)
        assert blob[off + 16 :] == env.ciphertext

    def test_total_length_is_exact(self, recipient_pair, sender_pair):
        env = make_envelope(recipient_pair, sender_pair)
        blob = envelope.serialize(env)
        expected = (
            40 + 4 + len(env.encapsulated_seed) + 4 + len(env.signature) + 16
            + len(env.ciphertext)
        )
        assert len(blob) == expected

    def test_truncating_final_byte(self, recipient_pair, sender_pair):
        blob = envelope.serialize(make_envelope(recipient_pair, sender_pair))
        with pytest.raises(EnvelopeFormatError, match="truncated ciphertext"):
            envelope.parse(blob[:-1])

    def test_every_truncation_rejected(self, recipient_pair, sender_pair):
        env = make_envelope(recipient_pair, sender_pair)
        blob = envelope.serialize(env)
        # a cut is reported as the field it falls in, the first one left short
        fields = [
            ("header", 40),
            ("seed length field", 4),
            ("encapsulated seed", len(env.encapsulated_seed)),
            ("signature length field", 4),
            ("signature", len(env.signature)),
            ("length fields", 16),
            ("ciphertext", len(env.ciphertext)),
        ]
        region = [what for what, size in fields for _ in range(size)]
        assert len(region) == len(blob)
        for cut in range(len(blob)):
            with pytest.raises(EnvelopeFormatError, match=f"^truncated {region[cut]}$"):
                envelope.parse(blob[:cut])

    def test_trailing_data_rejected(self, recipient_pair, sender_pair):
        blob = envelope.serialize(make_envelope(recipient_pair, sender_pair))
        with pytest.raises(EnvelopeFormatError, match="trailing data"):
            envelope.parse(blob + b"\x00")

    def test_bad_magic(self, recipient_pair, sender_pair):
        blob = bytearray(envelope.serialize(make_envelope(recipient_pair, sender_pair)))
        blob[0] = ord("X")
        with pytest.raises(EnvelopeFormatError, match="bad magic"):
            envelope.parse(bytes(blob))

    def test_bad_version(self, recipient_pair, sender_pair):
        blob = bytearray(envelope.serialize(make_envelope(recipient_pair, sender_pair)))
        blob[4] = 9
        with pytest.raises(EnvelopeFormatError, match="version"):
            envelope.parse(bytes(blob))

    def test_nonzero_reserved(self, recipient_pair, sender_pair):
        blob = bytearray(envelope.serialize(make_envelope(recipient_pair, sender_pair)))
        blob[6] = 1
        with pytest.raises(EnvelopeFormatError, match="reserved"):
            envelope.parse(bytes(blob))

    def test_serialized_round_trip_still_opens(self, recipient_pair, sender_pair):
        _, priv = recipient_pair
        spub, _ = sender_pair
        payload = b"disk round trip"
        env = make_envelope(recipient_pair, sender_pair, payload=payload)
        reparsed = envelope.parse(envelope.serialize(env))
        assert envelope.open_envelope(reparsed, priv, spub) == payload


MIB = 1 << 20


def record_thread_starts(monkeypatch) -> list:
    """The threads started from now on."""
    start, started = threading.Thread.start, []

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    return started


def slow_sign(monkeypatch) -> list:
    """Make ``rsa.sign`` end well after the kernel's pass over 1 MiB, so a
    seal that does not wait for its worker finds no signature; returns the
    ids of the threads it is called on."""
    sign, callers = rsa.sign, []

    def slow(*args):
        callers.append(threading.get_ident())
        time.sleep(0.1)
        return sign(*args)

    monkeypatch.setattr(rsa, "sign", slow)
    return callers


def corrupted_crt(priv):
    """``priv`` with a flipped bit in dq, so every private operation fails
    its consistency check."""
    bad = rsa.RsaPrivateKey(n=priv.n, e=priv.e, d=priv.d, p=priv.p, q=priv.q)
    dp, dq, q_inv = priv.crt
    bad.__dict__["crt"] = (dp, dq ^ 2, q_inv)
    return bad


ONE_CPU = {
    "one-cpu affinity": lambda mp: mp.setattr(
        os, "sched_getaffinity", lambda pid: {0}, raising=False
    ),
    "no affinity call, one cpu": lambda mp: (
        mp.delattr(os, "sched_getaffinity", raising=False),
        mp.setattr(os, "cpu_count", lambda: 1),
    ),
}


class TestSignWorker:
    """A payload over one kernel chunk is signed on a worker thread while
    the kernel runs, when the process may use two CPUs; the envelope is
    the same bytes either way."""

    @staticmethod
    def sealed(recipient_pair, sender_pair, payload, seed, dim_log2=4):
        pub, _ = recipient_pair
        spub, spriv = sender_pair
        env = envelope.seal(payload, pub, spriv, spub, random.Random(seed), dim_log2)
        return bytes(envelope.serialize(env))

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def test_large_seal_signs_once_on_another_thread(
        self, recipient_pair, sender_pair, monkeypatch, two_cpus
    ):
        # seal reaches sign through the module attribute, so a wrapper
        # there (such as a tracer's) sees the call, on the worker thread
        callers = slow_sign(monkeypatch)
        payload = random.Random(60).randbytes(MIB)
        _, priv = recipient_pair
        spub, _ = sender_pair
        env = envelope.parse(self.sealed(recipient_pair, sender_pair, payload, 61))
        assert len(callers) == 1 and callers[0] != threading.get_ident()
        assert envelope.open_envelope(env, priv, spub) == payload

    @pytest.mark.parametrize(
        "break_key, error, message",
        [
            (corrupted_crt, RsaFaultError,
             "^private-key operation failed its consistency check$"),
            (lambda priv: rsa.RsaPrivateKey(n=3233, e=17, d=2753, p=61, q=53), ValueError,
             "^modulus too small to sign a 256-bit digest$"),
        ],
        ids=["corrupted crt", "textbook key"],
    )
    def test_worker_exception_reaches_the_caller(
        self, recipient_pair, sender_pair, monkeypatch, two_cpus, break_key, error, message
    ):
        _, spriv = sender_pair
        bad = break_key(spriv)
        bad_pair = (rsa.RsaPublicKey(bad.n, bad.e), bad)
        slow_sign(monkeypatch)
        baseline = threading.active_count()
        started = record_thread_starts(monkeypatch)
        with pytest.raises(error, match=message):
            self.sealed(recipient_pair, bad_pair, bytes(MIB), 62)
        assert len(started) == 1
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("cpus", sorted(ONE_CPU))
    def test_one_cpu_seals_on_the_calling_thread(
        self, recipient_pair, sender_pair, monkeypatch, two_cpus, cpus
    ):
        payload = random.Random(63).randbytes(MIB)
        threaded = self.sealed(recipient_pair, sender_pair, payload, 64)
        ONE_CPU[cpus](monkeypatch)
        started = record_thread_starts(monkeypatch)
        assert self.sealed(recipient_pair, sender_pair, payload, 64) == threaded
        assert started == []

    def test_small_payload_seals_on_the_calling_thread(
        self, recipient_pair, sender_pair, monkeypatch, two_cpus
    ):
        payload = random.Random(65).randbytes(4096)
        with monkeypatch.context() as mp:
            started = record_thread_starts(mp)
            serial = self.sealed(recipient_pair, sender_pair, payload, 66)
            assert started == []
        # below one chunk of the kernel, the worker would be used
        monkeypatch.setattr(hill, "CHUNK_BYTES", 1024)
        started = record_thread_starts(monkeypatch)
        assert self.sealed(recipient_pair, sender_pair, payload, 66) == serial
        assert len(started) == 1

    def test_concurrent_seals_match_serial_ones(
        self, recipient_pair, sender_pair, monkeypatch, two_cpus
    ):
        _, priv = recipient_pair
        spub, _ = sender_pair
        payloads = [random.Random(70 + i).randbytes(MIB) for i in range(4)]
        with monkeypatch.context() as mp:
            ONE_CPU["one-cpu affinity"](mp)
            serial = [self.sealed(recipient_pair, sender_pair, p, 80 + i)
                      for i, p in enumerate(payloads)]
        barrier = threading.Barrier(len(payloads))
        sealed = [None] * len(payloads)

        def seal(i):
            barrier.wait(timeout=30)
            sealed[i] = self.sealed(recipient_pair, sender_pair, payloads[i], 80 + i)

        # four sealing threads, each with its signing worker, on fewer cores,
        # switching as often as the interpreter allows
        threads = [threading.Thread(target=seal, args=(i,)) for i in range(len(payloads))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sealed == serial
        for blob, payload in zip(sealed, payloads):
            assert envelope.open_envelope(envelope.parse(blob), priv, spub) == payload


class TestHashWorker:
    """An open of a payload over three kernel chunks hashes the plaintext
    on a worker thread while the kernel decrypts it, when the process may
    use two CPUs; it returns the same plaintext, or raises the same error,
    either way."""

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @staticmethod
    def opened(recipient_pair, sender_pair, env):
        _, priv = recipient_pair
        spub, _ = sender_pair
        return envelope.open_envelope(env, priv, spub)

    def test_threaded_and_serial_opens_agree(
        self, recipient_pair, sender_pair, monkeypatch, two_cpus
    ):
        payload = random.Random(90).randbytes(MIB + 5)
        for dim_log2 in (1, 4):
            env = make_envelope(recipient_pair, sender_pair, payload, dim_log2=dim_log2)
            with monkeypatch.context() as mp:
                started = record_thread_starts(mp)
                assert self.opened(recipient_pair, sender_pair, env) == payload
                assert [t.name for t in started] == ["hcie-decrypt-each"]
            with monkeypatch.context() as mp:
                ONE_CPU["one-cpu affinity"](mp)
                started = record_thread_starts(mp)
                assert self.opened(recipient_pair, sender_pair, env) == payload
                assert started == []

    def test_verify_is_called_once_with_the_plaintext_and_its_digest(
        self, recipient_pair, sender_pair, monkeypatch, two_cpus
    ):
        # a tracer that wraps rsa.verify reads the plaintext from args[1]
        verify, calls = rsa.verify, []

        def recording(*args, **kwargs):
            calls.append((bytes(args[1]), kwargs))
            return verify(*args, **kwargs)

        monkeypatch.setattr(rsa, "verify", recording)
        payload = random.Random(91).randbytes(MIB)
        env = make_envelope(recipient_pair, sender_pair, payload)
        assert self.opened(recipient_pair, sender_pair, env) == payload
        assert calls == [(payload, {"digest": rsa.sha256(payload)})]

    @pytest.mark.parametrize(
        "fault, error, message",
        [
            ("padding", PaddingError, "^invalid padding$"),
            ("length", PlaintextLengthError,
             f"^recovered {MIB + 5} bytes, envelope records {MIB + 4}$"),
            ("signature", SignatureError, "^signature verification failed$"),
            ("fingerprint", FingerprintMismatchError, "^sender fingerprint mismatch$"),
            ("ragged", DimensionError,
             f"^ciphertext length {MIB + 15} is not a positive multiple of 16$"),
        ],
        ids=["padding", "length", "signature", "fingerprint", "ragged"],
    )
    def test_failures_match_the_serial_path(
        self, recipient_pair, sender_pair, other_pair, monkeypatch, two_cpus,
        fault, error, message
    ):
        _, priv = recipient_pair
        payload = random.Random(92).randbytes(MIB + 5)
        env = make_envelope(recipient_pair, sender_pair, payload)
        if fault == "padding":
            # the whole payload, one block short, re-encrypted so its last
            # block decrypts to a byte 0 that no padding ends with
            key = hill.derive_key(rsa.decrypt_seed(priv, env.encapsulated_seed), 4)
            body = payload[: MIB] + bytes(16)
            env = dataclasses.replace(
                env, ciphertext=hill.encrypt_stream(key, body)[:-16], plaintext_len=MIB + 15
            )
        elif fault == "length":
            env = dataclasses.replace(env, plaintext_len=MIB + 4)
        elif fault == "signature":
            env = dataclasses.replace(env, signature=make_envelope(
                recipient_pair, sender_pair, b"other").signature)
        elif fault == "fingerprint":
            env = dataclasses.replace(env, sender_fingerprint=rsa.fingerprint(other_pair[0]))
        else:
            # past the field checks, as an envelope built some other way might be
            object.__setattr__(env, "ciphertext", env.ciphertext[:-1])
        with monkeypatch.context() as mp:
            ONE_CPU["one-cpu affinity"](mp)
            with pytest.raises(error, match=message):
                self.opened(recipient_pair, sender_pair, env)
        baseline = threading.active_count()
        started = record_thread_starts(monkeypatch)
        with pytest.raises(error, match=message):
            self.opened(recipient_pair, sender_pair, env)
        # a ragged ciphertext is refused before any thread starts
        assert len(started) == (fault != "ragged")
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("cpus", sorted(ONE_CPU))
    def test_one_cpu_opens_on_the_calling_thread(
        self, recipient_pair, sender_pair, monkeypatch, two_cpus, cpus
    ):
        payload = random.Random(93).randbytes(MIB)
        env = make_envelope(recipient_pair, sender_pair, payload)
        ONE_CPU[cpus](monkeypatch)
        started = record_thread_starts(monkeypatch)
        assert self.opened(recipient_pair, sender_pair, env) == payload
        assert started == []

    def test_small_payload_opens_on_the_calling_thread(
        self, recipient_pair, sender_pair, monkeypatch, two_cpus
    ):
        payload = random.Random(94).randbytes(4096)
        env = make_envelope(recipient_pair, sender_pair, payload)
        with monkeypatch.context() as mp:
            started = record_thread_starts(mp)
            assert self.opened(recipient_pair, sender_pair, env) == payload
            assert started == []
        # with a 1 KiB kernel chunk, the worker would be used
        monkeypatch.setattr(hill, "CHUNK_BYTES", 1024)
        started = record_thread_starts(monkeypatch)
        assert self.opened(recipient_pair, sender_pair, env) == payload
        assert len(started) == 1

    def test_concurrent_opens(self, recipient_pair, sender_pair, monkeypatch, two_cpus):
        payloads = [random.Random(95 + i).randbytes(MIB + i) for i in range(4)]
        envs = [make_envelope(recipient_pair, sender_pair, p, dim_log2=1 + i % 2 * 3)
                for i, p in enumerate(payloads)]
        barrier = threading.Barrier(len(envs))
        opened = [None] * len(envs)

        def open_one(i):
            barrier.wait(timeout=30)
            opened[i] = self.opened(recipient_pair, sender_pair, envs[i])

        # four opening threads, each with its hashing worker, on fewer cores,
        # switching as often as the interpreter allows
        threads = [threading.Thread(target=open_one, args=(i,)) for i in range(len(envs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert opened == payloads

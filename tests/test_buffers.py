"""The payload buffer path: the Hill kernel fills the buffer it returns
(behind the header, for ``seal``), ``parse`` and the receiver read the
ciphertext in place, and each stays correct against the dense-matmul oracle
and the field-by-field encoder at every length that matters."""

import dataclasses
import random
import struct
import tracemalloc

import numpy as np
import pytest

from hcie import envelope, hill, rsa, transfer

from test_hill import dense

KIB = 1 << 10
MIB = 1 << 20


def lengths(n):
    """0 .. 3n+1, then ciphertexts one block either side of one and two
    kernel chunks, each with one byte and with a whole block of padding."""
    chunk = hill.CHUNK_BYTES // n * n
    edges = [chunk - n, chunk + n, 2 * chunk - n, 2 * chunk + n]
    return [*range(3 * n + 2), *(ct - pad for ct in edges for pad in (1, n))]


def sealed(recipient_pair, sender_pair, payload, dim_log2, seed=0):
    pub, _ = recipient_pair
    spub, spriv = sender_pair
    return envelope.seal(payload, pub, spriv, spub, random.Random(seed), dim_log2)


def as_memoryview(blob):
    # a view that does not start at its buffer's first byte
    return memoryview(b"xx" + blob)[2:]


class TestViews:
    def test_parse_ciphertext_shares_memory_with_data(self, recipient_pair, sender_pair):
        blob = envelope.serialize(sealed(recipient_pair, sender_pair, bytes(5000), 4))
        env = envelope.parse(blob)
        assert isinstance(env.ciphertext, memoryview) and env.ciphertext.readonly
        assert np.shares_memory(
            np.frombuffer(env.ciphertext, dtype=np.uint8), np.frombuffer(blob, dtype=np.uint8)
        )
        assert env.ciphertext == blob[-len(env.ciphertext) :]

    def test_decode_file_payload_shares_memory(self):
        payload = struct.pack(">H", 5) + b"a.bin" + b"envelope bytes"
        name, body = transfer.decode_file_payload(payload)
        assert name == "a.bin" and body == b"envelope bytes"
        assert np.shares_memory(
            np.frombuffer(body, dtype=np.uint8), np.frombuffer(payload, dtype=np.uint8)
        )

    def test_buffer_types(self, recipient_pair, sender_pair):
        env = sealed(recipient_pair, sender_pair, b"types", 4)
        assert type(env.ciphertext) is memoryview and env.ciphertext.readonly
        blob = envelope.serialize(env)
        assert type(blob) is bytearray
        # the ciphertext is the tail of the serialized buffer, not a copy
        assert np.shares_memory(
            np.frombuffer(env.ciphertext, dtype=np.uint8), np.frombuffer(blob, dtype=np.uint8)
        )
        _, priv = recipient_pair
        spub, _ = sender_pair
        assert type(envelope.open_envelope(env, priv, spub)) is bytearray
        key = hill.derive_key(bytes(32), 1)
        assert type(hill.encrypt_stream(key, b"abc")) is bytearray
        assert type(hill.decrypt_stream(key, hill.encrypt_stream(key, b"abc"))) is bytearray

    def test_returned_plaintext_is_resizable(self):
        # no numpy view of the buffer outlives decrypt_stream
        key = hill.derive_key(bytes(32), 4)
        plaintext = hill.decrypt_stream(key, hill.encrypt_stream(key, bytes(100)))
        plaintext += b"!"
        assert plaintext == bytes(100) + b"!"

    @pytest.mark.parametrize("convert", [bytes, bytearray, as_memoryview],
                             ids=["bytes", "bytearray", "memoryview"])
    def test_parse_and_open_accept_any_bytes_like(self, convert, recipient_pair, sender_pair):
        _, priv = recipient_pair
        spub, _ = sender_pair
        payload = random.Random(7).randbytes(4097)
        blob = envelope.serialize(sealed(recipient_pair, sender_pair, payload, 4))
        env = envelope.parse(convert(blob))
        assert env == envelope.parse(blob)
        assert envelope.open_envelope(env, priv, spub) == payload
        assert envelope.serialize(env) == blob

    @pytest.mark.parametrize("s", [1, 4])
    def test_encrypt_stream_accepts_any_bytes_like(self, s):
        key = hill.derive_key(bytes(32), s)
        payload = random.Random(70 + s).randbytes(5000)
        expected = hill.encrypt_stream(key, payload)
        assert hill.encrypt_stream(key, bytearray(payload)) == expected
        assert hill.encrypt_stream(key, as_memoryview(payload)) == expected

    def test_seal_accepts_memoryview(self, recipient_pair, sender_pair):
        _, priv = recipient_pair
        spub, _ = sender_pair
        payload = random.Random(71).randbytes(4097)
        env = sealed(recipient_pair, sender_pair, as_memoryview(payload), 4)
        assert envelope.open_envelope(env, priv, spub) == payload


@pytest.mark.parametrize("s", [1, 4, 6])
class TestSealedBuffer:
    """serialize of a sealed envelope returns the buffer seal wrote; it must
    equal the join of the fields, which encodes every other envelope."""

    @staticmethod
    def envelopes(recipient_pair, sender_pair, s):
        n = 1 << s
        rng = random.Random(800 + s)
        for length in (0, n - 1, n, n + 1, 5000):
            yield sealed(recipient_pair, sender_pair, rng.randbytes(length), s, length)

    def test_buffer_equals_the_field_encoding(self, s, recipient_pair, sender_pair):
        for env in self.envelopes(recipient_pair, sender_pair, s):
            blob = envelope.serialize(env)
            # replace() builds an envelope without the buffer: the join path
            joined = envelope.serialize(dataclasses.replace(env))
            assert type(joined) is bytes and blob == joined
            assert envelope.parse(blob) == env
            assert envelope.serialize(env) == blob

    def test_changed_copy_does_not_alias_the_buffer(self, s, recipient_pair, sender_pair):
        for env in self.envelopes(recipient_pair, sender_pair, s):
            before = bytes(envelope.serialize(env))
            flipped = bytes([env.signature[0] ^ 1]) + env.signature[1:]
            changed = envelope.serialize(dataclasses.replace(env, signature=flipped))
            assert changed != before
            assert changed[:-len(env.ciphertext)] != before[:-len(env.ciphertext)]
            assert bytes(envelope.serialize(env)) == before
            assert envelope.parse(changed).signature == flipped


@pytest.mark.parametrize("s", [1, 4, 6])
def test_open_envelope_matches_dense_oracle(s, recipient_pair, sender_pair):
    # decrypt_stream alone is checked at these lengths by test_hill's TestKernel
    _, priv = recipient_pair
    spub, _ = sender_pair
    rng = random.Random(500 + s)
    n = 1 << s
    for length in lengths(n):
        payload = rng.randbytes(length)
        env = envelope.parse(
            envelope.serialize(sealed(recipient_pair, sender_pair, payload, s, length))
        )
        key = hill.derive_key(rsa.decrypt_seed(priv, env.encapsulated_seed), s)
        assert hill.unpad(dense(key.inverse, env.ciphertext), n) == payload
        assert envelope.open_envelope(env, priv, spub) == payload


def peak_per_byte(fn, *args):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("s", [1, 4, 6])
class TestPeakMemory:
    """One payload-sized buffer per call, plus the kernel's one chunk."""

    def test_open_of_parsed_bytes(self, s, recipient_pair, sender_pair):
        _, priv = recipient_pair
        spub, _ = sender_pair
        payload = random.Random(600 + s).randbytes(2 * MIB)
        data = envelope.serialize(sealed(recipient_pair, sender_pair, payload, s))
        plaintext, peak = peak_per_byte(
            lambda: envelope.open_envelope(envelope.parse(data), priv, spub)
        )
        assert plaintext == payload
        assert peak <= len(payload) + hill.CHUNK_BYTES + 32 * KIB

    def test_seal_and_serialize(self, s, recipient_pair, sender_pair):
        _, priv = recipient_pair
        spub, _ = sender_pair
        payload = random.Random(650 + s).randbytes(2 * MIB)
        data, peak = peak_per_byte(
            lambda: envelope.serialize(sealed(recipient_pair, sender_pair, payload, s))
        )
        assert envelope.open_envelope(envelope.parse(data), priv, spub) == payload
        assert peak <= len(payload) + hill.CHUNK_BYTES + 32 * KIB

    def test_encrypt_stream(self, s):
        payload = random.Random(700 + s).randbytes(2 * MIB)
        key = hill.derive_key(bytes(32), s)
        ct, peak = peak_per_byte(hill.encrypt_stream, key, payload)
        assert hill.decrypt_stream(key, ct) == payload
        assert peak <= len(payload) + hill.CHUNK_BYTES + 32 * KIB

    def test_decrypt_stream(self, s):
        payload = random.Random(750 + s).randbytes(2 * MIB)
        key = hill.derive_key(bytes(32), s)
        ct = hill.encrypt_stream(key, payload)
        plaintext, peak = peak_per_byte(hill.decrypt_stream, key, ct)
        assert plaintext == payload
        assert peak <= len(payload) + hill.CHUNK_BYTES + 32 * KIB

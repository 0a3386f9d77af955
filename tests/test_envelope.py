import dataclasses
import random
import struct

import pytest

from hcie import envelope, rsa
from hcie.errors import (
    DecapsulationError,
    EnvelopeFormatError,
    FingerprintMismatchError,
    HcieError,
    OpenError,
    PaddingError,
    PlaintextLengthError,
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
        env = make_envelope(recipient_pair, sender_pair)
        with pytest.raises(EnvelopeFormatError):
            dataclasses.replace(env, dim_log2=0)
        with pytest.raises(EnvelopeFormatError):
            dataclasses.replace(env, dim_log2=7)

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

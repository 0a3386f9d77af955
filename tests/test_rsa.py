import math
import random

import pytest

from hcie import rsa
from hcie.errors import DecapsulationError, KeyFileError, RsaFaultError

from reference_sha256 import sha256 as ref_sha256


def slow_pow(base: int, exp: int, mod: int) -> int:
    """Independent square-and-multiply, the oracle for builtin pow."""
    result = 1
    base %= mod
    while exp:
        if exp & 1:
            result = result * base % mod
        base = base * base % mod
        exp >>= 1
    return result


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class TestSha256:
    def test_empty_vector(self):
        assert rsa.sha256(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_abc_vector(self):
        assert rsa.sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_matches_independent_reference(self):
        rng = random.Random(21)
        for length in (0, 1, 55, 56, 64, 65, 1000):
            data = rng.randbytes(length)
            assert rsa.sha256(data) == ref_sha256(data)

    def test_deterministic(self):
        assert rsa.sha256(b"x") == rsa.sha256(b"x")
        assert rsa.sha256(b"x") != rsa.sha256(b"y")


class TestPrimality:
    def test_agrees_with_trial_division_to_10k(self):
        rng = random.Random(22)
        for n in range(10000):
            assert rsa.is_probable_prime(n, rng=rng) == trial_division_prime(n), n

    def test_rejects_carmichael_561(self):
        assert 561 == 3 * 11 * 17
        assert not rsa.is_probable_prime(561)

    def test_accepts_mersenne_31(self):
        assert rsa.is_probable_prime(2**31 - 1)

    def test_large_composite_with_no_small_factors(self):
        p = 2**89 - 1  # Mersenne prime
        assert rsa.is_probable_prime(p)
        assert not rsa.is_probable_prime(p * (2**61 - 1))


class _Planted(random.Random):
    """A generator whose first ``getrandbits`` call returns ``PRIME``, a
    64-bit prime = 1 (mod 65537), so 65537 divides PRIME - 1."""

    PRIME = 0xC00000000002C003

    def getrandbits(self, k):
        if not getattr(self, "planted", False):
            self.planted = True
            return self.PRIME
        return super().getrandbits(k)


class TestKeygen:
    def test_exact_bit_length(self, recipient_pair):
        pub, priv = recipient_pair
        assert pub.n.bit_length() == 512
        pub2, _ = rsa.keygen(1024, random.Random(23))
        assert pub2.n.bit_length() == 1024

    def test_pair_is_consistent(self, recipient_pair):
        pub, priv = recipient_pair
        assert pub.n == priv.p * priv.q
        assert priv.p != priv.q
        assert priv.p > priv.q
        lam = math.lcm(priv.p - 1, priv.q - 1)
        assert priv.e * priv.d % lam == 1
        assert rsa.is_probable_prime(priv.p)
        assert rsa.is_probable_prime(priv.q)

    def test_round_trip_100_messages(self, recipient_pair):
        pub, priv = recipient_pair
        rng = random.Random(24)
        for _ in range(100):
            x = rng.getrandbits(64)
            assert pow(pow(x, pub.e, pub.n), priv.d, priv.n) == x

    def test_deterministic_under_seed(self):
        a = rsa.keygen(512, random.Random(25))
        b = rsa.keygen(512, random.Random(25))
        assert a == b

    def test_nonstandard_bits_rejected(self):
        with pytest.raises(ValueError):
            rsa.keygen(768)

    def test_insecure_floor(self):
        with pytest.raises(ValueError):
            rsa.keygen(16, insecure=True)
        pub, priv = rsa.keygen(64, random.Random(26), insecure=True)
        assert pub.n.bit_length() == 64

    def test_public_exponent_is_always_65537(self, recipient_pair, sender_pair, other_pair):
        assert rsa.is_probable_prime(_Planted.PRIME)
        assert _Planted.PRIME % 65537 == 1
        # the planted prime is drawn again rather than moving e off 65537
        pub, priv = rsa.keygen(128, _Planted(7), insecure=True)
        assert pub.e == priv.e == 65537
        assert _Planted.PRIME not in (priv.p, priv.q)
        for pair_pub, pair_priv in (recipient_pair, sender_pair, other_pair):
            assert pair_pub.e == pair_priv.e == 65537

    def test_textbook_consistency(self, textbook_priv):
        priv = textbook_priv
        assert priv.n == 61 * 53
        assert priv.e * priv.d % ((61 - 1) * (53 - 1)) == 1


class TestSeedTransport:
    def test_round_trip_200_seeds(self, recipient_pair):
        pub, priv = recipient_pair
        rng = random.Random(27)
        for _ in range(200):
            seed = rng.randbytes(32)
            assert rsa.decrypt_seed(priv, rsa.encrypt_seed(pub, seed, rng)) == seed

    def test_randomized_fill(self, recipient_pair):
        pub, _ = recipient_pair
        seed = bytes(32)
        assert rsa.encrypt_seed(pub, seed) != rsa.encrypt_seed(pub, seed)

    def test_output_width_is_modulus_width(self, recipient_pair):
        pub, _ = recipient_pair
        assert len(rsa.encrypt_seed(pub, bytes(32))) == pub.byte_length()

    def test_block_structure(self, recipient_pair):
        # decrypt the raw integer and inspect the v1.5-style layout
        pub, priv = recipient_pair
        ct = rsa.encrypt_seed(pub, bytes(range(32)), random.Random(28))
        block = pow(int.from_bytes(ct, "big"), priv.d, priv.n).to_bytes(pub.byte_length(), "big")
        assert block[:2] == b"\x00\x02"
        fill = block[2 : -(32 + 1)]
        assert len(fill) >= 8 and 0 not in fill
        assert block[-(32 + 1)] == 0
        assert block[-32:] == bytes(range(32))

    def test_seed_length_enforced(self, recipient_pair):
        pub, _ = recipient_pair
        with pytest.raises(ValueError):
            rsa.encrypt_seed(pub, bytes(31))

    def test_modulus_floor(self):
        pub, _ = rsa.keygen(256, random.Random(29), insecure=True)
        with pytest.raises(ValueError):
            rsa.encrypt_seed(pub, bytes(32))

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda ct, pub: ct[:-1],  # truncated
            lambda ct, pub: ct + b"\x00",  # too long
            lambda ct, pub: (pub.n + 1).to_bytes(pub.byte_length(), "big"),  # >= n
            lambda ct, pub: pow(1, pub.e, pub.n).to_bytes(pub.byte_length(), "big"),  # block = 1
        ],
    )
    def test_malformed_ciphertexts_fail_uniformly(self, recipient_pair, mangle):
        pub, priv = recipient_pair
        ct = rsa.encrypt_seed(pub, bytes(32), random.Random(30))
        with pytest.raises(DecapsulationError, match="^decapsulation failed$"):
            rsa.decrypt_seed(priv, mangle(ct, pub))

    def test_forged_block_shapes_fail_uniformly(self, recipient_pair):
        pub, priv = recipient_pair
        k = pub.byte_length()
        bad_blocks = [
            b"\x00\x01" + b"\xff" * (k - 35) + b"\x00" + bytes(32),  # wrong type byte
            b"\x00\x02" + b"\x11" * (k - 2),  # no zero separator
            b"\x00\x02" + b"\x11" * (k - 34) + b"\x00" + bytes(31),  # 31-byte payload
            b"\x00\x02" + b"\x11" * (k - 36) + b"\x00" + bytes(33),  # 33-byte payload
        ]
        for block in bad_blocks:
            forged = pow(int.from_bytes(block, "big"), pub.e, pub.n).to_bytes(k, "big")
            with pytest.raises(DecapsulationError, match="^decapsulation failed$"):
                rsa.decrypt_seed(priv, forged)

    def test_wrong_key_fails(self, recipient_pair, other_pair):
        pub, _ = recipient_pair
        _, wrong_priv = other_pair
        ct = rsa.encrypt_seed(pub, bytes(32), random.Random(31))
        with pytest.raises(DecapsulationError):
            rsa.decrypt_seed(wrong_priv, ct)


class TestSignatures:
    def test_round_trip(self, sender_pair):
        pub, priv = sender_pair
        msg = b"the quick brown fox"
        assert rsa.verify(pub, msg, rsa.sign(priv, msg))

    def test_signature_value_below_modulus(self, sender_pair):
        pub, priv = sender_pair
        sig = rsa.sign(priv, b"bounded")
        assert 0 <= int.from_bytes(sig, "big") < pub.n

    def test_signature_is_modulus_width_with_leading_zero(self, sender_pair):
        # about one signature in 160 starts with a zero byte under this key;
        # I2OSP keeps that byte rather than shortening the signature
        pub, priv = sender_pair
        rng = random.Random(36)
        for _ in range(5000):
            msg = rng.randbytes(16)
            sig = rsa.sign(priv, msg)
            if sig[0] == 0:
                break
        assert type(sig) is bytes and sig[0] == 0
        assert len(sig) == pub.byte_length() == priv.byte_length()
        assert rsa.verify(pub, msg, sig)
        assert rsa.verify(pub, msg, sig.lstrip(b"\x00"))

    def test_flipped_message_bytes_rejected(self, sender_pair):
        pub, priv = sender_pair
        rng = random.Random(32)
        msg = bytearray(rng.randbytes(300))
        sig = rsa.sign(priv, bytes(msg))
        for _ in range(1000):
            i = rng.randrange(len(msg))
            delta = rng.randrange(1, 256)
            tampered = bytes(msg[:i]) + bytes([msg[i] ^ delta]) + bytes(msg[i + 1 :])
            assert not rsa.verify(pub, tampered, sig)

    def test_cross_key_rejected(self, sender_pair, other_pair):
        _, priv = sender_pair
        wrong_pub, _ = other_pair
        msg = b"cross key"
        assert not rsa.verify(wrong_pub, msg, rsa.sign(priv, msg))

    def test_verify_is_total(self, sender_pair):
        pub, priv = sender_pair
        k = pub.byte_length()
        msg = b"totality"
        assert not rsa.verify(pub, msg, pub.n.to_bytes(k, "big"))  # out of range
        assert not rsa.verify(pub, msg, b"\xff" * (k + 1))  # wider than k
        assert not rsa.verify(pub, msg, bytes(k))
        assert not rsa.verify(pub, msg, b"")
        # a leading zero byte does not change the integer, so it still verifies
        sig = rsa.sign(priv, msg)
        assert rsa.verify(pub, msg, b"\x00" + sig)
        assert rsa.verify(pub, msg, bytearray(sig))
        assert rsa.verify(pub, msg, memoryview(b"xx" + sig)[2:])

    def test_sign_needs_room_for_digest(self, textbook_priv):
        with pytest.raises(ValueError):
            rsa.sign(textbook_priv, b"too small")

    def test_signature_is_raw_digest_exponentiation(self, sender_pair):
        # dual route: check sig^e against an independently computed digest
        # with an independent modular exponentiation
        pub, priv = sender_pair
        msg = b"algebraic identity"
        sig = rsa.sign(priv, msg)
        sig_int = int.from_bytes(sig, "big")
        assert slow_pow(sig_int, pub.e, pub.n) == int.from_bytes(ref_sha256(msg), "big")

    def test_signed_digest_is_the_message_hash(self, sender_pair):
        pub, priv = sender_pair
        for msg in (b"", b"carried digest", bytes(range(256)) * 40):
            assert rsa.signed_digest(pub, rsa.sign(priv, msg)) == ref_sha256(msg)

    def test_signed_digest_is_total(self, sender_pair, other_pair):
        pub, priv = sender_pair
        wrong_pub, _ = other_pair
        k = pub.byte_length()
        assert rsa.signed_digest(pub, pub.n.to_bytes(k, "big")) is None
        assert rsa.signed_digest(pub, b"\xff" * (k + 1)) is None
        # 2^e mod n is far wider than a digest, so it carries none
        assert rsa.signed_digest(pub, (2).to_bytes(k, "big")) is None
        assert rsa.signed_digest(pub, bytes(k)) == bytes(32)
        assert rsa.signed_digest(pub, b"") == bytes(32)
        sig = rsa.sign(priv, b"x")
        assert rsa.signed_digest(pub, b"\x00" + sig) == ref_sha256(b"x")
        assert rsa.signed_digest(wrong_pub, sig) != ref_sha256(b"x")


@pytest.fixture(scope="module", params=[512, 1024, 2048])
def sized_pair(request):
    return rsa.keygen(request.param, random.Random(f"crt {request.param} 6"))


class TestPrivateCore:
    """The CRT private path against plain pow(x, d, n), and its fault check."""

    def test_sign_equals_plain_pow(self, sized_pair):
        pub, priv = sized_pair
        for msg in (b"", b"crt", bytes(range(256))):
            digest = int.from_bytes(rsa.sha256(msg), "big")
            expected = pow(digest, priv.d, priv.n).to_bytes(pub.byte_length(), "big")
            assert rsa.sign(priv, msg) == expected

    def test_decrypt_seed_equals_plain_pow(self, sized_pair):
        pub, priv = sized_pair
        rng = random.Random(33)
        for _ in range(5):
            seed = rng.randbytes(32)
            ct = rsa.encrypt_seed(pub, seed, rng)
            block = pow(int.from_bytes(ct, "big"), priv.d, priv.n).to_bytes(pub.byte_length(), "big")
            assert rsa.decrypt_seed(priv, ct) == block[-32:] == seed

    def test_toy_key_exhaustive(self, textbook_priv):
        priv = textbook_priv
        for x in range(priv.n):
            assert rsa._private(priv, x) == pow(x, priv.d, priv.n)

    def test_crt_parameters(self, recipient_pair):
        _, priv = recipient_pair
        dp, dq, q_inv = priv.crt
        assert dp == priv.d % (priv.p - 1) and dq == priv.d % (priv.q - 1)
        assert q_inv * priv.q % priv.p == 1

    @staticmethod
    def _corrupted(priv, index):
        bad = rsa.RsaPrivateKey(n=priv.n, e=priv.e, d=priv.d, p=priv.p, q=priv.q)
        crt = list(priv.crt)
        crt[index] ^= 2
        bad.__dict__["crt"] = tuple(crt)
        return bad

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["dp", "dq", "q_inv"])
    def test_corrupted_crt_parameter_releases_nothing(self, recipient_pair, index):
        pub, priv = recipient_pair
        bad = self._corrupted(priv, index)
        with pytest.raises(RsaFaultError):
            rsa.sign(bad, b"faulty")
        ct = rsa.encrypt_seed(pub, bytes(32), random.Random(34))
        with pytest.raises(DecapsulationError, match="^decapsulation failed$"):
            rsa.decrypt_seed(bad, ct)
        # the intact key still works on the same inputs
        assert rsa.decrypt_seed(priv, ct) == bytes(32)

    @pytest.mark.parametrize("half", ["p", "q"])
    def test_faulty_pow_releases_nothing(self, recipient_pair, monkeypatch, half):
        pub, priv = recipient_pair
        ct = rsa.encrypt_seed(pub, bytes(range(32)), random.Random(35))
        modulus = getattr(priv, half)
        calls = []

        def faulty_pow(base, exp, mod=None):
            result = pow(base, exp, mod)
            if mod == modulus:
                calls.append(mod)
                result ^= 1
            return result

        monkeypatch.setattr(rsa, "pow", faulty_pow, raising=False)
        with pytest.raises(RsaFaultError):
            rsa.sign(priv, b"faulty")
        with pytest.raises(DecapsulationError, match="^decapsulation failed$"):
            rsa.decrypt_seed(priv, ct)
        assert len(calls) == 2
        monkeypatch.undo()
        assert rsa.decrypt_seed(priv, ct) == bytes(range(32))


class TestV15Blocks:
    def test_round_trip_at_every_length(self, recipient_pair):
        pub, priv = recipient_pair
        rng = random.Random(36)
        for length in range(pub.byte_length() - 10):
            data = rng.randbytes(length)
            assert rsa.decrypt_v15(priv, rsa.encrypt_v15(pub, data, rng)) == data

    def test_oversized_data_rejected(self, recipient_pair):
        pub, _ = recipient_pair
        with pytest.raises(ValueError):
            rsa.encrypt_v15(pub, bytes(pub.byte_length() - 10))

    def test_seed_block_is_a_v15_block(self, recipient_pair):
        # encrypt_seed draws the same fill as encrypt_v15 from the same rng
        pub, _ = recipient_pair
        seed = bytes(range(32))
        assert rsa.encrypt_seed(pub, seed, random.Random(37)) == rsa.encrypt_v15(
            pub, seed, random.Random(37)
        )

    def test_other_payload_widths_are_not_seeds(self, recipient_pair):
        pub, priv = recipient_pair
        for length in (0, 31, 33):
            ct = rsa.encrypt_v15(pub, bytes(length), random.Random(38))
            assert rsa.decrypt_v15(priv, ct) == bytes(length)
            with pytest.raises(DecapsulationError, match="^decapsulation failed$"):
                rsa.decrypt_seed(priv, ct)


class TestKeyFiles:
    def test_round_trip_public(self, recipient_pair):
        pub, _ = recipient_pair
        assert rsa.parse_key(rsa.serialize_key(pub)) == pub

    def test_round_trip_private(self, recipient_pair):
        _, priv = recipient_pair
        assert rsa.parse_key(rsa.serialize_key(priv)) == priv

    def test_serialize_rejects_a_non_key(self):
        with pytest.raises(TypeError, match="not an RSA key: str"):
            rsa.serialize_key("x")

    def test_file_shape(self, recipient_pair):
        pub, priv = recipient_pair
        pub_lines = rsa.serialize_key(pub).decode().splitlines()
        assert pub_lines[0] == "hcirsa-v1" and pub_lines[1] == "public"
        assert len(pub_lines) == 4
        priv_lines = rsa.serialize_key(priv).decode().splitlines()
        assert priv_lines[1] == "private" and len(priv_lines) == 7

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"not-a-key\npublic\n3\n5\n",
            b"hcirsa-v1\npublic\nzz\n5\n",
            b"hcirsa-v1\npublic\n3\n",
            b"hcirsa-v1\nprivate\n3\n5\n",
            b"hcirsa-v1\nelliptic\n3\n5\n",
            b"\xff\xfe binary",
        ],
    )
    def test_malformed_files_rejected(self, data):
        with pytest.raises(KeyFileError):
            rsa.parse_key(data)

    @pytest.mark.parametrize(
        "field, change",
        [
            ("n", lambda k: k.n + 2),
            ("e", lambda k: k.e + 2),
            ("d", lambda k: k.d + 1),
            ("p", lambda k: k.p + 2),
            ("q", lambda k: k.q + 2),
        ],
        ids=["n", "e", "d", "p", "q"],
    )
    def test_inconsistent_private_field_rejected(self, recipient_pair, field, change):
        _, priv = recipient_pair
        fields = {name: getattr(priv, name) for name in "nedpq"}
        fields[field] = change(priv)
        with pytest.raises(KeyFileError):
            rsa.parse_key(rsa.serialize_key(rsa.RsaPrivateKey(**fields)))

    @pytest.mark.parametrize(
        "p, q",
        [(1, 3233), (3233, 1), (7, 7)],
        ids=["p is 1", "q is 1", "p equals q"],
    )
    def test_degenerate_factors_rejected(self, p, q):
        key = rsa.RsaPrivateKey(n=p * q, e=5, d=5, p=p, q=q)
        with pytest.raises(KeyFileError):
            rsa.parse_key(rsa.serialize_key(key))

    @pytest.mark.parametrize(
        "exponent",
        [lambda n: 0, lambda n: 1, lambda n: 2, lambda n: 4, lambda n: n, lambda n: n + 2],
        ids=["0", "1", "2", "4", "n", "n+2"],
    )
    def test_degenerate_public_exponent_rejected(self, recipient_pair, exponent):
        pub, _ = recipient_pair
        key = rsa.RsaPublicKey(n=pub.n, e=exponent(pub.n))
        with pytest.raises(KeyFileError, match="public exponent"):
            rsa.parse_key(rsa.serialize_key(key))

    def test_private_key_with_unit_exponents_rejected(self, recipient_pair):
        # e = d = 1 satisfies e*d = 1 mod lcm(p-1, q-1) but encrypts nothing
        _, priv = recipient_pair
        key = rsa.RsaPrivateKey(n=priv.n, e=1, d=1, p=priv.p, q=priv.q)
        with pytest.raises(KeyFileError, match="public exponent"):
            rsa.parse_key(rsa.serialize_key(key))

    def test_textbook_key_file_accepted(self, textbook_priv):
        assert rsa.parse_key(rsa.serialize_key(textbook_priv)) == textbook_priv

    def test_fingerprint_is_stable_and_distinct(self, recipient_pair, sender_pair):
        pub_a, _ = recipient_pair
        pub_b, _ = sender_pair
        assert rsa.fingerprint(pub_a) == rsa.fingerprint(pub_a)
        assert rsa.fingerprint(pub_a) != rsa.fingerprint(pub_b)
        assert len(rsa.fingerprint(pub_a)) == 32

    def test_fingerprint_matches_reference_hash(self, recipient_pair):
        pub, _ = recipient_pair
        assert rsa.fingerprint(pub) == ref_sha256(rsa.serialize_key(pub))

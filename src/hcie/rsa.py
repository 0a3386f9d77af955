"""Textbook RSA: key generation, seed encapsulation, digest-then-sign.

Deliberately educational-grade.  Encapsulation uses v1.5-style random
padding and signatures are raw modular exponentiation of a SHA-256 digest;
there is no OAEP, no PSS, and nothing here is constant time.  The hybrid
layer only ever pushes a 32-byte session seed and a digest through these
primitives.  Encapsulated seeds and signatures leave and enter this module
as modulus-width big-endian bytes; no other module converts them to integers.

Key generation draws primes at ``bits/2`` with 40 Miller-Rabin rounds.
The public exponent is always e = 65537, and a prime p = 1 (mod e) is
drawn again, so e is invertible mod the Carmichael function
lcm(p-1, q-1), which gives the private exponent.  Every private-key
operation goes through :func:`_private`, which works mod p and mod q
separately (CRT) and checks its result against the public exponent before
releasing it.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import secrets
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .errors import DecapsulationError, KeyFileError, RsaFaultError

MILLER_RABIN_ROUNDS = 40
PUBLIC_EXPONENT = 65537
#: Key sizes accepted without the insecure flag.
STANDARD_BITS = (512, 1024, 2048)
#: Smallest size the insecure test profile will generate.
MIN_INSECURE_BITS = 32

_KEYFILE_MAGIC = "hcirsa-v1"

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
                 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
                 227, 229, 233, 239, 241, 251]


def sha256(data: bytes) -> bytes:
    """SHA-256 digest (32 bytes) of a byte string."""
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class RsaPublicKey:
    n: int
    e: int

    def byte_length(self) -> int:
        """Length of the modulus in bytes; every ciphertext and signature
        under this key is encoded at exactly this width."""
        return (self.n.bit_length() + 7) // 8


@dataclass(frozen=True)
class RsaPrivateKey:
    n: int
    e: int
    d: int
    p: int
    q: int

    byte_length = RsaPublicKey.byte_length

    def public(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)

    @functools.cached_property
    def crt(self) -> Tuple[int, int, int]:
        """(d mod p-1, d mod q-1, q^-1 mod p), derived on first use."""
        return self.d % (self.p - 1), self.d % (self.q - 1), pow(self.q, -1, self.p)


def is_probable_prime(n: int, rng: Optional[random.Random] = None) -> bool:
    """Miller-Rabin primality test with MILLER_RABIN_ROUNDS random bases.

    Each round catches a composite with probability >= 3/4, so 40 rounds
    leave a false-prime chance below 2^-80.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = rng or secrets.SystemRandom()
    for _ in range(MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: Optional[random.Random]) -> int:
    # Top two bits set so the product of two such primes has exactly
    # 2*bits bits; low bit set for oddness.  The prime e divides p-1 only
    # if p = 1 (mod e), so skipping those primes keeps gcd(e, p-1) = 1.
    rng = rng or secrets.SystemRandom()
    while True:
        cand = rng.getrandbits(bits)
        cand |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_probable_prime(cand, rng=rng) and cand % PUBLIC_EXPONENT != 1:
            return cand


def keygen(
    bits: int, rng: Optional[random.Random] = None, insecure: bool = False
) -> Tuple[RsaPublicKey, RsaPrivateKey]:
    """Generate a matched RSA key pair with an n of exactly ``bits`` bits.

    ``bits`` must be one of 512/1024/2048 unless ``insecure`` is set, in
    which case anything >= 32 (and even) is allowed so tests can brute-force
    tiny keys.  Pass a seeded ``random.Random`` for reproducible pairs;
    the default draws from the OS.
    """
    if insecure:
        if bits < MIN_INSECURE_BITS or bits % 2 != 0:
            raise ValueError(f"insecure keygen needs an even bit count >= {MIN_INSECURE_BITS}")
    elif bits not in STANDARD_BITS:
        raise ValueError(
            f"key size must be one of {STANDARD_BITS} (or pass insecure=True)"
        )
    p = _random_prime(bits // 2, rng)
    while True:
        q = _random_prime(bits // 2, rng)
        if q != p:
            break
    if q > p:
        p, q = q, p
    n = p * q
    e = PUBLIC_EXPONENT
    d = pow(e, -1, math.lcm(p - 1, q - 1))
    return RsaPublicKey(n, e), RsaPrivateKey(n=n, e=e, d=d, p=p, q=q)


def _nonzero_bytes(count: int, rng: Optional[random.Random]) -> bytes:
    rng = rng or secrets.SystemRandom()
    out = bytearray()
    while len(out) < count:
        out += rng.randbytes(count - len(out)).replace(b"\x00", b"")
    return bytes(out)


def _private(priv: RsaPrivateKey, x: int) -> int:
    """x^d mod n for 0 <= x < n, the one private-exponent path.

    Computes x^d mod p and x^d mod q with the reduced exponents and joins
    them with Garner's recombination (Quisquater-Couvreur).  A fault in
    either half would make the result leak a factor of n (Boneh-DeMillo-
    Lipton), so m^e mod n is compared with x first and a mismatch raises
    :class:`RsaFaultError` instead of returning m.
    """
    dp, dq, q_inv = priv.crt
    m1 = pow(x, dp, priv.p)
    m2 = pow(x, dq, priv.q)
    m = m2 + (q_inv * (m1 - m2) % priv.p) * priv.q
    if pow(m, priv.e, priv.n) != x:
        raise RsaFaultError("private-key operation failed its consistency check")
    return m


#: Bytes of a v1.5 block that are not data: ``00 02``, a fill of at least
#: 8 nonzero bytes and the ``00`` separator.
V15_OVERHEAD = 11


def encrypt_v15(
    pub: RsaPublicKey, data: bytes, rng: Optional[random.Random] = None
) -> bytes:
    """Encrypt ``data`` in one v1.5-style block.

    Builds ``00 02 <random nonzero fill> 00 <data>`` at exactly modulus
    width, then returns (block^e mod n) as fixed-width big-endian bytes.
    ``data`` may be up to k - :data:`V15_OVERHEAD` bytes.
    """
    k = pub.byte_length()
    if len(data) > k - V15_OVERHEAD:
        raise ValueError(f"{len(data)} bytes do not fit a {k}-byte v1.5 block")
    fill = _nonzero_bytes(k - 3 - len(data), rng)
    x = int.from_bytes(b"\x00\x02" + fill + b"\x00" + data, "big")
    return pow(x, pub.e, pub.n).to_bytes(k, "big")


def decrypt_v15(priv: RsaPrivateKey, ct: bytes) -> bytes:
    """Inverse of :func:`encrypt_v15`; the fill must be at least 8 nonzero
    bytes.  Every failure, a failed private-key check included, raises the
    same :class:`DecapsulationError`."""
    k = priv.byte_length()
    x = int.from_bytes(ct, "big")
    block = b""
    if len(ct) == k and x < priv.n:
        try:
            block = _private(priv, x).to_bytes(k, "big")
        except RsaFaultError:
            pass
    sep = block.find(b"\x00", 2)
    if block[:2] != b"\x00\x02" or sep < V15_OVERHEAD - 1:
        raise DecapsulationError("decapsulation failed")
    return block[sep + 1 :]


def encrypt_seed(
    pub: RsaPublicKey, seed: bytes, rng: Optional[random.Random] = None
) -> bytes:
    """Encapsulate a 32-byte session seed under a public key in one
    :func:`encrypt_v15` block.  The random fill makes repeated
    encapsulations of one seed differ."""
    if len(seed) != 32:
        raise ValueError(f"seed must be exactly 32 bytes, got {len(seed)}")
    k = pub.byte_length()
    if k < 64:
        raise ValueError(f"modulus too small to encapsulate a seed: {k} bytes, need >= 64")
    return encrypt_v15(pub, seed, rng)


def decrypt_seed(priv: RsaPrivateKey, ct: bytes) -> bytes:
    """Recover a session seed; any malformation raises the same uniform
    :class:`DecapsulationError` so nothing about the failure leaks."""
    seed = decrypt_v15(priv, ct)
    if len(seed) != 32:
        raise DecapsulationError("decapsulation failed")
    return seed


def sign(priv: RsaPrivateKey, message: bytes) -> bytes:
    """Sign a message: the SHA-256 digest, big-endian, raised to d mod n,
    returned as exactly ``priv.byte_length()`` big-endian bytes.

    Raises :class:`RsaFaultError`, and releases no signature, if the
    private-key operation fails its check.
    """
    if priv.n <= (1 << 256):
        raise ValueError("modulus too small to sign a 256-bit digest")
    digest = int.from_bytes(sha256(message), "big")
    return _private(priv, digest).to_bytes(priv.byte_length(), "big")


def signed_digest(pub: RsaPublicKey, sig: bytes) -> Optional[bytes]:
    """The 32-byte digest a signature carries, sig^e mod n, or None if it
    carries none.  Once :func:`verify` has accepted ``sig`` for a message,
    this is that message's SHA-256, for one public operation.  ``sig`` is
    any bytes-like value read as a big-endian integer; one that is not
    below n carries no digest."""
    value = int.from_bytes(sig, "big")
    if value >= pub.n:
        return None
    digest = pow(value, pub.e, pub.n)
    return digest.to_bytes(32, "big") if digest < 1 << 256 else None


def verify(pub: RsaPublicKey, message: bytes, sig: bytes) -> bool:
    """True iff sig^e mod n equals the message digest.  Total over any
    bytes-like ``sig``: malformed signatures return False, never raise."""
    digest = signed_digest(pub, sig)
    return digest is not None and digest == sha256(message)


def serialize_key(key: Union[RsaPublicKey, RsaPrivateKey]) -> bytes:
    """Textual key file: magic, role, then hex fields one per line."""
    if isinstance(key, RsaPrivateKey):
        lines = [_KEYFILE_MAGIC, "private", f"{key.n:x}", f"{key.e:x}",
                 f"{key.d:x}", f"{key.p:x}", f"{key.q:x}"]
    elif isinstance(key, RsaPublicKey):
        lines = [_KEYFILE_MAGIC, "public", f"{key.n:x}", f"{key.e:x}"]
    else:
        raise TypeError(f"not an RSA key: {type(key).__name__}")
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_key(data: bytes) -> Union[RsaPublicKey, RsaPrivateKey]:
    """Inverse of :func:`serialize_key`; raises :class:`KeyFileError` on
    anything malformed."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise KeyFileError("key file is not ASCII text") from exc
    lines = text.splitlines()
    if len(lines) < 2 or lines[0] != _KEYFILE_MAGIC:
        raise KeyFileError("bad key file magic")
    role = lines[1]
    fields = lines[2:]
    try:
        values = [int(f, 16) for f in fields]
    except ValueError as exc:
        raise KeyFileError("bad hex field in key file") from exc
    count = {"public": 2, "private": 5}.get(role)
    if count is None:
        raise KeyFileError(f"unknown key role {role!r}")
    if len(values) != count:
        raise KeyFileError(f"{role} key file needs {count} fields, got {len(values)}")
    n, e = values[:2]
    # e = 1 makes every digest its own signature; even e has no inverse
    if e < 3 or e % 2 == 0 or e >= n:
        raise KeyFileError("public exponent must be odd with 3 <= e < n")
    if role == "public":
        return RsaPublicKey(n=n, e=e)
    d, p, q = values[2:]
    # the CRT path computes with p and q, so they must match n and d
    if p < 2 or q < 2 or p == q or p * q != n:
        raise KeyFileError("private key p and q are not two distinct factors of n")
    if e * d % math.lcm(p - 1, q - 1) != 1:
        raise KeyFileError("private key d does not invert e mod lcm(p-1, q-1)")
    return RsaPrivateKey(n=n, e=e, d=d, p=p, q=q)


def fingerprint(pub: RsaPublicKey) -> bytes:
    """SHA-256 of the canonical public key file bytes; identifies a sender."""
    return sha256(serialize_key(pub))

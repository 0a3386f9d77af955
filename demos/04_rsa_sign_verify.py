"""
Textbook RSA: seed transport and digest signatures
==================================================

The asymmetric half does two jobs: carry the 32-byte session seed to the
recipient (v1.5-style randomized padding, fixed-width blocks) and sign the
plaintext's SHA-256 digest with the sender's private key.  Keys here are
512-bit for speed; real deployments in this package default to 1024+.
"""

import random

from hcie import hill, rsa
from hcie.errors import DecapsulationError

rng = random.Random(2024)

# --- key generation ----------------------------------------------------------
pub, priv = rsa.keygen(512, rng)
print("n bits:", pub.n.bit_length(), " e:", pub.e)
print("p and q are Miller-Rabin primes; d inverts e mod lcm(p-1, q-1)")

# --- seed encapsulation ------------------------------------------------------
seed = hill.random_seed(rng)
ct1 = rsa.encrypt_seed(pub, seed, rng)
ct2 = rsa.encrypt_seed(pub, seed, rng)
print("\nseed:", seed.hex()[:32], "...")
print("ciphertext width == modulus width:", len(ct1) == pub.byte_length())
print("same seed encrypts differently (random fill):", ct1 != ct2)
assert rsa.decrypt_seed(priv, ct1) == seed
assert rsa.decrypt_seed(priv, ct2) == seed
print("both decapsulate to the original seed")

# Tampered ciphertexts fail with one uniform error, leaking nothing about
# where the check tripped.
mangled = bytearray(ct1)
mangled[10] ^= 0xFF
try:
    rsa.decrypt_seed(priv, bytes(mangled))
except DecapsulationError as exc:
    print("tampered ciphertext ->", exc)

# --- signatures over digests -------------------------------------------------
message = b"wire me fifty dollars, love alice"
signature = rsa.sign(priv, message)
print("\nsignature width == modulus width:", len(signature) == pub.byte_length())
print("verify(original):", rsa.verify(pub, message, signature))
print("verify(tampered):", rsa.verify(pub, message.replace(b"fifty", b"9,999"), signature))

# The signature is the digest raised to d, written as k big-endian bytes;
# anyone can check it with e:
sig_int = int.from_bytes(signature, "big")
digest = int.from_bytes(rsa.sha256(message), "big")
print("sig^e mod n == sha256(message):", pow(sig_int, pub.e, pub.n) == digest)

# --- key files and fingerprints ----------------------------------------------
blob = rsa.serialize_key(pub)
print("\nkey file:")
for line in blob.decode().splitlines()[:2]:
    print("   ", line)
print("    <n hex> / <e hex>")
print("fingerprint:", rsa.fingerprint(pub).hex()[:32], "... (sha256 of that file)")
assert rsa.parse_key(blob) == pub

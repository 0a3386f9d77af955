"""
Sealed envelopes: the hybrid construction end to end
====================================================

seal() is the whole mixed system in one call: draw a fresh seed, Hill-
encrypt the payload, encapsulate the seed under the recipient's RSA key,
sign the plaintext with the sender's RSA key, and stamp the sender's
fingerprint on the header.  open_envelope() undoes it and refuses to
return anything unless every check passes.
"""

import dataclasses
import random

from hcie import envelope, rsa
from hcie.errors import HcieError, SignatureError

rng = random.Random(555)
bob_pub, bob_priv = rsa.keygen(512, rng)        # recipient
alice_pub, alice_priv = rsa.keygen(512, rng)    # sender
eve_pub, eve_priv = rsa.keygen(512, rng)        # neither

payload = b"the design review moved to thursday 1400"
env = envelope.seal(payload, bob_pub, alice_priv, alice_pub, rng)
print("sealed", len(payload), "plaintext bytes")
print("  dim_log2:", env.dim_log2, "-> 16-byte blocks")
print("  encapsulated seed:", len(env.encapsulated_seed), "bytes")
print("  signature:", len(env.signature), "bytes")
print("  ciphertext:", len(env.ciphertext), "bytes")
print("  sender fingerprint:", env.sender_fingerprint.hex()[:24], "...")

# --- the byte format ---------------------------------------------------------
blob = envelope.serialize(env)
print("\nserialized:", len(blob), "bytes, magic =", bytes(blob[:4]), " version =", blob[4])
assert envelope.parse(blob) == env
print("parse(serialize(env)) round-trips field-for-field")

# --- opening -----------------------------------------------------------------
out = envelope.open_envelope(env, bob_priv, alice_pub)
assert out == payload
print("\nBob opens with his private key + Alice's public key:", out)

# Wrong sender key: the ciphertext decrypts fine (the seed was for Bob),
# but the signature cannot verify against Eve's key.
try:
    envelope.open_envelope(env, bob_priv, eve_pub)
except SignatureError as exc:
    print("opening against Eve's key:", exc)

# Any single flipped ciphertext byte makes opening fail closed, with no
# partial output.  Which check trips depends on where the flip lands: a
# corrupted final block usually dies at padding validation, anywhere else
# survives to the signature check and dies there.
tampered = dataclasses.replace(
    env, ciphertext=bytes(env.ciphertext[:-1]) + bytes([env.ciphertext[-1] ^ 1])
)
try:
    envelope.open_envelope(tampered, bob_priv, alice_pub)
except HcieError as exc:
    print("one flipped ciphertext byte:", type(exc).__name__, "-", exc)

# Fresh randomness per seal: same payload, different envelope every time.
env2 = envelope.seal(payload, bob_pub, alice_priv, alice_pub, rng)
print("\nsame payload sealed twice -> same ciphertext?", env.ciphertext == env2.ciphertext)

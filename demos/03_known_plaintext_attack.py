"""
Breaking the Hill cipher with known plaintext
=============================================

The cipher is linear: ciphertext = K * plaintext mod 256.  Anyone holding n
plaintext/ciphertext block pairs whose plaintexts are linearly independent
can solve for the n x n key exactly — the tensor construction changes
nothing, because the product of matrices is still a matrix.  This is why
the hybrid scheme rotates to a fresh seed for every envelope.  A fresh seed
is not enough when the message starts with text the attacker can guess:
the second half breaks a sealed envelope from its known header, and the
envelope's own signature confirms the result.
"""

import random

from hcie import envelope, hill, rsa
from hcie.errors import InsufficientPlaintextError
from hcie.ring import BYTE_RING, Block

rng = random.Random(99)

# The victim derives a 4x4 key from a secret seed.
secret_seed = hill.random_seed(rng)
victim_key = hill.derive_key(secret_seed, dim_log2=2)
print("victim key (kept secret):")
for row in victim_key.forward.rows:
    print("   ", row)

# The attacker observes 8 plaintext/ciphertext block pairs.
pairs = []
for _ in range(8):
    p = Block.from_entries([rng.randrange(256) for _ in range(4)], BYTE_RING)
    pairs.append((p, hill.encrypt_block(victim_key, p)))
print("\nattacker has", len(pairs), "known (plaintext, ciphertext) pairs")

# Solve K = C * P^-1 using any 4 pairs with independent plaintexts.
recovered = hill.recover_key_known_plaintext(pairs, BYTE_RING)
print("recovered key:")
for row in recovered.rows:
    print("   ", row)
assert recovered == victim_key.forward
print("exact match with the secret key:", recovered == victim_key.forward)

# With the key, every other message under this seed falls.
other_ct = hill.encrypt_stream(victim_key, b"second message, same session key")
stolen = hill.decrypt_stream(hill.HillKey.from_matrix(recovered), other_ct)
print("\ndecrypting another intercept with the recovered key:", stolen)

# The attack needs independent plaintexts; identical blocks tell it nothing.
same = Block.from_entries([1, 2, 3, 4], BYTE_RING)
try:
    hill.recover_key_known_plaintext(
        [(same, hill.encrypt_block(victim_key, same))] * 8, BYTE_RING
    )
except InsufficientPlaintextError as exc:
    print("\nall-equal plaintexts are correctly refused:", exc)

# --- a sealed envelope falls to its known header ----------------------------
bob_pub, bob_priv = rsa.keygen(512, rng)        # recipient
alice_pub, alice_priv = rsa.keygen(512, rng)    # sender
header = b"From: alice@example.org\nSubj: Q3"   # 32 bytes: 8 blocks of 4
message = header + b"\n\nrevenue is down; hold the announcement until the call."
env = envelope.seal(message, bob_pub, alice_priv, alice_pub, rng, dim_log2=2)
print("\nsealed a", len(message), "byte message at dim 4; its header is guessable")

# The attacker pairs the header's 8 blocks with the first 32 ciphertext
# bytes; 4 of them have independent plaintexts, which fixes the key.
ct = bytes(env.ciphertext)
header_pairs = [
    tuple(Block.from_entries(data[i : i + 4], BYTE_RING) for data in (header, ct))
    for i in range(0, len(header), 4)
]
key = hill.recover_key_known_plaintext(header_pairs, BYTE_RING)
recovered_message = hill.decrypt_stream(hill.HillKey.from_matrix(key), ct)
print("decrypted with the rebuilt key:", bytes(recovered_message))

# The signature is raw RSA over SHA-256(plaintext), so the sender's public
# key alone reads the digest back and confirms the guess.
assert rsa.sha256(recovered_message) == rsa.signed_digest(alice_pub, env.signature)
print("SHA-256 matches the digest in the signature: the key is confirmed")

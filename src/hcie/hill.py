"""Hill block cipher over Z_256 with tensor-product key construction.

The symmetric half of the hybrid system.  A key is an invertible n x n
matrix K over the byte ring; a plaintext block is a column vector of n bytes
and its ciphertext is K * block mod 256.  Large keys are never random n x n
draws: they are built as the Kronecker product of s seed-derived invertible
2 x 2 matrices, so n = 2^s and invertibility is inherited factor by factor.

The cipher is linear, which is the point of
:func:`recover_key_known_plaintext`: n plaintext/ciphertext pairs with
independent plaintexts give the key back exactly.  See the threat model
document before using this for anything but study.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import secrets
from dataclasses import dataclass
from functools import cached_property, reduce as _reduce
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DimensionError,
    InconsistentPairsError,
    InsufficientPlaintextError,
    NotInvertibleError,
    PaddingError,
)
from .ring import (
    BYTE_RING,
    Block,
    RingMatrix,
    RingParams,
    independent_mod2,
    invert,
    is_invertible,
    kronecker,
    mat_mul,
    mat_vec,
)

#: Session seeds are exactly this many bytes.
SEED_LEN = 32

#: Tensor height bounds: keys go from 2x2 (s=1) up to 64x64 (s=6).
MIN_DIM_LOG2 = 1
MAX_DIM_LOG2 = 6
#: Seals default to the 16x16 key (s=4).
DEFAULT_DIM_LOG2 = 4

#: Bytes of blocks the stream kernel works on at a time.  A chunk's uint16
#: lane planes and its rows of the output, which are the scratch of the
#: l-shear and every multiply-add, 2 chunks in all, stay in the L2 cache while
#: every factor runs.
CHUNK_BYTES = 1 << 18


def _product(factors: Sequence[RingMatrix]) -> RingMatrix:
    """F_1 (x) F_2 (x) ... (x) F_k over Z_256."""
    return _reduce(lambda x, y: kronecker(x, y, BYTE_RING), factors)


@dataclass(frozen=True)
class HillKey:
    """An invertible key K = F_1 (x) F_2 (x) ... (x) F_k over Z_256.

    ``factors`` holds the Kronecker factors in product order: the 2x2
    matrices of a derived key, or the one n x n matrix of an ad-hoc key.
    The dense ``forward`` and ``inverse`` matrices are built on first use
    and cached; the stream functions never need them.
    """

    factors: Tuple[RingMatrix, ...]

    @property
    def dim(self) -> int:
        return math.prod(f.dim for f in self.factors)

    @cached_property
    def forward(self) -> RingMatrix:
        return _product(self.factors)

    @cached_property
    def inverse(self) -> RingMatrix:
        """K^-1 = F_1^-1 (x) ... (x) F_k^-1."""
        return _product(self.inverse_factors)

    @cached_property
    def inverse_factors(self) -> Tuple[RingMatrix, ...]:
        """F_1^-1 .. F_k^-1, which :func:`decrypt_stream` applies."""
        return tuple(invert(f, BYTE_RING) for f in self.factors)

    @classmethod
    def from_matrix(cls, forward: RingMatrix) -> "HillKey":
        """Wrap an explicit matrix as a one-factor key (raises if singular)."""
        if not is_invertible(forward):
            raise NotInvertibleError("matrix not a unit mod 2^8")
        return cls(factors=(forward,))


def derive_key(seed: bytes, dim_log2: int) -> HillKey:
    """Deterministically expand a 32-byte seed into a 2^s x 2^s Hill key.

    The keystream is SHA-256(seed || counter) for a big-endian u32 counter
    from 0, consumed strictly left to right so any implementation of the
    derivation agrees byte for byte.  It is read four bytes at a time as a
    candidate [[a, b], [c, d]] over Z_256 (a digest holds exactly eight);
    candidates with an even determinant are skipped.  The first s accepted
    candidates A_1 .. A_s form the key K = A_1 (x) A_2 (x) ... (x) A_s,
    which is invertible because every factor is, with
    (A (x) B)^-1 = A^-1 (x) B^-1.
    """
    if len(seed) != SEED_LEN:
        raise ValueError(f"seed must be exactly {SEED_LEN} bytes, got {len(seed)}")
    if not MIN_DIM_LOG2 <= dim_log2 <= MAX_DIM_LOG2:
        raise ValueError(
            f"dim_log2 must be in [{MIN_DIM_LOG2}, {MAX_DIM_LOG2}], got {dim_log2}"
        )
    factors = []
    for counter in itertools.count():
        block = hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        for i in range(0, len(block), 4):
            a, b, c, d = block[i : i + 4]
            if (a * d - b * c) & 1:
                factors.append(RingMatrix(((a, b), (c, d))))
                if len(factors) == dim_log2:
                    return HillKey(factors=tuple(factors))


def random_seed(rng: Optional[random.Random] = None) -> bytes:
    """Fresh 32-byte session seed, from ``secrets`` unless an rng is given."""
    return (rng or secrets.SystemRandom()).randbytes(SEED_LEN)


def encrypt_block(key: HillKey, m: Block) -> Block:
    """C = K * M mod 256 for a single block."""
    return mat_vec(key.forward, m, BYTE_RING)


def decrypt_block(key: HillKey, c: Block) -> Block:
    """M = K^-1 * C mod 256 for a single block."""
    return mat_vec(key.inverse, c, BYTE_RING)


def pad(data: bytes, block_len: int) -> bytes:
    """PKCS#7-style padding: append k bytes of value k, k in [1, block_len].

    A full padding block is added when the input length is already a
    multiple, so the output length is always a strictly larger multiple of
    ``block_len``.
    """
    if not 1 <= block_len <= 255:
        raise ValueError(f"block length must be in [1, 255], got {block_len}")
    k = block_len - (len(data) % block_len)
    return b"".join((data, bytes([k]) * k))


def unpad(data: bytes, block_len: int) -> bytes:
    """Strip and validate padding produced by :func:`pad`."""
    if not 1 <= block_len <= 255:
        raise ValueError(f"block length must be in [1, 255], got {block_len}")
    if len(data) == 0 or len(data) % block_len != 0:
        raise PaddingError("invalid padding: length not a positive multiple of block length")
    k = data[-1]
    if not 1 <= k <= block_len or data[-k:] != bytes([k]) * k:
        raise PaddingError("invalid padding")
    return data[:-k]


def _shears(f: RingMatrix) -> Tuple[int, int, int, int, int]:
    """Split a 2x2 factor [[a, b], [c, d]], with its columns swapped when b
    is odd, as p * [[1, 0], [l, e]] * [[1, u], [0, 1]].

    The columns are swapped only to get an odd pivot: when b is even, a is
    odd, since the determinant is.  The swap saves no work, as the kernel's
    copy-in sets each lane's byte order at no cost.  With the factor
    [[p, q], [r, t]] in that column order, u = q/p, l = r/p and
    e = (p t - q r)/p^2.  Returns p, whether the columns are swapped (1 or
    0), u, l and e.
    """
    (a, b), (c, d) = f.rows
    swapped = b & 1
    p, q, r, t = (b, a, d, c) if swapped else (a, b, c, d)
    inv = BYTE_RING.inv(p)
    return p, swapped, q * inv & 0xFF, r * inv & 0xFF, (p * t - q * r) * inv * inv & 0xFF


def _apply(factors: Sequence[RingMatrix], blocks: np.ndarray, out: np.ndarray) -> None:
    """out[r] = K * row r of ``blocks`` for K the Kronecker product of
    ``factors``; rows of ``out`` past the end of ``blocks`` are transformed
    in place.

    A key with a factor that is not 2 x 2 (an ad-hoc key) takes one uint8
    matmul by the dense K.  Otherwise K is applied factor by factor and
    never built: by (A (x) B) vec(X) = vec(B X A^T), factor t acts on one
    digit of the byte position.  Each chunk is transposed into lane planes
    of uint16 words: lane k of a block is the word w of its bytes at
    positions 2k and 2k + 1, which differ only in the last digit.  The
    copy-in reads w big-endian, or little-endian when the last factor's
    columns are swapped, so the pivot byte of every lane lands high.

    Every factor, written as p * [[1, 0], [l, e]] * [[1, u], [0, 1]] by
    :func:`_shears`, is applied in place over p.  The last one mixes inside
    the lanes: multiplying w by 1 + 256k adds k times its low byte to its
    high byte and never carries into the low byte, so w <- w (1 + 256u)
    leaves the pivot byte z0 high and the other byte v low, and
    w <- (w >> 8)(1 + 256l) + 256e w puts z0 low and l z0 + e v high.  Every
    other factor takes two multiply-adds on the uint8 halves of the planes,
    viewed as (outer, 2, inner): the pivot half gains u times the other,
    then the other becomes e times itself plus l times the pivot half.  With
    swapped columns the two halves end exchanged, which no later factor
    sees, since each acts on its own digit; so the copy-back reads lane k
    from plane k XOR ``flip``.  The product s of all pivots is a scalar, and
    K (s x) = s (K x), so each chunk is multiplied by s as it is copied into
    its rows of ``out``, before any factor runs.

    uint8 ufuncs wrap on overflow, which is exactly arithmetic in Z_256.
    The chunk's rows of ``out`` are the scratch of the l-shear and, in
    their first half, of the multiply-adds, until the copy-back
    overwrites them, so the kernel allocates one chunk: the planes.
    """
    total, n = out.shape
    if any(f.dim != 2 for f in factors):
        dense = np.array(_product(factors).rows, dtype=np.uint8).T
        np.matmul(blocks, dense, out=out[: len(blocks)])
        out[len(blocks) :] @= dense
        return
    *planar, (pivot, swapped, u, l, e) = map(_shears, factors)
    scale = math.prod(p for p, *_ in planar) * pivot & 0xFF
    lanes = n // 2
    step = CHUNK_BYTES // n
    own = np.empty(min(step, total) * n, dtype=np.uint8)
    for lo in range(0, total, step):
        chunk, body = out[lo : lo + step], blocks[lo : lo + step]
        np.multiply(body, scale, out=chunk[: len(body)])
        chunk[len(body) :] *= scale
        rows = chunk.view("<u2")
        planes = own[: chunk.nbytes].view("<u2").reshape(lanes, -1)
        np.copyto(planes, chunk.view("<u2" if swapped else ">u2").T)
        planes *= 1 + 256 * u
        spare = rows.reshape(planes.shape)
        np.right_shift(planes, 8, out=spare)
        spare *= 1 + 256 * l
        planes *= 256 * e
        planes += spare
        outer, flip = 1, 0
        for _, swapped_t, u_t, l_t, e_t in planar:
            x = planes.view(np.uint8).reshape(outer, 2, -1)
            pivots, other = x[:, swapped_t], x[:, 1 - swapped_t]
            t = chunk.reshape(2, outer, -1)[0]
            np.multiply(other, u_t, out=t)
            pivots += t
            other *= e_t
            np.multiply(pivots, l_t, out=t)
            other += t
            outer *= 2
            flip |= swapped_t * lanes // outer
        # one plane at a time: at n = 16 (8 lanes) this was 1.3-2x faster
        # than copying the whole transpose, whose inner loop is one block long
        for k in range(lanes):
            rows[:, k] = planes[k ^ flip]


def encrypt_stream(key: HillKey, plaintext: bytes, headroom: int = 0) -> bytearray:
    """Pad and encrypt a byte string block by block (ECB over blocks).

    Bytes map to ring elements by identity and block position i is vector
    row i.  The whole blocks are read in place; the last, padded block is
    written into the last row of the returned buffer and encrypted there.
    The kernel writes straight into that buffer, behind its first
    ``headroom`` bytes, which are left zero for the caller
    (:func:`~hcie.envelope.seal` packs the envelope header there).
    """
    n = key.dim
    full = len(plaintext) // n
    body = np.frombuffer(plaintext, dtype=np.uint8, count=full * n).reshape(full, n)
    buf = bytearray(headroom + (full + 1) * n)
    buf[-n:] = pad(plaintext[full * n :], n)
    out = np.frombuffer(buf, dtype=np.uint8, offset=headroom).reshape(-1, n)
    _apply(key.factors, body, out)
    return buf


def decrypt_stream(key: HillKey, ciphertext: bytes) -> bytearray:
    """Invert :func:`encrypt_stream` on any bytes-like ``ciphertext``, read in
    place: per-block decrypt into the returned buffer, then unpad."""
    n = key.dim
    if len(ciphertext) == 0 or len(ciphertext) % n != 0:
        raise DimensionError(
            f"ciphertext length {len(ciphertext)} is not a positive multiple of {n}"
        )
    blocks = np.frombuffer(ciphertext, dtype=np.uint8).reshape(-1, n)
    buf = bytearray(len(ciphertext))
    out = np.frombuffer(buf, dtype=np.uint8).reshape(-1, n)
    _apply(key.inverse_factors, blocks, out)
    del out  # a bytearray with an exported buffer cannot be resized
    last = unpad(buf[-n:], n)
    del buf[len(buf) - n + len(last) :]
    return buf


def recover_key_known_plaintext(
    pairs: Sequence[Tuple[Block, Block]], ring: RingParams
) -> RingMatrix:
    """Recover the key matrix from known (plaintext, ciphertext) block pairs.

    Takes the pairs whose plaintexts :func:`~hcie.ring.independent_mod2`
    keeps (a set of columns is invertible mod 2^m iff it is independent
    mod 2); with n of them it solves K = C * P^-1, then checks K against
    every supplied pair.

    Raises :class:`InsufficientPlaintextError` when no invertible plaintext
    matrix can be selected, and :class:`InconsistentPairsError` when the
    pairs are not all explained by one linear key.
    """
    if not pairs:
        raise InsufficientPlaintextError("insufficient independent plaintext")
    n = pairs[0][0].dim
    for pt, ct in pairs:
        if pt.dim != n or ct.dim != n:
            raise DimensionError("all pairs must share the key dimension")

    chosen = [pairs[i] for i in independent_mod2(pt.entries for pt, _ in pairs)]
    if len(chosen) < n:
        raise InsufficientPlaintextError("insufficient independent plaintext")

    p_cols = RingMatrix(tuple(tuple(pt.entries[i] for pt, _ in chosen) for i in range(n)))
    c_cols = RingMatrix(tuple(tuple(ct.entries[i] for _, ct in chosen) for i in range(n)))
    key = mat_mul(c_cols, invert(p_cols, ring), ring)
    for pt, ct in pairs:
        if mat_vec(key, pt, ring) != ct:
            raise InconsistentPairsError(
                "pairs are not consistent with a single linear key"
            )
    return key

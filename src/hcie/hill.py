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

#: Bytes of blocks the stream kernel works on at a time.  A chunk's byte
#: planes, its rows of the output (the second plane buffer) and the scratch
#: plane, 2.5 chunks in all, stay in the L2 cache while every factor runs.
CHUNK_BYTES = 1 << 18


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
        return _reduce(lambda x, y: kronecker(x, y, BYTE_RING), self.factors)

    @cached_property
    def inverse(self) -> RingMatrix:
        """K^-1 = F_1^-1 (x) ... (x) F_k^-1."""
        return _reduce(lambda x, y: kronecker(x, y, BYTE_RING), self.inverse_factors)

    @cached_property
    def inverse_factors(self) -> Tuple[RingMatrix, ...]:
        """F_1^-1 .. F_k^-1, which :func:`decrypt_stream` applies."""
        return tuple(invert(f, BYTE_RING) for f in self.factors)

    @classmethod
    def from_matrix(cls, forward: RingMatrix) -> "HillKey":
        """Wrap an explicit matrix as a one-factor key (raises if singular)."""
        if not is_invertible(forward, BYTE_RING):
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
    return data + bytes([k]) * k


def unpad(data: bytes, block_len: int) -> bytes:
    """Strip and validate padding produced by :func:`pad`."""
    if not 1 <= block_len <= 255:
        raise ValueError(f"block length must be in [1, 255], got {block_len}")
    if len(data) == 0 or len(data) % block_len != 0:
        raise PaddingError("invalid padding: length not a positive multiple of block length")
    k = data[-1]
    if not 1 <= k <= block_len:
        raise PaddingError("invalid padding")
    if data[-k:] != bytes([k]) * k:
        raise PaddingError("invalid padding")
    return data[:-k]


def _mix(f: RingMatrix, x: np.ndarray, y: np.ndarray, tmp: np.ndarray) -> None:
    """y[:, i] = sum_j f[i][j] * x[:, j] for (outer, m, inner) plane views.

    uint8 ufuncs wrap on overflow, which is exactly arithmetic in Z_256.
    """
    planes = [x[:, j] for j in range(f.dim)]
    for i, row in enumerate(f.rows):
        out = y[:, i]
        np.multiply(planes[0], row[0], out=out)
        for plane, coef in zip(planes[1:], row[1:]):
            if coef:
                np.multiply(plane, coef, out=tmp)
                np.add(out, tmp, out=out)


def _apply(
    factors: Sequence[RingMatrix],
    blocks: np.ndarray,
    out: np.ndarray,
    tail: Optional[np.ndarray] = None,
) -> None:
    """out[r] = K * row r of ``blocks``, then of the one-block ``tail`` if
    given, for K the Kronecker product of ``factors``, which is applied
    factor by factor and never built.

    By (A (x) B) vec(X) = vec(B X A^T), factor t acts on one digit of the
    byte position: with the positions of a chunk laid out as n contiguous
    byte planes, viewed as (outer, m_t, inner), it mixes the m_t planes of
    each group.  The chunk's rows of ``out`` (C-contiguous) serve as the
    second plane buffer, so the kernel allocates 1.5 chunks.
    """
    total, n = out.shape
    step = CHUNK_BYTES // n
    size = min(step, total) * n
    tmp = np.empty(size // 2, dtype=np.uint8)
    own = np.empty(size, dtype=np.uint8)
    for lo in range(0, total, step):
        rows = out[lo : lo + step]
        body = blocks[lo : lo + step]
        own_buf, out_buf = own[: rows.size], rows.reshape(-1)
        # start where an even number of swaps leaves the result in own_buf
        if len(factors) % 2 == 0:
            src, dst = own_buf, out_buf
        else:
            src, dst = out_buf, own_buf
        planes = src.reshape(n, -1)
        np.copyto(planes[:, : len(body)], body.T)
        if len(body) < len(rows):
            planes[:, -1] = tail
        outer = 1
        for f in factors:
            m = f.dim
            x, y = src.reshape(outer, m, -1), dst.reshape(outer, m, -1)
            _mix(f, x, y, tmp[: rows.size // m].reshape(outer, -1))
            src, dst = dst, src
            outer *= m
        # one plane at a time: at n = 16 this is ~1.4x faster than copying
        # the whole transpose, whose inner loop is only n bytes long
        for j, plane in enumerate(own_buf.reshape(n, -1)):
            rows[:, j] = plane


def encrypt_stream(key: HillKey, plaintext: bytes) -> bytearray:
    """Pad and encrypt a byte string block by block (ECB over blocks).

    Bytes map to ring elements by identity and block position i is vector
    row i.  The whole blocks are read in place; only the last, padded
    block is a copy.  The kernel writes straight into the returned buffer.
    """
    n = key.dim
    full = len(plaintext) // n
    body = np.frombuffer(plaintext, dtype=np.uint8, count=full * n).reshape(full, n)
    tail = np.frombuffer(pad(plaintext[full * n :], n), dtype=np.uint8)
    buf = bytearray((full + 1) * n)
    _apply(key.factors, body, np.frombuffer(buf, dtype=np.uint8).reshape(-1, n), tail)
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

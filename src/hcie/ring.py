"""Exact arithmetic for vectors and square matrices over the ring Z_{2^m}.

Elements of Z_{2^m} are plain Python ints in ``[0, 2**m)``; reduction is a
single mask.  The units of Z_{2^m} are exactly the odd residues, which shapes
everything here: a matrix is invertible iff its determinant is odd, and
Gaussian elimination must pick odd pivots because division by an even element
is undefined.

All types are immutable values and all operations are pure functions, so
matrices and blocks can be shared freely between threads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionError, NotInvertibleError

#: Hard cap on matrix dimension.  Tensor towers grow as 2^s; the cap keeps a
#: miscounted exponent from allocating a gigantic matrix.
MAX_DIM = 256
#: Draws random_invertible makes before giving up.
_MAX_DRAWS = 1000


@dataclass(frozen=True)
class RingParams:
    """The residue ring Z_{2^m} for a bit width ``1 <= m <= 64``."""

    m: int

    def __post_init__(self):
        if not 1 <= self.m <= 64:
            raise ValueError(f"ring bit width must be in [1, 64], got {self.m}")

    @property
    def modulus(self) -> int:
        return 1 << self.m

    @property
    def mask(self) -> int:
        return (1 << self.m) - 1

    def reduce(self, x: int) -> int:
        return x & self.mask

    def is_unit(self, x: int) -> bool:
        """A residue is invertible iff it is odd."""
        return x & 1 == 1

    def inv(self, x: int) -> int:
        """Multiplicative inverse of a unit, mod 2^m."""
        if x & 1 == 0:
            raise NotInvertibleError(f"{x} is not a unit mod 2^{self.m}")
        return pow(x, -1, self.modulus)


#: The byte ring Z_256, the default deployment profile.
BYTE_RING = RingParams(8)


@dataclass(frozen=True)
class RingMatrix:
    """A square matrix over Z_{2^m}, stored as a tuple of row tuples.

    Entries are assumed reduced; use :meth:`from_rows` to build one from
    arbitrary integers.
    """

    rows: tuple

    def __post_init__(self):
        n = len(self.rows)
        if n == 0:
            raise DimensionError("matrix must have at least one row")
        for row in self.rows:
            if len(row) != n:
                raise DimensionError(f"matrix is not square: {n} rows, row of length {len(row)}")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.rows[i][j]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], ring: RingParams) -> "RingMatrix":
        """Build a matrix, reducing every entry mod 2^m."""
        mask = ring.mask
        return cls(tuple(tuple(int(e) & mask for e in row) for row in rows))

    @classmethod
    def identity(cls, dim: int) -> "RingMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)))


@dataclass(frozen=True)
class Block:
    """A column vector of ring elements: one plaintext or ciphertext unit."""

    entries: tuple

    def __post_init__(self):
        if len(self.entries) == 0:
            raise DimensionError("block must have at least one entry")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @classmethod
    def from_entries(cls, entries: Iterable[int], ring: RingParams) -> "Block":
        mask = ring.mask
        return cls(tuple(int(e) & mask for e in entries))


def mat_mul(a: RingMatrix, b: RingMatrix, ring: RingParams) -> RingMatrix:
    """Matrix product a*b with every entry reduced mod 2^m."""
    if a.dim != b.dim:
        raise DimensionError(f"cannot multiply {a.dim}x{a.dim} by {b.dim}x{b.dim}")
    mask = ring.mask
    cols = tuple(zip(*b.rows))
    return RingMatrix(
        tuple(
            tuple(sum(x * y for x, y in zip(row, col)) & mask for col in cols)
            for row in a.rows
        )
    )


def mat_vec(k: RingMatrix, v: Block, ring: RingParams) -> Block:
    """Column vector K*v mod 2^m."""
    if k.dim != v.dim:
        raise DimensionError(f"cannot apply {k.dim}x{k.dim} matrix to {v.dim}-vector")
    mask = ring.mask
    return Block(tuple(sum(x * y for x, y in zip(row, v.entries)) & mask for row in k.rows))


def det(a: RingMatrix, ring: RingParams) -> int:
    """Determinant mod 2^m.

    Computed with Bareiss fraction-free elimination over the exact integers
    and reduced at the end, so no division by a non-unit ever happens.  The
    interior divisions of the Bareiss recurrence are exact over Z.
    """
    n = a.dim
    m = [list(row) for row in a.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return ring.reduce(sign * m[n - 1][n - 1])


def independent_mod2(vectors: Iterable[Sequence[int]]) -> list:
    """Indices of the vectors that a greedy in-order scan keeps: each kept
    vector is independent mod 2 of the ones kept before it.

    Each vector is packed mod 2 into one int and reduced against an xor
    basis, kept sorted so that its members have distinct leading bits.
    """
    kept = []
    basis = []
    for idx, vec in enumerate(vectors):
        v = sum((e & 1) << i for i, e in enumerate(vec))
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
            kept.append(idx)
    return kept


def is_invertible(a: RingMatrix, ring: RingParams) -> bool:
    """True iff det(a) is odd, i.e. a is a unit of the matrix ring.

    Invertibility mod 2^m only depends on the matrix mod 2: a is a unit iff
    its rows are independent over GF(2).
    """
    return len(independent_mod2(a.rows)) == a.dim


def invert(a: RingMatrix, ring: RingParams) -> RingMatrix:
    """Inverse matrix b with a*b = b*a = I mod 2^m.

    Gauss-Jordan elimination on [a | I] where each pivot column is searched
    for an odd entry; an invertible matrix always has one, because its
    reduction mod 2 has full rank.
    """
    n = a.dim
    mask = ring.mask
    mod = ring.modulus
    # augmented system [a | I], reduced in place
    work = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a.rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] & 1), None)
        if pivot is None:
            raise NotInvertibleError(f"matrix not a unit mod 2^{ring.m}")
        work[col], work[pivot] = work[pivot], work[col]
        inv_p = pow(work[col][col], -1, mod)
        work[col] = [(x * inv_p) & mask for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [(x - f * y) & mask for x, y in zip(work[r], work[col])]
    return RingMatrix(tuple(tuple(row[n:]) for row in work))


def kronecker(a: RingMatrix, b: RingMatrix, ring: RingParams) -> RingMatrix:
    """Kronecker product a (x) b: block (i, j) of the result is a[i][j] * b.

    The result has dimension ``a.dim * b.dim`` and preserves invertibility
    multiplicatively: det(a (x) b) = det(a)^dim(b) * det(b)^dim(a).
    """
    n = a.dim * b.dim
    if n > MAX_DIM:
        raise DimensionError(f"Kronecker product dimension {n} exceeds maximum {MAX_DIM}")
    mask = ring.mask
    rows = []
    for arow in a.rows:
        for brow in b.rows:
            rows.append(tuple((x * y) & mask for x in arow for y in brow))
    return RingMatrix(tuple(rows))


def random_matrix(dim: int, ring: RingParams, rng: random.Random) -> RingMatrix:
    """Uniformly random matrix over Z_{2^m}."""
    mod = ring.modulus
    return RingMatrix(
        tuple(tuple(rng.randrange(mod) for _ in range(dim)) for _ in range(dim))
    )


def random_invertible(dim: int, ring: RingParams, rng: random.Random) -> RingMatrix:
    """Rejection-sample a random invertible matrix.

    A uniform matrix is invertible with probability > 0.288 (the density of
    GL(n, 2)), so this terminates almost immediately.
    """
    for _ in range(_MAX_DRAWS):
        cand = random_matrix(dim, ring, rng)
        if is_invertible(cand, ring):
            return cand
    raise RuntimeError(f"no invertible matrix found in {_MAX_DRAWS} draws")

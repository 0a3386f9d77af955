"""
Matrix arithmetic over the byte ring Z_256
==========================================

The cipher's algebra lives in Z_{2^m}: integers mod a power of two.  This
walk-through shows the two facts everything else leans on: a matrix is
invertible exactly when its determinant is odd, and Kronecker products let
small invertible matrices build big invertible ones.
"""

import random

from hcie.ring import (
    BYTE_RING,
    RingMatrix,
    det,
    invert,
    is_invertible,
    kronecker,
    mat_mul,
    random_invertible,
)

# --- units of Z_256 -------------------------------------------------------
# An element is invertible mod 2^m iff it is odd; 3 * 171 = 513 = 2*256 + 1.
print("inverse of 3 mod 256:", BYTE_RING.inv(3))
print("3 * 171 mod 256 =", 3 * 171 % 256)

# --- matrices: odd determinant <=> invertible ------------------------------
a = RingMatrix.from_rows([[1, 1], [0, 1]], BYTE_RING)
print("\ndet [[1,1],[0,1]] =", det(a, BYTE_RING), "-> invertible:", is_invertible(a))

b = RingMatrix.from_rows([[2, 0], [0, 1]], BYTE_RING)
print("det [[2,0],[0,1]] =", det(b, BYTE_RING), "-> invertible:", is_invertible(b))

inv_a = invert(a, BYTE_RING)
print("invert(a) =", inv_a.rows)
print("a * invert(a) =", mat_mul(a, inv_a, BYTE_RING).rows, "(the identity)")

# --- the same story in a tiny ring -----------------------------------------
# Z_4 is small enough to see everything: exactly 96 of the 256 possible
# 2x2 matrices are invertible, the ones with odd determinant.  The test
# needs no ring: invertibility mod 2^m depends only on the matrix mod 2.
count = sum(
    is_invertible(RingMatrix(((p, q), (r, s))))
    for p in range(4)
    for q in range(4)
    for r in range(4)
    for s in range(4)
)
print("\ninvertible 2x2 matrices over Z_4:", count, "of 256")

# --- Kronecker products ----------------------------------------------------
# kron(A, B) replaces each entry a_ij of A with the block a_ij * B, so two
# 2x2 matrices make a 4x4.  Determinants and inverses factor cleanly:
#   det(A (x) B) = det(A)^dim(B) * det(B)^dim(A)
#   (A (x) B)^-1 = A^-1 (x) B^-1
rng = random.Random(7)
A = random_invertible(2, BYTE_RING, rng)
B = random_invertible(2, BYTE_RING, rng)
K = kronecker(A, B, BYTE_RING)
print("\nA =", A.rows)
print("B =", B.rows)
print("A (x) B has dimension", K.dim)

lhs = det(K, BYTE_RING)
rhs = pow(det(A, BYTE_RING), 2, 256) * pow(det(B, BYTE_RING), 2, 256) % 256
print("det(A (x) B) =", lhs, "and det(A)^2 det(B)^2 =", rhs)

assert invert(K, BYTE_RING) == kronecker(invert(A, BYTE_RING), invert(B, BYTE_RING), BYTE_RING)
print("(A (x) B)^-1 == A^-1 (x) B^-1: confirmed entry-exact")

# That inheritance is why the cipher never has to invert a big matrix: a
# 16x16 key built from four invertible 2x2 factors is invertible by
# construction, and its inverse is assembled from four 2x2 inversions.

import hashlib
import math
import random

import pytest

from hcie import ring
from hcie.errors import DimensionError, NotInvertibleError
from hcie.ring import BYTE_RING, Block, RingMatrix, RingParams

Z4 = RingParams(2)


def M(rows, r=BYTE_RING):
    return RingMatrix.from_rows(rows, r)


class TestRingParams:
    def test_modulus_and_mask(self):
        for m in (1, 2, 8, 16, 64):
            r = RingParams(m)
            assert r.modulus == 2**m
            assert r.mask == 2**m - 1

    @pytest.mark.parametrize("m", [0, -1, 65])
    def test_width_bounds(self, m):
        with pytest.raises(ValueError):
            RingParams(m)

    def test_units_are_the_odd_residues(self):
        # test_inv_of_every_unit covers the odd half
        for x in range(0, BYTE_RING.modulus, 2):
            with pytest.raises(NotInvertibleError):
                BYTE_RING.inv(x)

    def test_inv_of_every_unit(self):
        for x in range(1, 256, 2):
            assert BYTE_RING.inv(x) * x % 256 == 1

    def test_inv_of_non_unit_raises(self):
        with pytest.raises(NotInvertibleError):
            BYTE_RING.inv(2)


class TestMatMul:
    def test_identity_absorbs(self):
        rng = random.Random(0)
        b = ring.random_matrix(2, BYTE_RING, rng)
        assert ring.mat_mul(RingMatrix.identity(2), b, BYTE_RING) == b
        assert ring.mat_mul(b, RingMatrix.identity(2), BYTE_RING) == b

    def test_hand_example_z256(self):
        a = M([[1, 1], [0, 1]])
        b = M([[1, 0], [1, 1]])
        assert ring.mat_mul(a, b, BYTE_RING) == M([[2, 1], [1, 1]])

    def test_hand_example_z4(self):
        a = M([[3, 3], [3, 3]], Z4)
        b = M([[1, 1], [1, 1]], Z4)
        assert ring.mat_mul(a, b, Z4) == M([[2, 2], [2, 2]], Z4)

    def test_associative(self):
        rng = random.Random(1)
        for _ in range(50):
            a, b, c = (ring.random_matrix(3, BYTE_RING, rng) for _ in range(3))
            left = ring.mat_mul(ring.mat_mul(a, b, BYTE_RING), c, BYTE_RING)
            right = ring.mat_mul(a, ring.mat_mul(b, c, BYTE_RING), BYTE_RING)
            assert left == right

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            ring.mat_mul(RingMatrix.identity(2), RingMatrix.identity(3), BYTE_RING)


class TestMatVec:
    def test_identity(self):
        v = Block.from_entries([9, 200, 3], BYTE_RING)
        assert ring.mat_vec(RingMatrix.identity(3), v, BYTE_RING) == v

    def test_hand_example(self):
        k = M([[1, 1], [0, 1]])
        v = Block.from_entries([2, 3], BYTE_RING)
        assert ring.mat_vec(k, v, BYTE_RING) == Block.from_entries([5, 3], BYTE_RING)

    def test_permutation(self):
        k = M([[0, 1], [1, 0]])
        v = Block.from_entries([7, 9], BYTE_RING)
        assert ring.mat_vec(k, v, BYTE_RING) == Block.from_entries([9, 7], BYTE_RING)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            ring.mat_vec(RingMatrix.identity(2), Block.from_entries([1, 2, 3], BYTE_RING), BYTE_RING)


def _det_laplace(rows, modulus):
    """Cofactor-expansion determinant: the independent oracle for det()."""
    n = len(rows)
    if n == 1:
        return rows[0][0] % modulus
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det_laplace(minor, modulus)
    return total % modulus


class TestDet:
    def test_identity(self):
        for n in (1, 2, 5, 16):
            assert ring.det(RingMatrix.identity(n), BYTE_RING) == 1

    def test_hand_examples(self):
        assert ring.det(M([[1, 1], [0, 1]]), BYTE_RING) == 1
        assert ring.det(M([[2, 0], [0, 1]]), BYTE_RING) == 2

    def test_matches_laplace_oracle(self):
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(1, 4)
            a = ring.random_matrix(n, BYTE_RING, rng)
            rows = [list(row) for row in a.rows]
            assert ring.det(a, BYTE_RING) == _det_laplace(rows, 256)

    def test_multiplicative(self):
        rng = random.Random(3)
        for _ in range(100):
            a = ring.random_matrix(3, BYTE_RING, rng)
            b = ring.random_matrix(3, BYTE_RING, rng)
            lhs = ring.det(ring.mat_mul(a, b, BYTE_RING), BYTE_RING)
            rhs = ring.det(a, BYTE_RING) * ring.det(b, BYTE_RING) % 256
            assert lhs == rhs

    def test_zero_pivot_needs_row_swap(self):
        # leading zero forces the Bareiss row swap; det = -1 * 1 * 1 mod 256
        a = M([[0, 1], [1, 0]])
        assert ring.det(a, BYTE_RING) == 255


class TestIsInvertible:
    def test_identity(self):
        assert ring.is_invertible(RingMatrix.identity(4))

    def test_even_determinant(self):
        assert not ring.is_invertible(M([[2, 0], [0, 1]]))

    def test_odd_determinant(self):
        assert ring.is_invertible(M([[1, 1], [0, 1]]))

    def test_agrees_with_det_parity(self):
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randint(1, 6)
            a = ring.random_matrix(n, BYTE_RING, rng)
            assert ring.is_invertible(a) == (ring.det(a, BYTE_RING) % 2 == 1)

    def test_exhaustive_2x2_over_z4_vs_product_oracle(self):
        # brute-force oracle: A is invertible iff some B has AB = I
        all_matrices = [
            M([[a, b], [c, d]], Z4)
            for a in range(4)
            for b in range(4)
            for c in range(4)
            for d in range(4)
        ]
        identity = RingMatrix.identity(2)
        for a in all_matrices:
            oracle = any(ring.mat_mul(a, b, Z4) == identity for b in all_matrices)
            assert ring.is_invertible(a) == oracle


class TestInvert:
    def test_identity(self):
        assert ring.invert(RingMatrix.identity(3), BYTE_RING) == RingMatrix.identity(3)

    def test_hand_example(self):
        assert ring.invert(M([[1, 1], [0, 1]]), BYTE_RING) == M([[1, 255], [0, 1]])

    def test_non_invertible_raises(self):
        with pytest.raises(NotInvertibleError):
            ring.invert(M([[2, 0], [0, 1]]), BYTE_RING)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8, 16])
    def test_two_sided_inverse(self, dim):
        # one Gauss-Jordan path at every dim: 2 is the Hill key factor size,
        # 16 the default key size, the others the sizes around them
        rng = random.Random(dim)
        for _ in range(10):
            a = ring.random_invertible(dim, BYTE_RING, rng)
            inv = ring.invert(a, BYTE_RING)
            assert ring.mat_mul(a, inv, BYTE_RING) == RingMatrix.identity(dim)
            assert ring.mat_mul(inv, a, BYTE_RING) == RingMatrix.identity(dim)

    def test_other_ring_width(self):
        r16 = RingParams(16)
        rng = random.Random(7)
        a = ring.random_invertible(4, r16, rng)
        inv = ring.invert(a, r16)
        assert ring.mat_mul(a, inv, r16) == RingMatrix.identity(4)

    @pytest.mark.parametrize(
        "dim, m, digest",
        [
            (2, 8, "56f4b39f6beb8504e7e00b1e03432f1fca0c54bfa8fed6761373b7245166f16f"),
            (2, 16, "7976c0d4eb0224513ed07a70fe44510c3d90784abfb50a4e7430be33a79135c3"),
            (3, 8, "638029d51b14c6510eae1a2280a01b94a6e0967f61b20af7b886dd8c7fee73c0"),
            (3, 16, "c3b1ad37dbdd405a256fb244599ce224cf1a69d06e1bde6dce9f3873e0bdd822"),
            (4, 8, "eca2eb0195b3357ebf71cf33c512a3b6366ccac2d37f799ead2caff9cdfc4a1a"),
            (4, 16, "e628915fc404c6c18392a1404e3d381b11c417f706c16ab5dfe92f2f619d1605"),
        ],
    )
    def test_small_inverses_match_closed_form_digests(self, dim, m, digest):
        # SHA-256 over 50 inverses as computed by a closed-form adjugate
        # (det^-1 * [[d, -b], [-c, a]] at 2x2, cofactor expansion at 3x3 and
        # 4x4), which inverted these sizes before Gauss-Jordan took over
        r = RingParams(m)
        rng = random.Random(f"invert {dim} {m}")
        h = hashlib.sha256()
        for _ in range(50):
            h.update(repr(ring.invert(ring.random_invertible(dim, r, rng), r).rows).encode())
        assert h.hexdigest() == digest


class TestKronecker:
    def test_identity(self):
        out = ring.kronecker(RingMatrix.identity(2), RingMatrix.identity(2), BYTE_RING)
        assert out == RingMatrix.identity(4)

    def test_definition_unrolled(self):
        a = M([[1, 1], [0, 1]])
        out = ring.kronecker(a, RingMatrix.identity(2), BYTE_RING)
        assert out == M([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]])

    def test_entry_formula(self):
        rng = random.Random(5)
        a = ring.random_matrix(2, BYTE_RING, rng)
        b = ring.random_matrix(3, BYTE_RING, rng)
        out = ring.kronecker(a, b, BYTE_RING)
        assert out.dim == 6
        for i in range(6):
            for j in range(6):
                expected = a[i // 3, j // 3] * b[i % 3, j % 3] % 256
                assert out[i, j] == expected

    def test_det_law(self):
        rng = random.Random(6)
        for _ in range(100):
            a = ring.random_matrix(2, BYTE_RING, rng)
            b = ring.random_matrix(2, BYTE_RING, rng)
            lhs = ring.det(ring.kronecker(a, b, BYTE_RING), BYTE_RING)
            rhs = pow(ring.det(a, BYTE_RING), 2, 256) * pow(ring.det(b, BYTE_RING), 2, 256) % 256
            assert lhs == rhs

    def test_inverse_law(self):
        rng = random.Random(7)
        for _ in range(50):
            a = ring.random_invertible(2, BYTE_RING, rng)
            b = ring.random_invertible(2, BYTE_RING, rng)
            lhs = ring.invert(ring.kronecker(a, b, BYTE_RING), BYTE_RING)
            rhs = ring.kronecker(ring.invert(a, BYTE_RING), ring.invert(b, BYTE_RING), BYTE_RING)
            assert lhs == rhs

    def test_associative(self):
        rng = random.Random(8)
        a, b, c = (ring.random_matrix(2, BYTE_RING, rng) for _ in range(3))
        lhs = ring.kronecker(ring.kronecker(a, b, BYTE_RING), c, BYTE_RING)
        rhs = ring.kronecker(a, ring.kronecker(b, c, BYTE_RING), BYTE_RING)
        assert lhs == rhs

    def test_dimension_cap(self):
        rng = random.Random(9)
        a = ring.random_matrix(16, BYTE_RING, rng)
        b = ring.random_matrix(32, BYTE_RING, rng)
        with pytest.raises(DimensionError):
            ring.kronecker(a, b, BYTE_RING)  # 512 > MAX_DIM

    def test_at_dimension_cap(self):
        rng = random.Random(10)
        a = ring.random_matrix(16, BYTE_RING, rng)
        b = ring.random_matrix(16, BYTE_RING, rng)
        assert ring.kronecker(a, b, BYTE_RING).dim == ring.MAX_DIM


class TestRandomMatrices:
    def test_random_invertible_is_invertible(self):
        rng = random.Random(11)
        for _ in range(50):
            a = ring.random_invertible(4, BYTE_RING, rng)
            assert ring.is_invertible(a)

    def test_deterministic_under_seed(self):
        a = ring.random_matrix(4, BYTE_RING, random.Random(99))
        b = ring.random_matrix(4, BYTE_RING, random.Random(99))
        assert a == b

    def test_entries_reduced(self):
        a = ring.random_matrix(4, Z4, random.Random(12))
        assert all(0 <= e < 4 for row in a.rows for e in row)


class TestShapes:
    def test_matrix_must_be_square(self):
        with pytest.raises(DimensionError):
            RingMatrix(((1, 2), (3,)))

    def test_matrix_must_be_nonempty(self):
        with pytest.raises(DimensionError):
            RingMatrix(())

    def test_block_must_be_nonempty(self):
        with pytest.raises(DimensionError):
            Block(())

    def test_from_rows_reduces(self):
        a = M([[256, 257], [-1, 513]])
        assert a.rows == ((0, 1), (255, 1))

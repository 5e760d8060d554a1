"""Exact integer linear algebra: SNF, kernels, complex reduction."""

import numpy as np
import pytest

from morsevanish.intlinalg import (
    ChainComplexData, homology_of_complex, identity, kernel_basis, matmul,
    reduce_complex, smith_normal_form,
)


def assert_unimodular_pair(M, Minv):
    n = len(M)
    assert matmul(M, Minv) == identity(n)
    assert matmul(Minv, M) == identity(n)


def test_matmul_through_an_empty_middle_keeps_its_columns():
    # a 2 x 0 matrix has empty rows and a 0 x 3 one has none at all
    assert matmul([[], []], [], 3) == [[0, 0, 0], [0, 0, 0]]


def test_matmul_refuses_mismatched_shapes():
    # a check that survives python -O: 1 x 3 times 2 x 1 has no product
    with pytest.raises(ValueError, match="shape mismatch"):
        matmul([[1, 2, 3]], [[1], [1]])
    with pytest.raises(ValueError, match="shape mismatch"):
        matmul([[1, 2]], [], 3)


def test_snf_two_by_two_fixture():
    # diag(2, 6) is already Smith; a shuffled version must come back to it
    A = [[2, 0], [0, 6]]
    snf = smith_normal_form(A)
    assert snf.invariant_factors == [2, 6]
    B = [[6, 4], [4, 4]]  # det 8, gcd 2 -> factors 2, 4
    snf = smith_normal_form(B)
    assert snf.invariant_factors == [2, 4]
    # the pivot 2 does not divide the 3 left in its block
    C = [[2, 0], [0, 3]]
    snf = smith_normal_form(C)
    assert snf.invariant_factors == [1, 6]
    assert snf.D == matmul(matmul(snf.S, C), snf.T)


def test_snf_divisibility_chain_and_transforms():
    rng = np.random.default_rng(11)
    for _ in range(60):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        A = [[int(v) for v in rng.integers(-9, 10, cols)] for _ in range(rows)]
        snf = smith_normal_form(A)
        # D == S A T exactly
        assert snf.D == matmul(matmul(snf.S, A), snf.T)
        # S is unimodular: its own Smith form is the identity
        s_snf = smith_normal_form(snf.S, transforms=False)
        assert s_snf.rank == rows and s_snf.invariant_factors == [1] * rows
        assert_unimodular_pair(snf.T, snf.Tinv)
        # diagonal, nonnegative, divisibility chain
        for i, row in enumerate(snf.D):
            for j, v in enumerate(row):
                if i != j:
                    assert v == 0
        f = snf.invariant_factors
        assert all(x > 0 for x in f)
        for a, b in zip(f, f[1:]):
            assert b % a == 0


def test_kernel_basis_spans_kernel():
    A = [[1, 2, 3], [2, 4, 6]]  # rank 1, kernel rank 2
    basis, free, snf = kernel_basis(A, 3)
    assert len(free) == 2
    for j in range(2):
        vec = [basis[r][j] for r in range(3)]
        out = [sum(A[i][r] * vec[r] for r in range(3)) for i in range(2)]
        assert out == [0, 0]


def test_homology_single_torsion_boundary():
    # C_1 = Z --[2]--> C_0 = Z : H_0 = Z/2, H_1 = 0
    data = ChainComplexData({0: 1, 1: 1}, {1: [[2]]})
    h = homology_of_complex(data)
    assert h.groups == {0: (0, (2,)), 1: (0, ())}


def test_homology_circle():
    # two vertices, two edges, both edges from v0 to v1
    d1 = [[-1, -1], [1, 1]]
    data = ChainComplexData({0: 2, 1: 2}, {1: d1})
    h = homology_of_complex(data)
    assert h.groups == {0: (1, ()), 1: (1, ())}


def test_homology_point_and_empty():
    data = ChainComplexData({0: 1}, {})
    assert homology_of_complex(data).groups == {0: (1, ())}
    assert homology_of_complex(ChainComplexData({}, {})).groups == {}


def test_homology_rp2_style_complex():
    # minimal CW model of the projective plane: one cell per degree,
    # d_2 = [2], d_1 = [0]
    data = ChainComplexData({0: 1, 1: 1, 2: 1}, {1: [[0]], 2: [[2]]})
    h = homology_of_complex(data)
    assert h.groups == {0: (1, ()), 1: (0, (2,)), 2: (0, ())}


def _random_complex(rng):
    """Random 3-term complex built to satisfy d1 d2 = 0.

    Take d1 random, then build d2 with columns in ker d1 (integer kernel
    combinations)."""
    n0 = int(rng.integers(1, 5))
    n1 = int(rng.integers(1, 5))
    n2 = int(rng.integers(1, 4))
    d1 = [[int(v) for v in rng.integers(-3, 4, n1)] for _ in range(n0)]
    basis, free, _ = kernel_basis(d1, n1)
    d2 = [[0] * n2 for _ in range(n1)]
    if free:
        for j in range(n2):
            coeffs = rng.integers(-2, 3, len(free))
            for r in range(n1):
                d2[r][j] = int(sum(int(c) * basis[r][t] for t, c in enumerate(coeffs)))
    return ChainComplexData({0: n0, 1: n1, 2: n2}, {1: d1, 2: d2})


def test_reduce_complex_preserves_homology():
    rng = np.random.default_rng(23)
    for _ in range(40):
        data = _random_complex(rng)
        # every column listed, d_0's as empty ones, so no cell is isolated
        sparse = {0: {i: {} for i in range(data.dims[0])}}
        for k, M in data.boundaries.items():
            sparse[k] = {j: {i: M[i][j] for i in range(len(M)) if M[i][j]}
                         for j in range(data.dims[k])}
        reduced = reduce_complex(dict(data.dims), sparse)
        assert homology_of_complex(reduced) == homology_of_complex(data)
        assert reduced.dims == data.dims
        assert reduced.boundaries == data.boundaries


def test_reduce_complex_handles_isolated_cells():
    # one isolated vertex, nothing else
    reduced = reduce_complex({0: 3}, {})
    assert homology_of_complex(reduced).groups == {0: (3, ())}

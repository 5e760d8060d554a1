"""Exact integer linear algebra for chain complexes.

Everything here runs on arbitrary-precision Python ints: a dense Smith
normal form with optional unimodular transforms, for the small matrices
of Morse complexes and for the cells of a cubical complex that survive
the array collapse in ``oracle``, and ``reduce_complex``, which writes
such survivors, given as sparse boundary columns, as dense matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SNF", "smith_normal_form", "kernel_basis", "matmul", "identity",
    "homology_of_complex", "ChainComplexData", "reduce_complex",
]

Matrix = List[List[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(A: Matrix, B: Matrix, cols: Optional[int] = None) -> Matrix:
    """A @ B.  ``cols`` is the result's column count, which a B with no
    rows (a rank-zero middle degree) cannot carry."""
    n, k = len(A), len(B)
    m = (len(B[0]) if B else 0) if cols is None else cols
    if n and len(A[0]) != k:
        raise ValueError(f"shape mismatch: {n}x{len(A[0])} times {k}x{m}")
    out = [[0] * m for _ in range(n)]
    if not (n and k and m):
        return out
    for i in range(n):
        Ai = A[i]
        for j in range(m):
            s = 0
            for t in range(k):
                a = Ai[t]
                if a:
                    s += a * B[t][j]
            out[i][j] = s
    return out


@dataclass
class SNF:
    """D = S A T with S, T unimodular, and T's inverse Tinv."""

    D: Matrix
    S: Matrix
    T: Matrix
    Tinv: Matrix
    rank: int

    @property
    def invariant_factors(self) -> List[int]:
        out = []
        for i in range(self.rank):
            out.append(abs(self.D[i][i]))
        return out


def smith_normal_form(A: Sequence[Sequence[int]], transforms: bool = True) -> SNF:
    """Smith normal form over the integers.

    Pivots on a smallest-magnitude entry, clears its row and column, and
    repairs the divisibility chain at the end.  Fine for the matrix sizes
    of Morse complexes and of collapsed cubical complexes.
    """
    D = [list(map(int, row)) for row in A]
    rows = len(D)
    cols = len(D[0]) if rows else 0
    S = identity(rows)
    T = identity(cols)
    Tinv = identity(cols)

    def row_op(i, j, c):
        # row i += c * row j ; keep S A T = D
        Di, Dj = D[i], D[j]
        for t in range(cols):
            Di[t] += c * Dj[t]
        if transforms:
            Si, Sj = S[i], S[j]
            for t in range(rows):
                Si[t] += c * Sj[t]

    def col_op(i, j, c):
        # col i += c * col j
        for r in range(rows):
            D[r][i] += c * D[r][j]
        if transforms:
            for r in range(cols):
                T[r][i] += c * T[r][j]
            Ti, Tj = Tinv[i], Tinv[j]
            for t in range(cols):
                Tj[t] -= c * Ti[t]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        if transforms:
            S[i], S[j] = S[j], S[i]

    def swap_cols(i, j):
        for r in range(rows):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        if transforms:
            for r in range(cols):
                T[r][i], T[r][j] = T[r][j], T[r][i]
            Tinv[i], Tinv[j] = Tinv[j], Tinv[i]

    def negate_row(i):
        D[i] = [-x for x in D[i]]
        if transforms:
            S[i] = [-x for x in S[i]]

    k = 0
    limit = min(rows, cols)
    while k < limit:
        # find smallest nonzero entry in the trailing block
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                v = D[i][j]
                if v != 0 and (best is None or abs(v) < abs(D[best[0]][best[1]])):
                    best = (i, j)
                    if abs(v) == 1:
                        break
            if best is not None and abs(D[best[0]][best[1]]) == 1:
                break
        if best is None:
            break
        swap_rows(k, best[0])
        swap_cols(k, best[1])
        # clear row and column; repeat because remainders can reappear
        while True:
            pivot = D[k][k]
            dirty = False
            for i in range(k + 1, rows):
                if D[i][k]:
                    q = D[i][k] // pivot
                    if q:
                        row_op(i, k, -q)
                    if D[i][k]:
                        # remainder smaller than pivot: swap it up
                        swap_rows(k, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(k + 1, cols):
                if D[k][j]:
                    q = D[k][j] // pivot
                    if q:
                        col_op(j, k, -q)
                    if D[k][j]:
                        swap_cols(k, j)
                        dirty = True
                        break
            if not dirty:
                break
        if D[k][k] < 0:
            negate_row(k)
        k += 1

    rank = sum(1 for i in range(limit) if D[i][i] != 0)

    # repair divisibility: d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if b % a != 0:
                changed = True
                # fold the two diagonal entries together with the classic
                # 2x2 trick: add col i+1 to col i, then re-pivot the block
                col_op(i, i + 1, 1)
                while True:
                    pivot = D[i][i]
                    if D[i + 1][i]:
                        q = D[i + 1][i] // pivot
                        if q:
                            row_op(i + 1, i, -q)
                        if D[i + 1][i]:
                            swap_rows(i, i + 1)
                            continue
                    if D[i][i + 1]:
                        q = D[i][i + 1] // pivot
                        if q:
                            col_op(i + 1, i, -q)
                        if D[i][i + 1]:
                            swap_cols(i, i + 1)
                            continue
                    break
                if D[i][i] < 0:
                    negate_row(i)
                if D[i + 1][i + 1] < 0:
                    negate_row(i + 1)
    return SNF(D, S, T, Tinv, rank)


def kernel_basis(A: Sequence[Sequence[int]], ncols: int) -> Tuple[Matrix, List[int], SNF]:
    """Integer basis of ker(A) as columns, plus the kernel column indices.

    The basis columns are columns of the unimodular T from the SNF, so they
    span a direct summand: coordinates of any kernel vector are read off
    with Tinv.
    """
    rows = len(A)
    if rows == 0:
        snf = smith_normal_form([[0] * ncols] if ncols else [], transforms=True)
        basis = identity(ncols)
        return basis, list(range(ncols)), snf
    snf = smith_normal_form(A, transforms=True)
    free = [j for j in range(ncols) if j >= snf.rank]
    basis = [[snf.T[r][j] for j in free] for r in range(ncols)]
    return basis, free, snf


@dataclass
class ChainComplexData:
    """A finitely generated free chain complex.

    dims[k] is the rank of C_k; boundaries[k] maps C_k -> C_{k-1} stored
    densely as a dims[k-1] x dims[k] integer matrix.  Degrees absent from
    dims are zero.
    """

    dims: Dict[int, int]
    boundaries: Dict[int, Matrix]

    def boundary(self, k: int) -> Matrix:
        if k in self.boundaries:
            return self.boundaries[k]
        rows = self.dims.get(k - 1, 0)
        cols = self.dims.get(k, 0)
        return [[0] * cols for _ in range(rows)]


def homology_of_complex(data: ChainComplexData) -> Dict[int, Tuple[int, List[int]]]:
    """Betti numbers and torsion invariant factors (> 1) per degree.

    H_k = ker d_k / im d_{k+1}; betti_k = dim C_k - rank d_k - rank d_{k+1},
    torsion of H_k comes from the invariant factors of d_{k+1}.
    """
    degrees = sorted(data.dims)
    ranks: Dict[int, int] = {}
    factors: Dict[int, List[int]] = {}
    for k in degrees + [max(degrees) + 1] if degrees else []:
        B = data.boundary(k)
        if not B or not B[0]:
            ranks[k] = 0
            factors[k] = []
            continue
        snf = smith_normal_form(B, transforms=False)
        ranks[k] = snf.rank
        factors[k] = snf.invariant_factors
    out: Dict[int, Tuple[int, List[int]]] = {}
    for k in degrees:
        nk = data.dims.get(k, 0)
        rk = ranks.get(k, 0)
        rk1 = ranks.get(k + 1, 0)
        betti = nk - rk - rk1
        torsion = [d for d in factors.get(k + 1, []) if d > 1]
        out[k] = (betti, torsion)
    return out


def reduce_complex(dims: Dict[int, int],
                   sparse_boundaries: Dict[int, Dict[int, Dict[int, int]]]
                   ) -> ChainComplexData:
    """Dense form of a complex given by sparse boundary columns.

    ``sparse_boundaries[k]`` maps column id (a k-cell) to {row id: coeff}
    over (k-1)-cells.  Cell ids only need to be unique within their degree.
    The cells of degree k are the columns of d_k and the rows of d_{k+1}
    in sorted id order, then as many isolated cells as ``dims[k]`` still
    asks for.
    """
    index_of: Dict[int, Dict[int, int]] = {}
    for k in dims:
        ids = set(sparse_boundaries.get(k, ()))
        for entries in sparse_boundaries.get(k + 1, {}).values():
            ids.update(entries)
        if len(ids) > dims[k]:
            raise ValueError(f"degree {k}: more incident cells than dims says")
        index_of[k] = {cid: i for i, cid in enumerate(sorted(ids))}
    boundaries: Dict[int, Matrix] = {}
    for k in dims:
        if k - 1 in dims:
            M = [[0] * dims[k] for _ in range(dims[k - 1])]
            for col, entries in sparse_boundaries.get(k, {}).items():
                for row, coeff in entries.items():
                    M[index_of[k - 1][row]][index_of[k][col]] = coeff
            boundaries[k] = M
    return ChainComplexData(dict(dims), boundaries)

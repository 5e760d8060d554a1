"""Exact integer linear algebra for chain complexes.

This is the one exact layer that the Morse complexes of ``homology`` and
the cubical oracle both stand on, and it imports nothing else of the
package.  Everything here runs on arbitrary-precision Python ints: a
dense Smith normal form with optional unimodular transforms, for the
small matrices of Morse complexes and for the cells of a cubical complex
that survive the array collapse in ``oracle``; ``reduce_complex``, which
writes such survivors, given as sparse boundary columns, as dense
matrices; and ``homology_of_complex``, which reads a ``HomologyResult``
off the Smith forms of a complex's boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SNF", "smith_normal_form", "kernel_basis", "matmul", "identity",
    "homology_of_complex", "ChainComplexData", "HomologyResult",
    "reduce_complex",
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

    Pivots on a smallest-magnitude entry of the trailing block (the
    first in row-major order) and clears its row and column.  Until the
    pivot divides every entry of the rest of its block, a row it does
    not divide is added to the pivot row and the clearing repeats, which
    lowers the pivot; so each pivot divides all later ones and the
    divisibility chain holds in one pass (Cohen, A Course in
    Computational Algebraic Number Theory, 1993, Alg. 2.4.14).  Fine for
    the matrix sizes of Morse complexes and of collapsed cubical
    complexes.
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
        best = min(((abs(D[i][j]), i, j) for i in range(k, rows)
                    for j in range(k, cols) if D[i][j]), default=None)
        if best is None:
            break
        swap_rows(k, best[1])
        swap_cols(k, best[2])
        # clear column and row; a nonzero remainder is smaller than the
        # pivot, takes its place and the clearing starts over
        while True:
            pivot = D[k][k]
            for i in range(k + 1, rows):
                if D[i][k]:
                    q = D[i][k] // pivot
                    if q:
                        row_op(i, k, -q)
                    if D[i][k]:
                        swap_rows(k, i)
                        break
            else:
                for j in range(k + 1, cols):
                    if D[k][j]:
                        q = D[k][j] // pivot
                        if q:
                            col_op(j, k, -q)
                        if D[k][j]:
                            swap_cols(k, j)
                            break
                else:
                    # the pivot must divide the rest of its block; a row
                    # it does not divide is added to the pivot row
                    bad = next((i for i in range(k + 1, rows)
                                if any(D[i][j] % pivot
                                       for j in range(k + 1, cols))), None)
                    if bad is None:
                        break
                    row_op(k, bad, 1)
        if D[k][k] < 0:
            negate_row(k)
        k += 1
    return SNF(D, S, T, Tinv, k)


def kernel_basis(A: Sequence[Sequence[int]], ncols: int) -> Tuple[Matrix, List[int], SNF]:
    """Integer basis of ker(A) as columns, plus the kernel column indices.

    The basis columns are columns of the unimodular T from the SNF, so they
    span a direct summand: coordinates of any kernel vector are read off
    with Tinv.
    """
    # a map with no rows stands in as one zero row, so T still has ncols
    snf = smith_normal_form(A if len(A) else [[0] * ncols], transforms=True)
    free = list(range(snf.rank, ncols))
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


@dataclass(frozen=True)
class HomologyResult:
    """Betti number and torsion invariant factors per degree."""

    groups: Dict[int, Tuple[int, Tuple[int, ...]]]

    @classmethod
    def from_summary(cls, summary: dict) -> "HomologyResult":
        """The result whose ``summary()`` is ``summary``."""
        return cls({int(k): (g["betti"], tuple(g["torsion"]))
                    for k, g in summary.items()})

    def betti(self, k: int) -> int:
        return self.groups.get(k, (0, ()))[0]

    def torsion(self, k: int) -> Tuple[int, ...]:
        return self.groups.get(k, (0, ()))[1]

    @property
    def euler(self) -> int:
        return sum((-1) ** k * b for k, (b, _) in self.groups.items())

    def same_as(self, other: "HomologyResult") -> bool:
        """Equality as graded groups, ignoring degrees that are trivial.

        Complexes built by different pipelines rarely agree on which
        rank-zero degrees they bother to record.
        """
        for k in set(self.groups) | set(other.groups):
            if self.betti(k) != other.betti(k):
                return False
            if self.torsion(k) != other.torsion(k):
                return False
        return True

    def summary(self) -> dict:
        return {str(k): {"betti": b, "torsion": list(t)}
                for k, (b, t) in sorted(self.groups.items())}

    def group_name(self, k: int) -> str:
        """H_k written out, like "Z^2 + Z/3", or "0"."""
        b = self.betti(k)
        free = [] if b == 0 else ["Z" if b == 1 else f"Z^{b}"]
        return " + ".join(free + [f"Z/{d}" for d in self.torsion(k)]) or "0"

    def describe(self) -> str:
        if not self.groups:
            return "trivial"
        return ", ".join(f"H_{k} = {self.group_name(k)}"
                         for k in sorted(self.groups))


def homology_of_complex(data: ChainComplexData) -> HomologyResult:
    """Betti numbers and torsion invariant factors (> 1) per degree.

    H_k = ker d_k / im d_{k+1}; betti_k = dim C_k - rank d_k - rank d_{k+1},
    torsion of H_k comes from the invariant factors of d_{k+1}, and the
    rank of d_k is the number of its invariant factors.
    """
    degrees = sorted(data.dims)
    factors: Dict[int, List[int]] = {}
    for k in degrees + [max(degrees) + 1] if degrees else []:
        B = data.boundary(k)
        factors[k] = (smith_normal_form(B, transforms=False).invariant_factors
                      if B and B[0] else [])
    groups = {}
    for k in degrees:
        below, above = factors[k], factors.get(k + 1, [])
        groups[k] = (data.dims[k] - len(below) - len(above),
                     tuple(d for d in above if d > 1))
    return HomologyResult(groups)


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

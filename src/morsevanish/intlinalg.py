"""Exact integer linear algebra for chain complexes.

Everything here runs on arbitrary-precision Python ints.  Two layers:

* dense Smith normal form with optional unimodular transforms, for the
  small matrices of Morse complexes and for the tail ends of reduced
  cubical complexes;
* a sparse unit-pivot reduction that cancels invertible incidences across
  a whole chain complex before any dense work happens.  Cancelling a pair
  (tau, sigma) with <d tau, sigma> = +-1 is the usual Gaussian elimination
  move on complexes: it drops both cells, replaces the degree-k block D by
  D - gamma * u^-1 * beta, and leaves homology unchanged.  It is a loop
  over Python dicts, so large cubical complexes are first shrunk by the
  array collapse in ``oracle``, which removes the same kind of pair
  wholesale; this reduction only finishes the remainder.
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
    out = [[0] * m for _ in range(n)]
    if not (n and k and m):
        return out
    assert len(A[0]) == k, "shape mismatch"
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
    produced after sparse reduction.
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


# ---------------------------------------------------------------------------
# sparse unit-pivot reduction


class _SparseBoundary:
    """One boundary matrix as dict-of-dicts in both orientations."""

    __slots__ = ("rows", "cols")

    def __init__(self):
        self.rows: Dict[int, Dict[int, int]] = {}
        self.cols: Dict[int, Dict[int, int]] = {}

    def set(self, row: int, col: int, val: int):
        if val:
            self.rows.setdefault(row, {})[col] = val
            self.cols.setdefault(col, {})[row] = val

    def add(self, row: int, col: int, val: int):
        if not val:
            return
        r = self.rows.setdefault(row, {})
        new = r.get(col, 0) + val
        if new:
            r[col] = new
            self.cols.setdefault(col, {})[row] = new
        else:
            del r[col]
            if not r:
                del self.rows[row]
            c = self.cols[col]
            del c[row]
            if not c:
                del self.cols[col]

    def drop_row(self, row: int):
        for col in list(self.rows.get(row, ())):
            c = self.cols[col]
            del c[row]
            if not c:
                del self.cols[col]
        self.rows.pop(row, None)

    def drop_col(self, col: int):
        for row in list(self.cols.get(col, ())):
            r = self.rows[row]
            del r[col]
            if not r:
                del self.rows[row]
        self.cols.pop(col, None)


def reduce_complex(dims: Dict[int, int],
                   sparse_boundaries: Dict[int, Dict[int, Dict[int, int]]]
                   ) -> ChainComplexData:
    """Cancel all unit incidences, then return the small dense remainder.

    ``sparse_boundaries[k]`` maps column id (a k-cell) to {row id: coeff}
    over (k-1)-cells.  Cell ids only need to be unique within their degree.
    Homology of the returned complex equals homology of the input.
    """
    degrees = sorted(dims)
    mats: Dict[int, _SparseBoundary] = {}
    # populate cell sets from dims via the boundary dicts plus isolated cells
    cells: Dict[int, set] = {k: set() for k in degrees}
    for k in degrees:
        sb = _SparseBoundary()
        for col, entries in sparse_boundaries.get(k, {}).items():
            for row, coeff in entries.items():
                sb.set(row, col, coeff)
        mats[k] = sb
    for k in degrees:
        cells[k].update(sparse_boundaries.get(k, {}).keys())
        if k + 1 in sparse_boundaries:
            for entries in sparse_boundaries[k + 1].values():
                cells[k].update(entries.keys())
    # isolated cells without any incidences are still cells; callers encode
    # them by listing the degree in dims with the right count. We recover
    # the count difference as extra anonymous cells.
    extra: Dict[int, int] = {}
    for k in degrees:
        extra[k] = dims[k] - len(cells[k])
        if extra[k] < 0:
            raise ValueError(f"degree {k}: more incident cells than dims says")

    def cancel(k: int, row: int, col: int):
        """Cancel the unit entry (row, col) of d_k."""
        sb = mats[k]
        u = sb.rows[row][col]
        # other columns hitting this row
        other_cols = [(c, v) for c, v in list(sb.rows[row].items()) if c != col]
        pivot_col = dict(sb.cols[col])
        del pivot_col[row]
        sb.drop_col(col)
        sb.drop_row(row)
        for c, v in other_cols:
            # column c -= (v/u) * pivot column
            q = v * u  # u in {1,-1} so v/u == v*u
            for r, w in pivot_col.items():
                sb.add(r, c, -q * w)
            # the (row, c) entry is gone with drop_row already
        # drop the cancelled k-cell from d_{k+1} rows
        up = mats.get(k + 1)
        if up is not None:
            up.drop_row(col)
        # drop the cancelled (k-1)-cell from d_{k-1} columns
        down = mats.get(k - 1)
        if down is not None:
            down.drop_col(row)
        cells[k].discard(col)
        cells[k - 1].discard(row)

    # repeatedly sweep for unit entries; a queue per degree
    progress = True
    while progress:
        progress = False
        for k in degrees:
            sb = mats[k]
            # snapshot candidates; entries mutate under cancellation
            stack = [(r, c) for r, rowdict in sb.rows.items()
                     for c, v in rowdict.items() if v == 1 or v == -1]
            while stack:
                row, col = stack.pop()
                rowdict = sb.rows.get(row)
                if not rowdict or col not in rowdict:
                    continue
                if abs(rowdict[col]) != 1:
                    continue
                cancel(k, row, col)
                progress = True
                # harvest new unit entries touched by the update lazily:
                # the outer while loop will sweep again
    # assemble dense remainder
    new_dims: Dict[int, int] = {}
    index_of: Dict[int, Dict[int, int]] = {}
    for k in degrees:
        ordered = sorted(cells[k])
        index_of[k] = {cid: i for i, cid in enumerate(ordered)}
        new_dims[k] = len(ordered) + extra[k]
    boundaries: Dict[int, Matrix] = {}
    for k in degrees:
        if k - 1 not in new_dims:
            continue
        rows = new_dims[k - 1]
        cols = new_dims[k]
        M = [[0] * cols for _ in range(rows)]
        sb = mats[k]
        for col, entries in sb.cols.items():
            j = index_of[k][col]
            for row, coeff in entries.items():
                M[index_of[k - 1][row]][j] = coeff
        boundaries[k] = M
    return ChainComplexData(new_dims, boundaries)

"""Integer Morse complexes over the action window.

The chain group in degree k is free abelian on the window critical points
of Morse index k; the differential entries are the signed flowline counts
from the trajectory layer.  Everything past the counts is exact integer
arithmetic: d.d = 0 is checked entry by entry, homology comes out of the
Smith normal form (Betti numbers plus invariant factors, no field
shortcuts), and continuation counts become chain maps whose induced maps
on homology are tested for being isomorphisms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from .critical import CriticalPoint, canonical_key, find_critical_points
from .errors import (ConfigError, DegenerateCriticalPoint, MissingCount,
                     NotAComplex, NotChainMap)
from .flow import ContinuationResult, count_boundaries
from .intlinalg import (SNF, ChainComplexData, HomologyResult, Matrix,
                        homology_of_complex, kernel_basis, matmul,
                        smith_normal_form)
from .problem import ProblemSpec

__all__ = [
    "MorseComplex", "HomologyResult", "ChainMap", "InducedMap", "D2Report",
    "assemble_complex", "boundary_sources",
    "complex_from_counts", "generator_order",
    "require_nondegenerate", "window_complex",
    "verify_d_squared", "homology",
    "chain_map", "chain_map_from_counts",
    "continuation_chain_map", "induced_map", "induced_maps_agree",
    "euler_characteristic",
]


def _zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


# ---------------------------------------------------------------------------
# complexes


@dataclass(frozen=True, eq=False)
class MorseComplex:
    """A free integer chain complex on window critical points.

    ``generators[k]`` lists the index-k points sorted by (value,
    coordinates); ``boundaries[k]`` is the integer matrix of
    d_k : C_k -> C_{k-1} whose (i, j) entry is the signed count of
    flowlines from ``generators[k][j]`` down to ``generators[k-1][i]``.
    ``boundaries[0]`` is the empty matrix into the zero module, kept so
    the two tuples stay parallel.
    """

    problem: str
    eps: float
    window: Tuple[float, float]
    generators: Tuple[Tuple[CriticalPoint, ...], ...]
    boundaries: Tuple[Matrix, ...]

    @property
    def top(self) -> int:
        return len(self.generators) - 1

    def rank(self, k: int) -> int:
        if 0 <= k <= self.top:
            return len(self.generators[k])
        return 0

    def boundary(self, k: int) -> Matrix:
        if 1 <= k <= self.top:
            return self.boundaries[k]
        return _zeros(self.rank(k - 1), self.rank(k))

    def points(self) -> Tuple[CriticalPoint, ...]:
        """All generators flattened in ascending degree; continuation
        counts keyed by positions in this tuple line up with the degree
        blocks again."""
        return tuple(p for grp in self.generators for p in grp)

    def chain_data(self) -> ChainComplexData:
        dims = {k: self.rank(k) for k in range(self.top + 1)}
        bnds = {k: self.boundary(k) for k in range(1, self.top + 1)}
        return ChainComplexData(dims, bnds)


def _graded(pts: Sequence[CriticalPoint]) -> List[List[int]]:
    """Positions of ``pts`` by index, 0 up to the top one, each degree
    sorted by (value, coordinates): the generator order of a complex."""
    top = max((p.index for p in pts), default=-1)
    order: List[List[int]] = [[] for _ in range(top + 1)]
    for i, p in enumerate(pts):
        order[p.index].append(i)
    for grp in order:
        grp.sort(key=lambda i: canonical_key(pts[i]))
    return order


def generator_order(points: Sequence[CriticalPoint]
                    ) -> Tuple[CriticalPoint, ...]:
    """``points`` as ``points()`` of a complex assembled on them lists
    its generators, known before any count."""
    pts = list(points)
    return tuple(pts[i] for grp in _graded(pts) for i in grp)


def assemble_complex(points: Sequence[CriticalPoint],
                     counts: Mapping[Tuple[int, int], int],
                     problem: str = "", eps: float = float("nan"),
                     window: Optional[Tuple[float, float]] = None
                     ) -> MorseComplex:
    """Build a MorseComplex from points and pairwise flowline counts.

    ``counts`` is keyed by (source, target) positions in the input
    sequence.  Every pair whose indices differ by exactly one must carry a
    count, zeros included; a missing pair raises MissingCount, because an
    absent count and a zero count mean different things when the counting
    stage can fail.  Counts on other pairs must be zero.
    """
    pts = list(points)
    a, b = (-math.inf, math.inf) if window is None else \
        (float(window[0]), float(window[1]))
    for i, p in enumerate(pts):
        if not a < p.value < b:
            raise ConfigError(
                f"generator {i} has value {p.value:.6g} outside the window "
                f"({a:g}, {b:g})")
        if p.degenerate:
            raise DegenerateCriticalPoint(
                f"generator {i} at {np.round(p.location, 6)} is degenerate; "
                "its index is not well defined")

    order = _graded(pts)
    top = len(order) - 1
    slot = {i: s for grp in order for s, i in enumerate(grp)}

    mats: List[Matrix] = []
    if top >= 0:
        mats.append(_zeros(0, len(order[0])))
        for k in range(1, top + 1):
            mats.append(_zeros(len(order[k - 1]), len(order[k])))

    seen = set()
    for (i, j), c in counts.items():
        if not (0 <= i < len(pts) and 0 <= j < len(pts)):
            raise ConfigError(f"count key ({i}, {j}) is out of range")
        drop = pts[i].index - pts[j].index
        if drop != 1:
            if int(c) != 0:
                raise ConfigError(
                    f"nonzero count between indices {pts[i].index} and "
                    f"{pts[j].index}; only drops of exactly one are counted")
            continue
        mats[pts[i].index][slot[j]][slot[i]] = int(c)
        seen.add((i, j))
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            if p.index - q.index == 1 and (i, j) not in seen:
                raise MissingCount(
                    f"no flowline count from generator {i} "
                    f"(index {p.index}, value {p.value:.6g}) to generator "
                    f"{j} (index {q.index}, value {q.value:.6g})")

    generators = tuple(tuple(pts[i] for i in grp) for grp in order)
    return MorseComplex(problem, float(eps), (a, b), generators,
                        tuple(mats))


def boundary_sources(points: Sequence[CriticalPoint]) -> List[int]:
    """Positions of the points of positive index k that have an
    index-(k-1) point among ``points``: the sources whose boundary the
    window complex counts."""
    indices = {p.index for p in points}
    return [i for i, p in enumerate(points)
            if p.index > 0 and p.index - 1 in indices]


def require_nondegenerate(points: Sequence[CriticalPoint],
                          eps: float) -> None:
    """Raise DegenerateCriticalPoint on the first degenerate window point:
    a window complex refuses one, and ``critical.morsify`` is the
    library's tilt that splits it."""
    for p in points:
        if p.degenerate:
            raise DegenerateCriticalPoint(
                f"window critical point at {np.round(p.location, 6)} is "
                f"degenerate at eps = {eps:g}; degenerate window points "
                "are refused")


def complex_from_counts(problem: ProblemSpec, eps: float,
                        points: Sequence[CriticalPoint],
                        per_source: Iterable[Tuple[int, Mapping[int, int],
                                                   Sequence[str]]]
                        ) -> MorseComplex:
    """The window complex from per-source counts.

    ``per_source`` yields (source position, counts, warnings) with the
    counts keyed by positions in ``points``, as ``count_boundaries``
    keys them when ``points`` are its targets; counts whose index drop is
    not one are ignored.  The first source with warnings raises
    MissingCount, before later sources are drawn: a count that came with
    a warning is not one to build homology on.
    """
    pts = list(points)
    counts: Dict[Tuple[int, int], int] = {}
    for i, source_counts, warnings in per_source:
        if warnings:
            raise MissingCount("; ".join(f"source {i}: {w}"
                                         for w in warnings))
        for j, c in source_counts.items():
            if pts[j].index == pts[i].index - 1:
                counts[(i, j)] = c
    return assemble_complex(pts, counts, problem=problem.name, eps=eps,
                            window=(problem.window.a, problem.window.b))


def window_complex(problem: ProblemSpec, eps: float,
                   seed: int = 0) -> MorseComplex:
    """Locate the window critical points of f_eps and count their
    boundary flowlines into one Morse complex.

    One ``count_boundaries`` call counts every source of
    ``boundary_sources`` with all window points as targets, in one batch
    at its launch radius and step budget; the index-0 points absorb the
    index-1 launches.  Any warning from the counting stage raises
    MissingCount (see ``complex_from_counts``).
    """
    cs = find_critical_points(problem, eps, seed=seed)
    pts = list(cs.inside_window())
    require_nondegenerate(pts, eps)
    sources = boundary_sources(pts)
    results = count_boundaries(problem, eps, [pts[i] for i in sources], pts)
    return complex_from_counts(
        problem, eps, pts,
        ((i, r.counts, r.warnings) for i, r in zip(sources, results)))


# ---------------------------------------------------------------------------
# d.d = 0 and homology


@dataclass(frozen=True)
class D2Report:
    """Outcome of the exact d.d = 0 check.

    Each witness is (degree k, column j, row i, value): the degree-k
    generator j whose double boundary hits the degree-(k-2) generator i
    with a nonzero coefficient.
    """

    ok: bool
    witnesses: Tuple[Tuple[int, int, int, int], ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "d.d = 0"
        k, j, i, v = self.witnesses[0]
        return (f"d.d has entry {v} from generator {j} of degree {k} to "
                f"generator {i} of degree {k - 2}"
                + (f" ({len(self.witnesses)} nonzero entries in total)"
                   if len(self.witnesses) > 1 else ""))


def verify_d_squared(cx: MorseComplex) -> D2Report:
    """Multiply consecutive boundary matrices over the integers and report
    every nonzero entry of the product."""
    wit = []
    for k in range(2, cx.top + 1):
        P = matmul(cx.boundary(k - 1), cx.boundary(k), cx.rank(k))
        for i, row in enumerate(P):
            for j, v in enumerate(row):
                if v:
                    wit.append((k, j, i, v))
    return D2Report(not wit, tuple(wit))


def homology(cx: MorseComplex) -> HomologyResult:
    """Integer homology of the complex, degree by degree.

    Raises NotAComplex when the complex fails verify_d_squared, where
    the Smith normal form numbers would mean nothing.
    """
    d2 = verify_d_squared(cx)
    if not d2:
        raise NotAComplex(f"boundary square check failed: {d2.describe()}")
    return homology_of_complex(cx.chain_data())


def euler_characteristic(points: Iterable[CriticalPoint]) -> int:
    """Alternating sum over Morse indices; needs no trajectory counts and
    works in any ambient dimension."""
    return sum(1 if p.index % 2 == 0 else -1 for p in points)


# ---------------------------------------------------------------------------
# chain maps


@dataclass(frozen=True, eq=False)
class ChainMap:
    """Degreewise integer matrices between two complexes, already checked
    to commute with the boundaries exactly."""

    source: MorseComplex
    target: MorseComplex
    matrices: Tuple[Matrix, ...]
    notes: Tuple[str, ...] = ()

    @property
    def top(self) -> int:
        return len(self.matrices) - 1

    def degree(self, k: int) -> Matrix:
        if 0 <= k <= self.top:
            return self.matrices[k]
        return _zeros(self.target.rank(k), self.source.rank(k))


def _commutation_witnesses(source: MorseComplex, target: MorseComplex,
                           mats: Sequence[Matrix]):
    out = []
    for k in range(1, len(mats)):
        lhs = matmul(target.boundary(k), mats[k], source.rank(k))
        rhs = matmul(mats[k - 1], source.boundary(k), source.rank(k))
        for i in range(target.rank(k - 1)):
            for j in range(source.rank(k)):
                v = lhs[i][j] - rhs[i][j]
                if v:
                    out.append((k, j, i, v))
    return out


def chain_map(source: MorseComplex, target: MorseComplex,
              matrices: Sequence[Matrix],
              notes: Sequence[str] = ()) -> ChainMap:
    """Validate shapes and exact commutation d.c = c.d; raises NotChainMap
    with the offending entries attached as ``witnesses``."""
    D = max(source.top, target.top)
    mats: List[Matrix] = []
    for k in range(D + 1):
        r, c = target.rank(k), source.rank(k)
        M = matrices[k] if k < len(matrices) else _zeros(r, c)
        if len(M) != r or any(len(row) != c for row in M):
            raise ConfigError(
                f"degree {k} block must be {r} x {c} "
                f"(target rank x source rank)")
        mats.append([[int(v) for v in row] for row in M])
    wit = _commutation_witnesses(source, target, mats)
    if wit:
        k, j, i, v = wit[0]
        err = NotChainMap(
            f"commutation fails in degree {k}: (d.c - c.d) sends source "
            f"generator {j} to target generator {i} with coefficient {v}"
            + (f"; {len(wit)} violations in total" if len(wit) > 1 else ""))
        err.witnesses = tuple(wit)
        raise err
    return ChainMap(source, target, tuple(mats), tuple(notes))


def _flat_places(cx: MorseComplex) -> List[Tuple[int, int]]:
    return [(k, s) for k in range(cx.top + 1)
            for s in range(cx.rank(k))]


def chain_map_from_counts(source: MorseComplex, target: MorseComplex,
                          counts: Union[Mapping[Tuple[int, int], int],
                                        ContinuationResult]) -> ChainMap:
    """Chain map whose degree blocks are filled from continuation counts.

    ``counts`` is keyed by (source position, target position) into the
    ``points()`` tuples of the two complexes, the layout
    continuation_trajectories reports when run on exactly those tuples;
    absent pairs are zero.  A ContinuationResult is accepted directly and
    contributes its warnings to the map's notes.
    """
    notes: Tuple[str, ...] = ()
    if isinstance(counts, ContinuationResult):
        notes = counts.warnings + (
            f"continuation ran at delta {counts.delta:g} "
            f"after {counts.halvings} halvings",)
        counts = counts.counts
    src_place = _flat_places(source)
    tgt_place = _flat_places(target)
    D = max(source.top, target.top)
    mats = [_zeros(target.rank(k), source.rank(k)) for k in range(D + 1)]
    for (si, ti), c in counts.items():
        if not (0 <= si < len(src_place) and 0 <= ti < len(tgt_place)):
            raise ConfigError(f"count key ({si}, {ti}) is out of range")
        ks, cs = src_place[si]
        kt, rt = tgt_place[ti]
        if ks != kt:
            if int(c) != 0:
                raise ConfigError(
                    f"continuation count links index {ks} to index {kt}; "
                    "the counts must preserve the Morse index")
            continue
        mats[ks][rt][cs] = int(c)
    return chain_map(source, target, mats, notes)


# ---------------------------------------------------------------------------
# induced maps on homology


class _Presentation:
    """H_k as cokernel data in kernel coordinates.

    Columns of K form a basis of ker d_k spanning a direct summand of
    C_k, so kernel vectors have well defined integer coordinates (rows of
    Tinv past the rank).  P expresses the columns of d_{k+1} in those
    coordinates; H_k = Z^z / col-span(P).
    """

    def __init__(self, cx: MorseComplex, k: int):
        A = cx.boundary(k)
        n = cx.rank(k)
        self.n = n
        self.K, self.free, self.snf = kernel_basis(A, n)
        self.z = len(self.free)
        self.P = self.coords(cx.boundary(k + 1), cx.rank(k + 1))
        self._span_snf: Optional[SNF] = None

    def coords(self, M: Matrix, cols: int) -> Matrix:
        W = matmul(self.snf.Tinv, M, cols)
        free = set(self.free)
        for r in range(self.n):
            if r not in free and any(W[r]):
                raise NotChainMap(
                    "a chain map column left the kernel of the boundary; "
                    "the map cannot descend to homology")
        return [W[r] for r in self.free]

    def contains(self, v: Sequence[int]) -> bool:
        """Whether v lies in the column span of P (i.e. is a boundary)."""
        if self._span_snf is None:
            self._span_snf = smith_normal_form(
                self.P if self.z else [], transforms=True)
        snf = self._span_snf
        for i in range(self.z):
            w = sum(snf.S[i][r] * v[r] for r in range(self.z))
            if i < snf.rank:
                if w % snf.D[i][i] != 0:
                    return False
            elif w != 0:
                return False
        return True


@dataclass(frozen=True, eq=False)
class InducedMap:
    """A chain map together with its effect on homology.

    ``matrices[k]`` is the induced block in kernel coordinates of the two
    complexes.  The isomorphism verdict combines two exact tests per
    degree: the groups agree as abstract groups, and the induced map is
    onto (columns of the block together with the target's boundary
    presentation generate everything).  For finitely generated abelian
    groups a surjection between isomorphic groups is an isomorphism, so
    the pair of tests decides the question.
    """

    chain: ChainMap
    source_homology: HomologyResult
    target_homology: HomologyResult
    matrices: Tuple[Matrix, ...]
    isomorphism: bool
    failures: Tuple[str, ...] = ()


def induced_map(cm: ChainMap) -> InducedMap:
    """Descend a chain map to homology and test it degree by degree."""
    h_s = homology(cm.source)
    h_t = homology(cm.target)
    D = max(cm.source.top, cm.target.top)
    blocks: List[Matrix] = []
    failures: List[str] = []
    for k in range(D + 1):
        ps = _Presentation(cm.source, k)
        pt = _Presentation(cm.target, k)
        img = matmul(cm.degree(k), ps.K, ps.z)
        Mk = pt.coords(img, ps.z)
        blocks.append(Mk)

        gs, gt = h_s.group_name(k), h_t.group_name(k)
        if gs != gt:
            failures.append(f"degree {k}: groups differ ({gs} vs {gt})")
            continue
        if pt.z:
            block = [Mk[i] + pt.P[i] for i in range(pt.z)]
            snf = smith_normal_form(block, transforms=False)
            onto = (snf.rank == pt.z
                    and all(d == 1 for d in snf.invariant_factors))
            if not onto:
                failures.append(
                    f"degree {k}: induced map is not onto the target "
                    "homology")
    return InducedMap(cm, h_s, h_t, tuple(blocks), not failures,
                      tuple(failures))


def continuation_chain_map(source: MorseComplex, target: MorseComplex,
                           counts: Union[Mapping[Tuple[int, int], int],
                                         ContinuationResult]) -> InducedMap:
    """Chain map from continuation counts, descended to homology.

    Both complexes must sit over the same action window.  Raises
    NotChainMap when the counts fail d.c = c.d.
    """
    if source.window != target.window:
        raise ConfigError(
            f"window mismatch: source {source.window} vs target "
            f"{target.window}")
    return induced_map(chain_map_from_counts(source, target, counts))


def induced_maps_agree(a: InducedMap, b: InducedMap) -> bool:
    """Whether two maps between the same two complexes agree on homology,
    column by column modulo boundaries of the target."""
    if a.chain.source is not b.chain.source or \
            a.chain.target is not b.chain.target:
        raise ConfigError(
            "maps must share their source and target complexes")
    for k in range(len(a.matrices)):
        Ma, Mb = a.matrices[k], b.matrices[k]
        if not Ma:
            continue
        pt = _Presentation(a.chain.target, k)
        for j in range(len(Ma[0])):
            diff = [Ma[i][j] - Mb[i][j] for i in range(pt.z)]
            if not pt.contains(diff):
                return False
    return True


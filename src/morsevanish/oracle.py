"""Cubical ground truth for window homology.

Everything here works on a uniform grid over a finite box.  Top cells
are classified by evaluating f_eps at their centers (by broadcasting the
per-axis center coordinates, never as a list of points), the two
sublevel sets {f_eps <= Lam} and {f_eps <= -lam} become cubical
complexes by closing the classified cells, and the relative homology of
that pair is computed exactly over Z.  None of the gradient-flow
machinery is involved, which is the point: numbers coming out of this
module are an independent check on the Morse complex.  Of the Morse
side it shares only the expression layer and the exact layer
``intlinalg``; it never loads ``critical``, ``flow`` or ``homology``.

The grid is evaluated in blocks of about 2^15 points (``_CHUNK``), cut
across as many leading axes as it takes, so the tape's temporaries for
a block stay in L2 cache even in dimension four.  A pair holds its top
cells only packed, one bit per cell in little-endian 64-bit words along
the last axis, with a spare bit at the top of every row; the blocks of
each leading index are packed as soon as they are classified, so no
boolean grid of the full box is ever built.  Closing the top cells
works on the words, a slab of a few rows of axis 0 at a time, so no
box-sized scratch exists beside them: dilation along a leading axis is
an OR of shifted words, along the last axis a one-bit shift, and a
degree's cell count is a sum of popcounts.

The relative complex lives as a boolean mask on the doubled-index
(Khalimsky) grid, and it is shrunk there before any sparse matrix
exists: whole-array passes of free-face collapse and coreduction
(Mrozek and Batko, DCG 41, 2009; Harker, Mischaikow, Mrozek and Nanda,
FoCM 14, 2014) remove pairs of cells whose incidence is a unit pivot
with nothing else in its row or column.  Such a pair changes no
boundary among the cells that stay, so the few survivors are read off
into sparse boundaries and go straight to the dense Smith normal form
of ``intlinalg``; on every catalog entry up to 3-D they are exactly
the Betti numbers.  Every degree the relative complex had is still
reported, with a zero group where the collapse emptied it.

Truncating at a box is exact (excision) whenever the relative region
keeps one clear cell of margin from every wall.  Problems whose
relative region genuinely runs off to infinity, like the asymptotic
cone of a saddle, are handled empirically instead: the box doubles
until the computed answer stops changing.

Hand-checked reference pairs used by the catalog at eps = 0.1,
window (-1, 10]:

* z^2 realified: a disk against two lobes, H_1 = Z.
* z^d realified: a disk against d lobes, H_1 = Z^(d-1).
* x^2 with tau = 1/(1+x^2): one bounded minimum at value eps, H_0 = Z.
* x^4 - x^2: both wells and the hump sit inside the window, H_0 = Z.
* y + eps/y on the open ray: minimum 2 sqrt(eps), lower set empty,
  H_0 = Z.
* -1/y + eps/(2 y^2) on the ray: the only critical value -1/(2 eps)
  dives below the window, so the pair is an interval against a
  subinterval and everything cancels.
* -1/y1 - 1/y2 with tau = y1 y2: the corner saddle at value -1/eps is
  below the window; the total set retracts onto the sub set, trivial.
* x + x^2 y realified (ambient dimension four): only the Euler count
  chi = +1 is checkable here.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .compactify import AlgebraicProblem, realify
from .errors import ConfigError, ResolutionTooCoarse, UnknownEntry
from .expr import compile, parse_expression
from .intlinalg import HomologyResult, homology_of_complex, reduce_complex
from .metric import MetricSpec
from .problem import (DEFAULT_WINDOW, DomainModel, ProblemSpec,
                      perturbed_function)

__all__ = [
    "CubicalPair", "CatalogEntry",
    "build_pair", "sublevel_pair_homology", "pair_euler_characteristic",
    "catalog_lookup", "catalog_names",
]

# points per grid block: the tape's temporaries for one block fit in L2
_CHUNK = 1 << 15
# the highest ambient dimension with exact cubical homology; above it
# only the Euler count runs
EXACT_MAX_DIM = 3


def _per_axis(resolution, n: int) -> Tuple[int, ...]:
    if isinstance(resolution, (int, np.integer)):
        res = (int(resolution),) * n
    else:
        res = tuple(int(r) for r in resolution)
    if len(res) != n:
        raise ConfigError(f"resolution names {len(res)} axes, the box has {n}")
    if any(r < 1 for r in res):
        raise ConfigError("resolution must be at least one cell per axis")
    return res


def _axis_centers(box, res) -> list:
    return [lo + (np.arange(r) + 0.5) * (hi - lo) / r
            for (lo, hi), r in zip(box, res)]


def _blocks(res):
    """Index tuples cutting the grid into blocks of at most _CHUNK points.

    The trailing axes that fit in a block are taken whole, the next axis
    is cut into runs and the leading axes before it go one index at a
    time, so a block's value array stays about cache-sized whatever the
    dimension.
    """
    k = 0
    while math.prod(res[k + 1:]) > _CHUNK:
        k += 1
    step = max(1, _CHUNK // math.prod(res[k + 1:]))
    for head in itertools.product(*(range(r) for r in res[:k])):
        for i0 in range(0, res[k], step):
            yield (tuple(slice(i, i + 1) for i in head)
                   + (slice(i0, i0 + step),))


def _top_masks(fe, names, box, res, lam, Lam):
    """Packed top cells (``_pack``) of {f_eps <= Lam} and {f_eps <= -lam}.

    Centers where the function is undefined evaluate to nan and land in
    neither set.  Evaluation runs block by block (``_blocks``) so the
    temporaries of the tape stay in cache in dimension four; the blocks
    of one leading index fill one bool slab, which is packed at once, so
    no full-size bool mask ever exists.
    """
    tape = compile((fe,), names)
    axes = _axis_centers(box, res)
    k = len(next(_blocks(res))) - 1
    slab = np.empty((2,) + res[k:], dtype=bool)
    total = np.empty(res[:-1] + (res[-1] // 64 + 1,), dtype="<u8")
    sub = np.empty_like(total)
    for head, run in itertools.groupby(_blocks(res), lambda b: b[:k]):
        for block in run:
            (vals,) = tape.grid([a[i] for a, i in zip(axes, block)]
                                + axes[k + 1:])
            vals = vals[(0,) * k]
            np.less_equal(vals, Lam, out=slab[0, block[k]])
            np.less_equal(vals, -lam, out=slab[1, block[k]])
        at = tuple(i.start for i in head)
        total[at], sub[at] = _pack(slab)
    return total, sub


def _pack(top: np.ndarray) -> np.ndarray:
    """The mask as little-endian 64-bit words along its last axis.

    Bit i of a row is cell i.  Each row keeps at least one spare bit at
    its top, room for the one extra vertex that dilation along the last
    axis adds.
    """
    words = top.shape[-1] // 64 + 1
    out = np.zeros(top.shape[:-1] + (8 * words,), dtype=np.uint8)
    out[..., :(top.shape[-1] + 7) // 8] = np.packbits(top, axis=-1,
                                                      bitorder="little")
    return out.view("<u8")


def _dilate(words: np.ndarray, j: int, buf: np.ndarray) -> np.ndarray:
    """Vertex coverage along axis j: cell i marks positions i and i+1.

    Along a leading axis this is the shifted OR of whole words; along
    the packed last axis it is ``w | w << 1`` with each word's top bit
    carried into the next word of its row.  The spare bit keeps every
    row's top bit clear, so nothing is carried out of a row.  The result
    is a view of the flat buffer ``buf``.
    """
    if j == words.ndim - 1:
        out = buf[:words.size].reshape(words.shape)
        np.left_shift(words, 1, out=out)
        out |= words
        if words.shape[-1] > 1:
            out[..., 1:] |= words[..., :-1] >> 63
        return out
    shape = words.shape[:j] + (words.shape[j] + 1,) + words.shape[j + 1:]
    out = buf[:math.prod(shape)].reshape(shape)
    lead = (slice(None),) * j
    out[lead + (0,)] = words[lead + (0,)]
    out[lead + (-1,)] = words[lead + (-1,)]
    np.bitwise_or(words[lead + (slice(None, -1),)],
                  words[lead + (slice(1, None),)],
                  out=out[lead + (slice(1, -1),)])
    return out


def _walk(words, spans, bufs):
    """The patterns of ``_span_patterns`` below the decided ``spans``.

    The level buffers come in as an argument: a nested generator that
    closed over them would sit in a reference cycle with them, and
    every count would leave its buffers to the cycle collector.
    """
    j = len(spans)
    if j == words.ndim:
        yield spans, words
        return
    yield from _walk(_dilate(words, j, bufs[j]), spans + (False,), bufs)
    yield from _walk(words, spans + (True,), bufs)


def _span_patterns(words: np.ndarray):
    """Yield (spans, row, cells) for the 2^n spanning patterns, one slab
    of axis 0 at a time.

    ``cells`` marks, in packed words (``_pack``), the closure's cells
    that span exactly the axes j with ``spans[j]``, in the slab's rows of
    axis 0 from ``row`` on: the top cells dilated along every other axis.
    Vertex plane i of axis 0 is ``words[i-1] | words[i]`` (rows -1 and
    R_0 empty), the cells spanning row i are ``words[i]``.  A slab takes
    as many rows as keep the level buffers of its walk near _CHUNK words
    in all; in one dimension the packed row is the one slab.  A slab
    walks the other axes as a binary tree that decides one axis per level
    and shares each dilation with the subtree below it: 2^n - 1 dilations
    in place of n 2^(n-1).  Level j dilates into a flat buffer of its own
    that holds the slab's axes up to j grown by one vertex, so ``cells``
    is only valid until the next pattern is drawn.
    """
    if words.ndim == 1:
        for spans, cells in _walk(words, (), [np.empty_like(words)]):
            yield spans, 0, cells
        return
    n, rows = words.ndim, len(words)
    h = max(1, _CHUNK // (n * words[0].size))
    slab = (min(h, rows) + 1,) + words.shape[1:]
    bufs = [np.empty(math.prod(w + (i <= j) for i, w in enumerate(slab[:-1]))
                     * slab[-1], dtype=words.dtype) for j in range(n)]
    for i in range(0, rows + 1, h):
        lo = max(i - 1, 0)  # the row before the slab closes its first plane
        planes = _dilate(words[lo:i + h], 0, bufs[0])[i - lo:i - lo + h]
        for spans, cells in itertools.chain(
                _walk(planes, (False,), bufs),
                _walk(words[i:i + h], (True,), bufs)):
            yield spans, i, cells


def _closed_counts(words: np.ndarray) -> list:
    """Cell counts per degree of the closure of the packed top cells: the
    popcounts of ``_span_patterns``, summed slab by slab."""
    counts = [0] * (words.ndim + 1)
    for spans, _, cells in _span_patterns(words):
        counts[sum(spans)] += int(np.bitwise_count(cells).sum())
    return counts


def _khalimsky(words: np.ndarray, res) -> np.ndarray:
    """Closure of the packed top cells on the doubled-index grid.

    A cell lives at coordinates in {0..2R_i}: odd means the cell spans
    that axis, even means it sits at a vertex plane.  The cell's degree
    is the number of odd coordinates.
    """
    kh = np.zeros(tuple(2 * r + 1 for r in res), dtype=bool)
    for spans, row, cells in _span_patterns(words):
        top = np.unpackbits(cells.view(np.uint8), axis=-1,
                            count=res[-1] + (not spans[-1]),
                            bitorder="little")
        kh[2 * row:][tuple(slice(int(s), None, 2) for s in spans)][
            :len(top)] = top
    return kh


def _crop(rel: np.ndarray) -> np.ndarray:
    """The bounding box of the marked cells, widened to even ends.

    Even ends keep every face of a cropped cell inside the crop and keep
    coordinate parity, hence cell degree, where it was.  An empty mask
    crops to one vertex.
    """
    box = []
    for j in range(rel.ndim):
        hit = np.flatnonzero(rel.any(axis=tuple(i for i in range(rel.ndim)
                                                if i != j)))
        if not hit.size:
            return rel[(slice(0, 1),) * rel.ndim]
        box.append(slice(hit[0] - hit[0] % 2, hit[-1] + 1 + hit[-1] % 2))
    return rel[tuple(box)]


def _adjacent(ndim: int):
    """Index pairs (even, odd) that line each cell up with a neighbour.

    Along axis j the cell at odd coordinate 2m+1 has the faces 2m and
    2m+2, so the even slab shifted down or up by one pairs off with the
    odd slab; over all axes these 2n alignments are every face-coface
    incidence of the grid.  The grid must have even ends (``_crop``).
    """
    for j in range(ndim):
        head = (slice(None),) * j
        odd = head + (slice(1, None, 2),)
        yield head + (slice(0, -1, 2),), odd
        yield head + (slice(2, None, 2),), odd


def _collapse(rel: np.ndarray) -> np.ndarray:
    """Shrink the relative complex by free-face collapse and coreduction.

    A collapse pass counts each cell's cofaces in ``rel``, a coreduction
    pass its faces; a cell with exactly one claims that neighbour unless
    either is already claimed, one alignment at a time in a fixed order,
    and every claimed pair leaves at once.  Such a pair is a unit pivot
    whose row (collapse) or column (coreduction) has no other entry, so
    cancelling it changes no boundary among the cells that stay and the
    survivors carry the same homology.  Passes alternate until neither
    kind removes a cell; the survivors come back cropped (``_crop``).
    """
    rel = _crop(rel)
    pairs = list(_adjacent(rel.ndim))
    idle = 0
    for coreduce in itertools.cycle((False, True)):
        count = np.zeros(rel.shape, dtype=np.uint8)
        for ev, od in pairs:
            cell, partner = (od, ev) if coreduce else (ev, od)
            count[cell] += rel[partner]
        free = rel & (count == 1)
        taken = np.zeros(rel.shape, dtype=bool)
        for ev, od in pairs:
            cell, partner = (od, ev) if coreduce else (ev, od)
            ok = free[cell] & rel[partner] & ~taken[cell] & ~taken[partner]
            taken[cell] |= ok
            taken[partner] |= ok
        if taken.any():
            rel = _crop(rel & ~taken)
            idle = 0
        else:
            idle += 1
            if idle == 2:
                return rel


def _relative_data(rel: np.ndarray):
    """dims and sparse boundary dicts of the relative complex.

    Cell ids are flat indices into the doubled grid; a face of a
    relative cell is dropped when it lies in the subcomplex, which is
    exactly how the quotient boundary acts on the cell basis.  The face
    through the upper end of axis j carries sign +(-1)^(number of
    spanning axes before j), the lower end the opposite, the usual
    product orientation.
    """
    coords = np.argwhere(rel)
    dims: Dict[int, int] = {}
    sparse: Dict[int, Dict[int, Dict[int, int]]] = {}
    if coords.size == 0:
        return dims, sparse
    shape = rel.shape
    strides = np.empty(len(shape), dtype=np.int64)
    strides[-1] = 1
    for j in range(len(shape) - 2, -1, -1):
        strides[j] = strides[j + 1] * shape[j + 1]
    flat = coords @ strides
    odd = coords % 2 == 1
    degree = odd.sum(axis=1)
    for k, c in zip(*np.unique(degree, return_counts=True)):
        dims[int(k)] = int(c)
        if k >= 1:
            sparse[int(k)] = {}
    rel_flat = rel.reshape(-1)
    for i in range(len(coords)):
        k = int(degree[i])
        if k == 0:
            continue
        base = int(flat[i])
        entries: Dict[int, int] = {}
        sign = 1
        for j in np.flatnonzero(odd[i]):
            step = int(strides[j])
            if rel_flat[base + step]:
                entries[base + step] = sign
            if rel_flat[base - step]:
                entries[base - step] = -sign
            sign = -sign
        sparse[k][base] = entries
    return dims, sparse


@dataclass(frozen=True, eq=False)
class CubicalPair:
    """Top cells of the pair ({f_eps <= Lam}, {f_eps <= -lam}).

    Both sets are packed one bit per grid cube of the box (``_pack``):
    little-endian 64-bit words along the last axis, bit i of a row for
    cell i, the bits past the last cell clear.  The sub set is always
    contained in the total set.
    """

    box: Tuple[Tuple[float, float], ...]
    resolution: Tuple[int, ...]
    total_words: np.ndarray
    sub_words: np.ndarray

    def __post_init__(self):
        res = self.resolution
        shape = res[:-1] + (res[-1] // 64 + 1,)
        w, b = divmod(res[-1], 64)
        for words in (self.total_words, self.sub_words):
            if (words.shape != shape or words.dtype != np.dtype("<u8")
                    or (words[..., w] >> b).any()):
                raise ConfigError("packed top cells disagree with the "
                                  "stated resolution")
        if bool(np.any(self.sub_words & ~self.total_words)):
            raise ConfigError("sub-level mask escapes the total mask; "
                              "the level pair is inverted")

    @property
    def dimension(self) -> int:
        return len(self.resolution)

    def cell_counts(self) -> Tuple[int, ...]:
        """Relative cell counts per degree of the closed pair."""
        full = _closed_counts(self.total_words)
        below = _closed_counts(self.sub_words)
        return tuple(a - b for a, b in zip(full, below))

    @property
    def euler(self) -> int:
        return sum((-1) ** k * c for k, c in enumerate(self.cell_counts()))

    def homology(self) -> HomologyResult:
        if self.dimension > EXACT_MAX_DIM:
            raise ConfigError("exact cubical homology stops at ambient "
                              f"dimension {EXACT_MAX_DIM}; use the Euler "
                              "count instead")
        counts = self.cell_counts()
        rel = (_khalimsky(self.total_words, self.resolution)
               & ~_khalimsky(self.sub_words, self.resolution))
        dims, sparse = _relative_data(_collapse(rel))
        # a degree the collapse emptied still reports its zero group
        dims = {k: dims.get(k, 0) for k, c in enumerate(counts) if c}
        return homology_of_complex(reduce_complex(dims, sparse))


def build_pair(problem: ProblemSpec, eps: float,
               lam: Optional[float] = None, Lam: Optional[float] = None,
               box=None, resolution=32) -> CubicalPair:
    """Classify top cells of the box by the value of f_eps at centers."""
    lam = problem.window.lam if lam is None else float(lam)
    Lam = problem.window.Lam if Lam is None else float(Lam)
    if not -lam < Lam:
        raise ConfigError(f"sublevel pair (-{lam:g}, {Lam:g}) is inverted")
    box = tuple((float(lo), float(hi))
                for lo, hi in (box if box is not None else problem.domain.box))
    res = _per_axis(resolution, len(box))
    if len(problem.variables) != len(box):
        raise ConfigError("box dimension disagrees with the problem")
    fe = perturbed_function(problem, eps)
    total, sub = _top_masks(fe, problem.variables, box, res, lam, Lam)
    return CubicalPair(box, res, total, sub)


def _touches_rim(pair: CubicalPair) -> bool:
    """Whether the relative region total & ~sub reaches a wall of the box.

    Only the 2n faces of the grid are read, never the whole relative
    set: the end slabs of each leading axis, and bits 0 and r - 1 of
    the packed last axis.
    """
    total, sub = pair.total_words, pair.sub_words
    for j in range(pair.dimension - 1):
        for end in (0, -1):
            if (total.take(end, axis=j) & ~sub.take(end, axis=j)).any():
                return True
    for cell in (0, pair.resolution[-1] - 1):
        w, b = divmod(cell, 64)
        if ((total[..., w] & ~sub[..., w]) >> b & 1).any():
            return True
    return False


def _grow_box(box, intervals):
    """Double each axis about its center, clipped to the domain.

    A finite domain end pins the corresponding box end where it is (the
    original box already sits a margin inside the domain); growth past
    it would step outside the problem.
    """
    out = []
    changed = False
    for (lo, hi), (ilo, ihi) in zip(box, intervals):
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nlo, nhi = c - 2.0 * h, c + 2.0 * h
        if math.isfinite(ilo):
            nlo = min(lo, max(nlo, ilo + 1e-3))
        if math.isfinite(ihi):
            nhi = max(hi, min(nhi, ihi - 1e-3))
        if (nlo, nhi) != (lo, hi):
            changed = True
        out.append((nlo, nhi))
    return tuple(out), changed


_HOMOLOGY_DOUBLINGS = 5
_EULER_DOUBLINGS = 3


def sublevel_pair_homology(problem: ProblemSpec, eps: float,
                           lam: Optional[float] = None,
                           Lam: Optional[float] = None,
                           resolution=32) -> HomologyResult:
    """Relative integer homology of ({f_eps <= Lam}, {f_eps <= -lam}).

    The box starts at the problem's search box and doubles (at most
    _HOMOLOGY_DOUBLINGS times), at fixed cell size, until either the
    relative region keeps one clear cell away from every wall (truncation
    is then exact) or the computed groups stop changing between
    consecutive boxes.  The final box is then recomputed at twice the
    resolution and both answers must agree.

    Raises ResolutionTooCoarse when the growth budget runs out or the
    refinement cross-check disagrees.
    """
    n = len(problem.variables)
    if n > EXACT_MAX_DIM:
        raise ConfigError("exact cubical homology stops at ambient dimension "
                          f"{EXACT_MAX_DIM}; use the Euler count instead")
    box = tuple(problem.domain.box)
    res = _per_axis(resolution, n)
    cell = [(hi - lo) / r for (lo, hi), r in zip(box, res)]
    prev = None
    for _ in range(_HOMOLOGY_DOUBLINGS + 1):
        pair = build_pair(problem, eps, lam, Lam, box=box, resolution=res)
        h = pair.homology()
        if not _touches_rim(pair):
            break
        if prev is not None and h.same_as(prev):
            break
        nbox, changed = _grow_box(box, problem.domain.intervals)
        if not changed:
            break
        prev = h
        box = nbox
        res = tuple(max(r, int(round((hi - lo) / c)))
                    for (lo, hi), r, c in zip(box, res, cell))
    else:
        raise ResolutionTooCoarse(
            f"relative homology kept changing as the box grew to {box}")
    fine = build_pair(problem, eps, lam, Lam, box=box,
                      resolution=tuple(2 * r for r in res))
    if not fine.homology().same_as(h):
        raise ResolutionTooCoarse(
            "relative homology changes under a 2x grid refinement; "
            "raise the resolution")
    return h


def pair_euler_characteristic(problem: ProblemSpec, eps: float,
                              lam: Optional[float] = None,
                              Lam: Optional[float] = None,
                              resolution=64) -> int:
    """Alternating relative cell count of the pair, ambient dim <= 4.

    The box doubles (at most _EULER_DOUBLINGS times) at a fixed cell
    count until the count stops moving, so cells coarsen as the box
    grows.  This is the blunt instrument for dimension four, where exact
    homology is out of reach; in lower dimensions prefer
    sublevel_pair_homology.
    """
    n = len(problem.variables)
    if n > 4:
        raise ConfigError("Euler counting stops at ambient dimension 4")
    box = tuple(problem.domain.box)
    res = _per_axis(resolution, n)
    prev = None
    for _ in range(_EULER_DOUBLINGS + 1):
        pair = build_pair(problem, eps, lam, Lam, box=box, resolution=res)
        chi, rim = pair.euler, _touches_rim(pair)
        del pair  # the next box is built without this one alive
        if not rim:
            return chi
        if prev is not None and chi == prev:
            return chi
        nbox, changed = _grow_box(box, problem.domain.intervals)
        if not changed:
            return chi
        prev = chi
        box = nbox
    raise ResolutionTooCoarse(
        f"the Euler count kept changing as the box grew to {box}")


def _hand_problem(name: str, variables, f: str, tau: str,
                  domain: Optional[DomainModel] = None) -> ProblemSpec:
    domain = domain or DomainModel.full_space(len(variables))
    return ProblemSpec(name, tuple(variables), domain,
                       parse_expression(f), parse_expression(tau),
                       MetricSpec("euclidean"), DEFAULT_WINDOW)


def _ray_problem(name: str, f: str, tau: str) -> ProblemSpec:
    return _hand_problem(name, ("y",), f, tau,
                         DomainModel.from_intervals([(0.0, math.inf)]))


def _corner_problem() -> ProblemSpec:
    domain = DomainModel.from_intervals([(0.0, math.inf), (0.0, math.inf)])
    return _hand_problem("corner", ("y1", "y2"),
                         "-1/y1 - 1/y2", "y1 * y2", domain)


def _free(k: int, rank: int) -> HomologyResult:
    return HomologyResult({k: (rank, ())})


_TRIVIAL = HomologyResult({})


@dataclass(frozen=True)
class CatalogEntry:
    """A named problem with its hand-checked window homology.

    ``make`` builds a fresh ProblemSpec; eps, lam, Lam and resolution
    record the parameters the expectation was derived at.  ``note``
    says where the expected groups come from.
    """

    name: str
    make: Callable[[], ProblemSpec]
    eps: float
    lam: float
    Lam: float
    resolution: int
    expected: HomologyResult
    note: str

    def problem(self) -> ProblemSpec:
        return self.make()


def _alg(n, terms, name):
    return lambda: realify(AlgebraicProblem(n, terms, name=name))


_CATALOG = {e.name: e for e in (
    CatalogEntry("z^2", _alg(1, (((2,), 1, 0),), "z^2"),
                 0.1, 1.0, 10.0, 32, _free(1, 1),
                 "a disk against the two lobes where Re z^2 has already "
                 "dropped below the window: one circle class"),
    CatalogEntry("z^3", _alg(1, (((3,), 1, 0),), "z^3"),
                 0.1, 1.0, 10.0, 32, _free(1, 2),
                 "three lobes below the window leave rank two in degree "
                 "one, the vanishing cycles of the cusp"),
    CatalogEntry("z^4", _alg(1, (((4,), 1, 0),), "z^4"),
                 0.1, 1.0, 10.0, 32, _free(1, 3),
                 "four lobes, rank three in degree one"),
    CatalogEntry("x_plus_x2y", _alg(2, (((1, 0), 1, 0), ((2, 1), 1, 0)),
                                    "x+x^2y"),
                 0.1, 1.0, 10.0, 16, _free(2, 1),
                 "ambient dimension four, so only the Euler count is "
                 "oracle-checkable; the single window class sits in "
                 "degree two"),
    CatalogEntry("double_well_1d",
                 lambda: _hand_problem("double-well", ("x",),
                                       "x^4 - x^2", "pow(1 + x^2, -1/2)"),
                 0.05, 1.0, 10.0, 64, _free(0, 1),
                 "all three critical values sit inside the window; the "
                 "pair is an interval against nothing"),
    CatalogEntry("single_min_1d",
                 lambda: _hand_problem("bowl", ("x",),
                                       "x^2", "pow(1 + x^2, -1)"),
                 0.1, 1.0, 10.0, 64, _free(0, 1),
                 "one minimum at value eps"),
    CatalogEntry("linear_y",
                 lambda: _ray_problem("ray-linear", "y", "y"),
                 0.1, 1.0, 10.0, 64, _free(0, 1),
                 "minimum 2 sqrt(eps) on the open ray; the lower "
                 "sublevel set is empty"),
    CatalogEntry("inverse_y",
                 lambda: _ray_problem("ray-inverse", "-1/y", "2 * y^2"),
                 0.1, 1.0, 10.0, 128, _TRIVIAL,
                 "the single critical value -1/(2 eps) dives below the "
                 "window for every admissible eps, so an interval "
                 "retracts onto a subinterval and nothing survives"),
    CatalogEntry("corner_2d", _corner_problem,
                 0.1, 1.0, 10.0, 48, _TRIVIAL,
                 "the corner saddle at value -1/eps is below the window "
                 "and the total set retracts onto the sub set"),
)}


def catalog_lookup(name: str) -> CatalogEntry:
    try:
        return _CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(_CATALOG))
        raise UnknownEntry(
            f"no catalog entry named {name!r}; known entries: {known}"
        ) from None


def catalog_names() -> Tuple[str, ...]:
    return tuple(sorted(_CATALOG))

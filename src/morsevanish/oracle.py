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
a block stay in L2 cache even in dimension four; they live in scratch
that the tape allocates once and reuses for every block
(``Tape.grid``).  Top cells come out one row of axis 0 at a time, packed
one bit per cell in little-endian 64-bit words along the last axis,
with a spare bit at the top of every row, so no boolean grid of the
full box is ever built.  Closing the top cells works on the words, a
slab of a few rows of axis 0 at a time: dilation along a leading axis
is an OR of shifted words, along the last axis a one-bit shift, and a
degree's cell count is a sum of popcounts.  The exact route stacks the
rows into a pair's words; the Euler route holds no pair words, but
counts both sets and checks the walls of the box as the rows pass.

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

import collections
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


def _top_rows(fe, names, box, res, lam, Lam):
    """Packed top cells (``_pack``) of {f_eps <= Lam} and {f_eps <= -lam},
    a run of rows of axis 0 at a time: (first, total, sub), the words of
    rows first, first + 1, ... along the leading axis, or in one dimension
    of the whole line (first 0).

    Centers where the function is undefined evaluate to nan and land in
    neither set.  Evaluation runs block by block (``_blocks``) on a fork
    of the compiled tape (``Tape.fork``), whose scratch holds every
    block's temporaries and goes with the generator.  A block spans a run
    of rows of axis 0 or a row spans several blocks; either way the
    blocks of a run fill one reused bool buffer, which is packed at once,
    so what is held grows with a block and never with the box (in one
    dimension, the line).
    """
    tape, axes = compile((fe,), names).fork(), _axis_centers(box, res)
    lines = len(res) > 1  # axis 0 is not the packed axis
    span = next(_blocks(res))[0]  # the first block's run of axis 0
    top = np.empty((2, min(span.stop, res[0])) + res[1:] if lines
                   else (2,) + res, dtype=bool)
    for lead, run in itertools.groupby(_blocks(res),
                                       lambda b: b[0] if lines else None):
        rows = len(range(res[0])[lead]) if lines else 1
        for block in run:
            (vals,) = tape.grid([a[i] for a, i in zip(axes, block)]
                                + axes[len(block):])
            at = (slice(0, rows),) + block[1:] if lines else block
            np.less_equal(vals, Lam, out=top[0][at])
            np.less_equal(vals, -lam, out=top[1][at])
        total, sub = _pack(top[:, :rows] if lines else top)
        yield (lead.start if lines else 0), total, sub


def _word_rows(words: np.ndarray):
    """The rows of axis 0 of packed words, as the slab walker reads them:
    in one dimension the one row is the whole line."""
    return iter(words if words.ndim > 1 else (words,))


def _words_shape(res) -> Tuple[int, ...]:
    """The shape of the packed words (``_pack``) of a box of ``res``."""
    return tuple(res[:-1]) + (res[-1] // 64 + 1,)


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


def _slab_height(shape) -> int:
    """Rows of axis 0 per slab of ``_span_patterns``: as many as keep the
    level buffers of a walk near _CHUNK words in all."""
    return max(1, _CHUNK // (len(shape) * math.prod(shape[1:])))


def _level_buffers(shape) -> list:
    """The flat buffers that level j of a slab's walk dilates into: the
    slab's axes up to j grown by one vertex (in one dimension, the line)."""
    if len(shape) == 1:
        return [np.empty(shape, dtype="<u8")]
    slab = (min(_slab_height(shape), shape[0]) + 1,) + tuple(shape[1:])
    return [np.empty(math.prod(w + (i <= j) for i, w in enumerate(slab[:-1]))
                     * slab[-1], dtype="<u8") for j in range(len(shape))]


def _span_patterns(rows, shape, bufs=None):
    """Yield (spans, row, cells) for the 2^n spanning patterns, one slab
    of axis 0 at a time, of the packed top cells of words ``shape`` whose
    rows of axis 0 (``_word_rows``) the iterator ``rows`` hands in.

    ``cells`` marks, in packed words (``_pack``), the closure's cells
    that span exactly the axes j with ``spans[j]``, in the slab's rows of
    axis 0 from ``row`` on: the top cells dilated along every other axis.
    Vertex plane i of axis 0 is ``words[i-1] | words[i]`` (rows -1 and
    R_0 empty), the cells spanning row i are ``words[i]``.  A slab
    (``_slab_height``) reads its rows from ``rows`` only when it starts,
    so no more than a slab and the row before it is held; in one
    dimension the packed row is the one slab.  A slab walks the other
    axes as a binary tree that decides one axis per level and shares each
    dilation with the subtree below it: 2^n - 1 dilations in place of
    n 2^(n-1).  Level j dilates into a flat buffer of its own
    (``_level_buffers``, or ``bufs``) that holds the slab's axes up to j
    grown by one vertex, so ``cells`` is only valid until the next
    pattern is drawn; the last pattern of a slab reads no buffer, so
    walkers that take turns a whole slab at a time can share them
    (``_stream_counts``).
    """
    n = len(shape)
    bufs = bufs or _level_buffers(shape)
    if n == 1:
        for spans, cells in _walk(next(rows), (), bufs):
            yield spans, 0, cells
        return
    last, row = shape[0], shape[1:]
    h = _slab_height(shape)
    # the row before the slab (empty before row 0), then the slab's rows
    # (empty past the last)
    held = np.zeros((h + 1,) + row, dtype="<u8")
    for i in range(0, last + 1, h):
        got = 0
        for got, words in enumerate(itertools.islice(rows, min(h, last - i)),
                                    1):
            held[got] = words
        held[got + 1:] = 0
        k = min(h, last + 1 - i)
        planes = np.bitwise_or(held[:k], held[1:k + 1],
                               out=bufs[0][:k * held[0].size].reshape(
                                   (k,) + row))
        for spans, cells in itertools.chain(
                _walk(planes, (False,), bufs),
                _walk(held[1:got + 1], (True,), bufs)):
            yield spans, i, cells
        held[0] = held[got]


def _closed_counts(words: np.ndarray) -> list:
    """Cell counts per degree of the closure of the packed top cells: the
    popcounts of ``_span_patterns``, summed slab by slab."""
    counts = [0] * (words.ndim + 1)
    for spans, _, cells in _span_patterns(_word_rows(words), words.shape):
        counts[sum(spans)] += int(np.bitwise_count(cells).sum())
    return counts


def _khalimsky(words: np.ndarray, res) -> np.ndarray:
    """Closure of the packed top cells on the doubled-index grid.

    A cell lives at coordinates in {0..2R_i}: odd means the cell spans
    that axis, even means it sits at a vertex plane.  The cell's degree
    is the number of odd coordinates.
    """
    kh = np.zeros(tuple(2 * r + 1 for r in res), dtype=bool)
    for spans, row, cells in _span_patterns(_word_rows(words), words.shape):
        top = np.unpackbits(cells.view(np.uint8), axis=-1,
                            count=res[-1] + (not spans[-1]),
                            bitorder="little")
        kh[2 * row:][tuple(slice(int(s), None, 2) for s in spans)][
            :len(top)] = top
    return kh


def _rim_rows(total, sub, first, res) -> bool:
    """Whether the relative region total & ~sub of rows first, first + 1,
    ... of axis 0 (the leading axis of ``total`` and ``sub``; in one
    dimension they hold the line) reaches a wall of the box: anywhere in
    the first and last row of axis 0, elsewhere on the end slabs of the
    other leading axes or at bits 0 and r - 1 of the packed last axis."""
    rel = total & ~sub
    walls = [rel[..., w] >> b & 1
             for w, b in (divmod(c, 64) for c in (0, res[-1] - 1))]
    if len(res) > 1:
        walls.append(rel[[r - first for r in {0, res[0] - 1}
                          if 0 <= r - first < len(rel)]])
        walls += [rel.take(end, axis=j) for j in range(1, rel.ndim - 1)
                  for end in (0, -1)]
    return any(w.any() for w in walls)


def _stream_counts(runs, res):
    """Relative cell counts per degree of a closed pair, and whether its
    relative region touches a wall of the box (``_rim_rows``), from its
    runs of rows of axis 0 (``_top_rows``) as they pass.

    Each set's rows go through a walker of its own (``_span_patterns``),
    and the two take turns a slab at a time on one set of level buffers,
    the total walker first: a run's sub rows wait in a queue from the
    total walker's read to the sub walker's, and no row outlives the
    later of its run and its slab.
    """
    rim, subs = False, collections.deque()

    def totals():
        nonlocal rim
        for first, t, s in runs:
            rim = rim or _rim_rows(t, s, first, res)
            subs.extend(_word_rows(s))
            yield from _word_rows(t)

    shape = _words_shape(res)
    bufs = _level_buffers(shape)
    walks = ((1, _span_patterns(totals(), shape, bufs)),
             (-1, _span_patterns((subs.popleft() for _ in itertools.count()),
                                 shape, bufs)))
    counts = [0] * (len(res) + 1)
    for sign, walk in itertools.cycle(walks):
        drawn = 0
        for spans, _, cells in itertools.islice(walk, 2 ** len(res)):
            counts[sum(spans)] += sign * int(np.bitwise_count(cells).sum())
            drawn += 1
        if not drawn:
            return tuple(counts), rim


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
        shape = _words_shape(res)
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


def _level_rows(problem: ProblemSpec, eps: float, lam, Lam, box,
                resolution):
    """The box and resolution of a pair, checked, and the stream of its
    packed runs of rows (``_top_rows``): the input of both the built pair
    and the streamed Euler count."""
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
    return box, res, _top_rows(fe, problem.variables, box, res, lam, Lam)


def build_pair(problem: ProblemSpec, eps: float,
               lam: Optional[float] = None, Lam: Optional[float] = None,
               box=None, resolution=32) -> CubicalPair:
    """Classify top cells of the box by the value of f_eps at centers."""
    box, res, runs = _level_rows(problem, eps, lam, Lam, box, resolution)
    total, sub = (np.empty(_words_shape(res), dtype="<u8") for _ in "ts")
    for first, t, s in runs:
        total[first:first + len(t)], sub[first:first + len(s)] = t, s
    return CubicalPair(box, res, total, sub)


def _touches_rim(pair: CubicalPair) -> bool:
    """Whether the relative region total & ~sub reaches a wall of the box:
    its words as one run of rows (``_rim_rows``)."""
    return _rim_rows(pair.total_words, pair.sub_words, 0, pair.resolution)


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
    sublevel_pair_homology.  No pair is built: the rows of each box are
    classified and counted as they pass (``_stream_counts``).
    """
    if len(problem.variables) > 4:
        raise ConfigError("Euler counting stops at ambient dimension 4")
    box = tuple(problem.domain.box)
    prev = None
    for _ in range(_EULER_DOUBLINGS + 1):
        _, res, runs = _level_rows(problem, eps, lam, Lam, box, resolution)
        counts, rim = _stream_counts(runs, res)
        chi = sum((-1) ** k * c for k, c in enumerate(counts))
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

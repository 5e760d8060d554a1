"""Cubical oracle tests against hand-solved sublevel pairs.

Reference data used below, all at window (-1, 10] and eps = 0.1 unless
said otherwise:

* x^2 with tau = 1/(1+x^2): the pair is an interval against nothing,
  H_0 = Z.
* z^d realified, d = 2, 3, 4: a disk against d lobes where Re z^d has
  already dropped below the window, H_1 = Z^(d-1), chi = 1 - d.
* y + eps/y and -1/y + eps/(2 y^2) on the open ray, and the corner
  problem -1/y1 - 1/y2 with tau = y1 y2: worked in closed form; the
  first has H_0 = Z, the other two are trivial because their only
  critical value sits below the window.
* x + x^2 y realified lives in ambient dimension four where only the
  alternating cell count is available; chi = +1 there.
* a single top cell closes to 2^(n-k) C(n,k) cells per degree, and a
  full R x R grid closes to 16/24/9 cells for R = 3.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from morsevanish import oracle
from morsevanish.critical import find_critical_points
from morsevanish.errors import (ConfigError, ResolutionTooCoarse,
                                UnknownEntry)
from morsevanish.expr import eval_values, parse_expression
from morsevanish.homology import (HomologyResult, euler_characteristic,
                                  homology, window_complex)
from morsevanish.intlinalg import homology_of_complex, reduce_complex
from morsevanish.oracle import (CubicalPair, _axis_centers, _closed_counts,
                                _collapse, _khalimsky, _grow_box,
                                _hand_problem, _pack, _relative_data,
                                _stream_counts, _top_rows, _touches_rim,
                                build_pair, catalog_lookup, catalog_names,
                                pair_euler_characteristic,
                                sublevel_pair_homology)

# the catalog entries whose ambient dimension the cubical homology takes
CUBICAL = [n for n in catalog_names()
           if len(catalog_lookup(n).problem().variables) <= 3]


def relative(total, sub):
    """The relative Khalimsky mask of two bool top-cell masks."""
    return (_khalimsky(_pack(total), total.shape)
            & ~_khalimsky(_pack(sub), sub.shape))


def pair_relative(pair):
    """The relative Khalimsky mask of a built pair."""
    return (_khalimsky(pair.total_words, pair.resolution)
            & ~_khalimsky(pair.sub_words, pair.resolution))


def unpack(words, res):
    """The bool mask that ``_pack`` packed into ``words``."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=res[-1],
                         bitorder="little").astype(bool)


def packed_pair(total, sub):
    return CubicalPair(((0.0, 1.0),) * total.ndim, total.shape,
                       _pack(total), _pack(sub))


def dense_boundaries(total, sub):
    """Dense quotient boundary matrices straight from the sparse dicts."""
    rel = relative(total, sub)
    dims, sparse = _relative_data(rel)
    coords = np.argwhere(rel)
    strides = np.cumprod((rel.shape[1:] + (1,))[::-1])[::-1]
    flat = coords @ strides
    deg = (coords % 2).sum(axis=1)
    ids = {k: sorted(int(f) for f, d in zip(flat, deg) if d == k)
           for k in dims}
    out = {}
    for k in sorted(sparse):
        rows = {r: i for i, r in enumerate(ids.get(k - 1, []))}
        cols = {c: j for j, c in enumerate(ids[k])}
        M = np.zeros((len(rows), len(cols)), dtype=int)
        for c, entries in sparse[k].items():
            for r, v in entries.items():
                M[rows[r], cols[c]] = v
        out[k] = M
    return out


def dilate_reference(arr, j):
    """Vertex coverage along axis j on a bool array: cell i marks
    positions i and i+1.  The packed dilation in the oracle must agree
    with this bit for bit."""
    shape = arr.shape[:j] + (arr.shape[j] + 1,) + arr.shape[j + 1:]
    out = np.zeros(shape, dtype=bool)
    head = (slice(None),) * j
    out[head + (slice(0, -1),)] = arr
    out[head + (slice(1, None),)] |= arr
    return out


def top_masks(fe, names, box, res, lam, Lam):
    """Both sets' packed words, joined from the runs of ``_top_rows``."""
    runs = list(_top_rows(fe, names, box, res, lam, Lam))
    assert [first for first, _, _ in runs] == list(itertools.accumulate(
        [0] + [len(t) for _, t, _ in runs[:-1]])) if len(res) > 1 else [0]
    return tuple(np.concatenate([run[k] for run in runs]) for k in (1, 2))


def point_values(fe, names, box, res):
    """f at every cell center, evaluated as one stacked list of points."""
    mesh = np.meshgrid(*_axis_centers(box, res), indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
    return eval_values(fe, pts, names).reshape(res)


def closed_counts_reference(top):
    """One dilated copy per spanning pattern, each dilated on its own."""
    n = top.ndim
    counts = [0] * (n + 1)
    for spans in itertools.product((False, True), repeat=n):
        arr = top
        for j in range(n):
            if not spans[j]:
                arr = dilate_reference(arr, j)
        counts[sum(spans)] += int(arr.sum())
    return counts


def khalimsky_reference(top):
    n = top.ndim
    kh = np.zeros(tuple(2 * r + 1 for r in top.shape), dtype=bool)
    for spans in itertools.product((False, True), repeat=n):
        arr = top
        idx = []
        for j in range(n):
            if spans[j]:
                idx.append(slice(1, None, 2))
            else:
                arr = dilate_reference(arr, j)
                idx.append(slice(0, None, 2))
        kh[tuple(idx)] = arr
    return kh


class TestCellMachinery:
    # last-axis lengths around the 64-bit word boundaries of the packed
    # tree, in one to four dimensions
    @pytest.mark.parametrize("shape", [(7,), (5, 4), (4, 3, 5), (3, 4, 2, 3),
                                       (1, 1, 1, 1)] + [
        head + (r,) for r in (63, 64, 65, 127, 128)
        for head in ((), (2,), (2, 3), (2, 2, 2))])
    # seeds 3 and 4 are the all-false and the all-true mask
    @pytest.mark.parametrize("seed", range(5))
    def test_dilation_tree_matches_per_pattern_loop(self, shape, seed):
        rng = np.random.default_rng(seed)
        top = rng.random(shape) < (0.2, 0.5, 0.8, 0.0, 1.0)[seed]
        counts = _closed_counts(_pack(top))
        assert counts == closed_counts_reference(top)
        assert all(type(c) is int for c in counts)  # JSON-serialisable
        kh = _khalimsky(_pack(top), shape)
        assert kh.shape == tuple(2 * r + 1 for r in shape)
        assert np.array_equal(kh, khalimsky_reference(top))

    def test_chunked_masks_match_unchunked_points(self, monkeypatch):
        fe = parse_expression("x^2 + y*z - pow(1 + x^2, -1/2)/z")
        names = ("x", "y", "z")
        box = ((-2.0, 2.0), (-1.0, 1.5), (-1.0, 1.0))
        res = (7, 3, 4)
        vals = point_values(fe, names, box, res)
        # 30 // (3 * 4) = 2 rows per chunk, and 7 rows leave a short tail
        monkeypatch.setattr(oracle, "_CHUNK", 30)
        total, sub = vals <= 1.0, vals <= -0.5
        words = top_masks(fe, names, box, res, 0.5, 1.0)
        assert np.array_equal(words[0], _pack(total))
        assert np.array_equal(words[1], _pack(sub))
        assert sub.any() and (total & ~sub).any() and not total.all()

    def test_4d_blocks_match_points(self, monkeypatch):
        fe = parse_expression("x*w - y^2 + z*pow(1 + x^2, -1/2) + w^3")
        names = ("x", "y", "z", "w")
        box = ((-1.0, 1.0), (-1.5, 1.0), (-1.0, 1.0), (-0.5, 1.5))
        res = (3, 5, 4, 6)
        vals = point_values(fe, names, box, res)
        # 50 < 5 * 4 * 6, so axis 0 goes one index at a time and axis 1
        # in runs of 50 // (4 * 6) = 2, the last one a short tail
        monkeypatch.setattr(oracle, "_CHUNK", 50)
        blocks = list(oracle._blocks(res))
        assert len(blocks) == 9
        assert [b[1] for b in blocks[:3]] == [slice(0, 2), slice(2, 4),
                                              slice(4, 6)]
        total, sub = vals <= 1.0, vals <= -0.5
        words = top_masks(fe, names, box, res, 0.5, 1.0)
        assert np.array_equal(words[0], _pack(total))
        assert np.array_equal(words[1], _pack(sub))
        assert sub.any() and (total & ~sub).any() and not total.all()

    def test_1d_runs_cut_the_packed_axis_off_byte_boundaries(self,
                                                              monkeypatch):
        fe = parse_expression("x^4 - x^2")
        box, res = ((-1.5, 1.5),), (200,)
        vals = point_values(fe, ("x",), box, res)
        # runs of 50 cells start at bits 50, 100 and 150 of the packed
        # row, none of them on a byte boundary
        monkeypatch.setattr(oracle, "_CHUNK", 50)
        assert [b[0] for b in oracle._blocks(res)] == [
            slice(i, i + 50) for i in range(0, 200, 50)]
        total, sub = vals <= 0.5, vals <= -0.1
        words = top_masks(fe, ("x",), box, res, 0.1, 0.5)
        assert np.array_equal(words[0], _pack(total))
        assert np.array_equal(words[1], _pack(sub))
        assert sub.any() and (total & ~sub).any() and not total.all()

    def test_single_cell_closure_counts(self):
        one = np.ones((1, 1, 1), dtype=bool)
        assert _closed_counts(_pack(one)) == [8, 12, 6, 1]
        assert _closed_counts(_pack(np.ones((1, 1), dtype=bool))) \
            == [4, 4, 1]

    def test_grid_closure_counts(self):
        counts = _closed_counts(_pack(np.ones((3, 3), dtype=bool)))
        assert counts == [16, 24, 9]
        assert counts[0] - counts[1] + counts[2] == 1

    def test_empty_mask(self):
        zero = np.zeros((4, 4), dtype=bool)
        assert _closed_counts(_pack(zero)) == [0, 0, 0]
        assert not _khalimsky(_pack(zero), zero.shape).any()
        assert _relative_data(_khalimsky(_pack(zero), zero.shape)) \
            == ({}, {})

    @pytest.mark.parametrize("seed,shape", [(7, (6, 5, 4)), (11, (9, 8))])
    def test_d_squared_zero_on_random_pairs(self, seed, shape):
        rng = np.random.default_rng(seed)
        total = rng.random(shape) < 0.6
        sub = total & (rng.random(shape) < 0.4)
        dense = dense_boundaries(total, sub)
        assert dense, "the random mask produced no complex at all"
        for k, M in dense.items():
            if k - 1 in dense and M.size and dense[k - 1].size:
                assert not (dense[k - 1] @ M).any()

    def test_inverted_pair_rejected(self):
        total = np.zeros((3, 3), dtype=bool)
        sub = np.zeros((3, 3), dtype=bool)
        sub[1, 1] = True
        with pytest.raises(ConfigError, match="escapes the total mask"):
            packed_pair(total, sub)

    def test_shape_mismatch_rejected(self):
        # a packed row does not record its cell count, so the mismatch
        # is on a leading axis
        m = _pack(np.zeros((3, 3), dtype=bool))
        with pytest.raises(ConfigError, match="resolution"):
            CubicalPair(((0.0, 1.0), (0.0, 1.0)), (4, 3), m, m.copy())

    @pytest.mark.parametrize("r", [63, 64, 65])
    def test_cells_past_the_resolution_rejected(self, r):
        # one cell more than the resolution sets the spare bit, or the
        # first bit of the spare word at r = 64
        m = _pack(np.ones((2, r + 1), dtype=bool))
        with pytest.raises(ConfigError, match="resolution"):
            CubicalPair(((0.0, 1.0), (0.0, 1.0)), (2, r), m, m.copy())
        # the right bits in the other byte order are other words
        m = _pack(np.ones((2, r), dtype=bool)).astype(">u8")
        with pytest.raises(ConfigError, match="resolution"):
            CubicalPair(((0.0, 1.0), (0.0, 1.0)), (2, r), m, m.copy())

    @pytest.mark.parametrize("r", [63, 64, 65])
    @pytest.mark.parametrize("end", [0, -1])
    def test_escape_at_a_packed_end_rejected(self, r, end):
        total = np.ones((3, r), dtype=bool)
        total[:, end] = False
        sub = np.zeros((3, r), dtype=bool)
        sub[1, end] = True
        with pytest.raises(ConfigError, match="escapes the total mask"):
            packed_pair(total, sub)

    @pytest.mark.parametrize("r", [63, 64, 65])
    def test_rim_at_the_packed_ends(self, r):
        for cell, rim in ((0, True), (r - 1, True), (1, False),
                          (r - 2, False), (r // 2, False)):
            total = np.zeros((3, r), dtype=bool)
            total[1, cell] = True
            assert _touches_rim(packed_pair(total, total & False)) is rim
            # the same cell in the sub set leaves nothing relative
            assert not _touches_rim(packed_pair(total, total))

    @pytest.mark.parametrize("shape", [(r,) for r in (63, 64, 65)]
                             + [(2, r) for r in (63, 64, 65)]
                             + [(3, 2, r) for r in (63, 64, 65)])
    def test_rim_matches_the_bool_faces(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(20):
            total = rng.random(shape) < 0.05
            sub = total & (rng.random(shape) < 0.5)
            rel = total & ~sub
            faces = any(rel.take(end, axis=j).any()
                        for j in range(rel.ndim) for end in (0, -1))
            assert _touches_rim(packed_pair(total, sub)) is faces

    def test_grow_box_pins_finite_domain_ends(self):
        box = ((0.001, 3.0),)
        grown, changed = _grow_box(box, ((0.0, math.inf),))
        assert changed
        assert grown[0][0] == pytest.approx(0.001)
        assert grown[0][1] > 4.0
        full, changed = _grow_box(((-3.0, 3.0),), ((-math.inf, math.inf),))
        assert changed and full == ((-6.0, 6.0),)


def random_pairs(count=300):
    """Seeded (total, sub) top-cell masks cycling through dimensions 1-3."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 3
        shape = tuple(int(r) for r in rng.integers(1, (12, 7, 5)[n - 1],
                                                   size=n))
        total = rng.random(shape) < rng.uniform(0.3, 0.9)
        sub = total & (rng.random(shape) < rng.uniform(0.0, 0.7))
        yield seed, total, sub


def alternating(dims):
    return sum((-1) ** k * c for k, c in dims.items())


def whole_box_walk(words):
    """The closure's spanning patterns walked over the whole box at once,
    one box-sized buffer per level of the dilation tree."""
    bufs = [np.empty(math.prod(w + (i <= j)
                               for i, w in enumerate(words.shape[:-1]))
                     * words.shape[-1], dtype=words.dtype)
            for j in range(words.ndim)]
    return oracle._walk(words, (), bufs)


def whole_box_counts(words):
    counts = [0] * (words.ndim + 1)
    for spans, cells in whole_box_walk(words):
        counts[sum(spans)] += int(np.bitwise_count(cells).sum())
    return counts


def whole_box_khalimsky(words, res):
    kh = np.zeros(tuple(2 * r + 1 for r in res), dtype=bool)
    for spans, cells in whole_box_walk(words):
        kh[tuple(slice(int(s), None, 2) for s in spans)] = np.unpackbits(
            cells.view(np.uint8), axis=-1, count=res[-1] + (not spans[-1]),
            bitorder="little")
    return kh


def random_words(rng, res):
    """Random packed top cells (``_pack``) of a box of ``res`` cells."""
    words = rng.integers(0, 2 ** 64, size=res[:-1] + (res[-1] // 64 + 1,),
                         dtype=np.uint64).astype("<u8")
    w, b = divmod(res[-1], 64)
    words[..., w] &= np.uint64((1 << b) - 1)
    return words


# the counts of each catalog pair at its pinned parameters, as counted by
# the whole-box walk
CATALOG_COUNTS = {
    "corner_2d": (451, 902, 451),
    "double_well_1d": (41, 40),
    "inverse_y": (88, 88),
    "linear_y": (65, 64),
    "single_min_1d": (65, 64),
    "x_plus_x2y": (32609, 127712, 186768, 120884, 29220),
    "z^2": (687, 1384, 696),
    "z^3": (401, 813, 410),
    "z^4": (289, 588, 296),
}


class TestSlabWalk:
    # axis-0 extents of 1, and of 5 and 7, which slabs of 2 and 3 rows
    # do not divide; last axes around the 64-bit word boundary
    @pytest.mark.parametrize("res", [(1,), (70,), (1, 5), (7, 3), (4, 65),
                                     (1, 1, 1), (5, 4, 3), (1, 3, 2, 4),
                                     (7, 2, 3, 65), (4, 2, 2, 3)])
    @pytest.mark.parametrize("height", [1, 2, 3, None])
    def test_slabs_match_the_whole_box_walk(self, res, height, monkeypatch):
        words = random_words(np.random.default_rng(len(res) * 100 + res[0]),
                             res)
        if height is not None and len(res) > 1:
            monkeypatch.setattr(oracle, "_CHUNK",
                                height * words.ndim * words[0].size)
            rows = {row for _, row, _ in oracle._span_patterns(iter(words),
                                                              words.shape)}
            assert rows == set(range(0, res[0] + 1, height))
        assert _closed_counts(words) == whole_box_counts(words)
        assert np.array_equal(_khalimsky(words, res),
                              whole_box_khalimsky(words, res))

    @pytest.mark.parametrize("name", sorted(CATALOG_COUNTS))
    def test_catalog_counts_unchanged(self, name):
        e = catalog_lookup(name)
        pair = build_pair(e.problem(), e.eps, e.lam, e.Lam,
                          resolution=e.resolution)
        assert pair.cell_counts() == CATALOG_COUNTS[name]
        assert list(pair.cell_counts()) == [
            a - b for a, b in zip(whole_box_counts(pair.total_words),
                                  whole_box_counts(pair.sub_words))]

    def test_counting_allocates_less_than_one_set_of_words(self):
        # a whole-box walk needs four dilation buffers of about the
        # words' own size at 48^4
        rng = np.random.default_rng(48)
        res = (48,) * 4
        total = random_words(rng, res)
        pair = CubicalPair(((0.0, 1.0),) * 4, res, total,
                           total & random_words(rng, res))
        tracemalloc.start()
        try:
            counts = pair.cell_counts()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < total.nbytes, peak / total.nbytes
        assert list(counts) == [a - b for a, b in zip(
            whole_box_counts(total), whole_box_counts(pair.sub_words))]


class TestCollapse:
    def test_collapse_keeps_the_homology(self):
        answers = set()
        for seed, total, sub in random_pairs():
            rel = relative(total, sub)
            reference = homology_of_complex(
                reduce_complex(*_relative_data(rel)))
            pair = packed_pair(total, sub)
            assert pair.homology().summary() == reference.summary(), seed
            answers.add(repr(reference.summary()))
        assert len(answers) >= 3

    def test_remainder_is_a_complex_with_the_same_euler_count(self):
        shrunk = 0
        for seed, total, sub in random_pairs():
            rel = relative(total, sub)
            left = _collapse(rel)
            dims, sparse = _relative_data(left)
            assert alternating(dims) == alternating(_relative_data(rel)[0])
            for k, cols in sparse.items():
                below = sparse.get(k - 1, {})
                for entries in cols.values():
                    dd = {}
                    for face, a in entries.items():
                        for ridge, b in below.get(face, {}).items():
                            dd[ridge] = dd.get(ridge, 0) + a * b
                    assert not any(dd.values()), seed
            shrunk += int(left.sum()) < int(rel.sum())
        assert shrunk > 200

    def test_emptied_degrees_keep_their_keys(self):
        e = catalog_lookup("corner_2d")
        pair = build_pair(e.problem(), e.eps, resolution=e.resolution)
        rel = pair_relative(pair)
        assert rel.any() and not _collapse(rel).any()
        assert pair.homology().summary() == {
            str(k): {"betti": 0, "torsion": []} for k in range(3)}

    @pytest.mark.parametrize("name", CUBICAL)
    def test_collapse_leaves_only_the_betti_numbers(self, name):
        # nothing is left for an elimination after the collapse: the
        # survivors of each degree are exactly its free generators
        e = catalog_lookup(name)
        betti = {k: b for k, (b, _) in e.expected.groups.items() if b}
        for resolution in (e.resolution, 2 * e.resolution):
            pair = build_pair(e.problem(), e.eps, e.lam, e.Lam,
                              resolution=resolution)
            rel = pair_relative(pair)
            assert _relative_data(_collapse(rel))[0] == betti, resolution

    def test_z4_keeps_three_circles(self):
        e = catalog_lookup("z^4")
        pair = build_pair(e.problem(), e.eps, resolution=e.resolution)
        rel = pair_relative(pair)
        assert _relative_data(_collapse(rel))[0] == {1: 3}
        assert pair.homology().groups == {0: (0, ()), 1: (3, ()),
                                          2: (0, ())}


def loop_visits(monkeypatch):
    """Record (box, res, counts, rim) of every box the Euler loop counts."""
    visits, level_rows, stream = [], oracle._level_rows, oracle._stream_counts

    def spy_rows(problem, eps, lam, Lam, box, resolution):
        out = level_rows(problem, eps, lam, Lam, box, resolution)
        visits.append(out[:2])
        return out

    def spy_counts(runs, res):
        out = stream(runs, res)
        visits[-1] += out
        return out

    monkeypatch.setattr(oracle, "_level_rows", spy_rows)
    monkeypatch.setattr(oracle, "_stream_counts", spy_counts)
    return visits


class TestStreamedCount:
    """The Euler route counts rows as they are classified; its counts, rim
    and chi are those of the built pair."""

    @staticmethod
    def check(total, sub, res):
        pair = CubicalPair(((0.0, 1.0),) * len(res), res, total, sub)
        # runs of random lengths, as blocks cut rows of axis 0
        cuts = sorted({0, res[0], *map(int, np.random.default_rng(
            total.size).integers(0, res[0], size=3))}) \
            if len(res) > 1 else [0, len(total)]
        counts, rim = _stream_counts(
            [(a, total[a:b], sub[a:b]) for a, b in zip(cuts, cuts[1:])], res)
        assert counts == pair.cell_counts()
        assert rim is _touches_rim(pair)
        assert sum((-1) ** k * c for k, c in enumerate(counts)) \
            == pair.euler
        return rim

    @staticmethod
    def random_pair(rng, res, kind):
        """Random packed top cells kept one clear cell from every wall
        (kind 0) or anywhere (1); kind 2 is every cell against none."""
        if kind == 2:
            return _pack(np.ones(res, dtype=bool)), _pack(np.zeros(
                res, dtype=bool))
        total = random_words(rng, res)
        if kind == 0:
            inside = np.zeros(res, dtype=bool)
            inside[tuple(slice(1, -1) for _ in res)] = True
            total &= _pack(inside)
        return total, total & random_words(rng, res)

    # one row shape per dimension, its last axis past a word boundary;
    # slabs of h = 4 rows, so axis 0 runs 1, 2, h - 1, h and h + 1 rows
    @pytest.mark.parametrize("row", [(), (70,), (3, 65), (2, 3, 5)],
                             ids=["1d", "2d", "3d", "4d"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
    def test_random_pairs_around_the_slab_height(self, row, rows,
                                                 monkeypatch):
        res = (rows,) + row if row else (64 * rows - 1,)
        shape = oracle._words_shape(res)
        monkeypatch.setattr(oracle, "_CHUNK",
                            4 * len(res) * math.prod(shape[1:]))
        if len(res) > 1:
            assert oracle._slab_height(shape) == 4
        rims = [self.check(*self.random_pair(
            np.random.default_rng(seed), res, seed % 3), res)
            for seed in range(6)]
        assert rims[::3] == [False, False] and rims[2::3] == [True, True]

    @pytest.mark.parametrize("res", [(16383,), (16384, 40), (16385, 40)])
    def test_random_pairs_at_the_default_slab_height(self, res):
        # a 2-D row of one word: 16,384 rows to a slab
        if len(res) > 1:
            assert oracle._slab_height(oracle._words_shape(res)) == 16384
        for seed in range(3):
            self.check(*self.random_pair(np.random.default_rng(seed), res,
                                         seed), res)

    # the first grid block of each layout: at 32^4 a block is one row of
    # axis 0, at 48^4 a row is several blocks of (1, 14, 48, 48), and in
    # one to three dimensions one block takes every row
    LAYOUTS = {(32,) * 4: (slice(0, 1),),
               (48,) * 4: (slice(0, 1), slice(0, 14)),
               (32,) * 3: (slice(0, 32),), (40, 33): (slice(0, 992),),
               (200,): (slice(0, 32768),)}

    @pytest.mark.parametrize("res", sorted(LAYOUTS, key=len),
                             ids=lambda r: "x".join(map(str, r)))
    def test_classified_rows_count_as_the_built_pair(self, res):
        assert next(oracle._blocks(res)) == self.LAYOUTS[res]
        problem = {
            1: catalog_lookup("double_well_1d").problem(),
            2: catalog_lookup("z^3").problem(),
            3: _hand_problem("bowl3", ("x", "y", "z"), "x^2 + y^2 - z^2",
                             "pow(1 + x^2 + y^2 + z^2, -1/2)"),
            4: catalog_lookup("x_plus_x2y").problem()}[len(res)]
        _, _, runs = oracle._level_rows(problem, 0.1, 1.0, 10.0, None, res)
        pair = build_pair(problem, 0.1, 1.0, 10.0, resolution=res)
        assert _stream_counts(runs, res) == (pair.cell_counts(),
                                             _touches_rim(pair))

    @pytest.mark.parametrize("name, resolution", [
        ("x_plus_x2y", 16), ("x_plus_x2y", 21), ("x_plus_x2y", 32),
        ("z^4", 64), ("double_well_1d", 64)])
    def test_every_box_of_the_loop_equals_the_built_pair(self, name,
                                                         resolution,
                                                         monkeypatch):
        e = catalog_lookup(name)
        visits = loop_visits(monkeypatch)
        chi = pair_euler_characteristic(e.problem(), e.eps, e.lam, e.Lam,
                                        resolution=resolution)
        monkeypatch.undo()
        assert visits
        for box, res, counts, rim in visits:
            pair = build_pair(e.problem(), e.eps, e.lam, e.Lam, box=box,
                              resolution=res)
            assert counts == pair.cell_counts(), (box, res)
            assert rim is _touches_rim(pair), (box, res)
        assert chi == pair.euler == e.expected.euler


class TestPairHomology:
    def test_bowl_pair_is_a_point(self):
        bowl = _hand_problem("bowl", ("x",), "x^2", "pow(1 + x^2, -1)")
        h = sublevel_pair_homology(bowl, 0.1, 1.0, 10.0, resolution=64)
        assert h.same_as(HomologyResult({0: (1, ())}))

    def test_empty_pair_is_trivial(self):
        bowl = _hand_problem("bowl", ("x",), "x^2", "pow(1 + x^2, -1)")
        h = sublevel_pair_homology(bowl, 0.1, lam=2.0, Lam=-1.0,
                                   resolution=32)
        assert h.groups == {}
        assert h.describe() == "trivial"

    def test_z2_pair_is_a_circle_class(self):
        e = catalog_lookup("z^2")
        h = sublevel_pair_homology(e.problem(), 0.1, resolution=32)
        assert h.betti(1) == 1
        assert h.betti(0) == 0 and h.betti(2) == 0
        assert h.torsion(1) == ()

    def test_coarse_grid_raises(self):
        e = catalog_lookup("z^3")
        with pytest.raises(ResolutionTooCoarse, match="2x grid refinement"):
            sublevel_pair_homology(e.problem(), e.eps, resolution=3)

    def test_dimension_four_needs_the_euler_route(self):
        e = catalog_lookup("x_plus_x2y")
        with pytest.raises(ConfigError, match="dimension 3"):
            sublevel_pair_homology(e.problem(), e.eps)
        pair = build_pair(e.problem(), e.eps, resolution=2)
        with pytest.raises(ConfigError, match="Euler"):
            pair.homology()

    def test_undefined_centers_land_in_neither_mask(self):
        prob = _hand_problem("half", ("y",), "y", "pow(y, 1/2)")
        pair = build_pair(prob, 0.1, box=((-1.0, 3.0),), resolution=16)
        assert not unpack(pair.total_words, pair.resolution)[:4].any()
        assert not unpack(pair.sub_words, pair.resolution).any()

    def test_pair_summary_and_euler(self):
        e = catalog_lookup("z^3")
        pair = build_pair(e.problem(), e.eps, box=((-6.0, 6.0),) * 2,
                          resolution=48)
        assert pair.resolution == (48, 48)
        assert np.bitwise_count(pair.sub_words).sum() \
            <= np.bitwise_count(pair.total_words).sum()
        assert pair.euler == sum((-1) ** k * c
                                 for k, c in enumerate(pair.cell_counts()))
        assert pair.euler == pair.homology().euler == -2

    def test_inverted_levels_rejected(self):
        bowl = _hand_problem("bowl", ("x",), "x^2", "pow(1 + x^2, -1)")
        with pytest.raises(ConfigError, match="inverted"):
            build_pair(bowl, 0.1, lam=-3.0, Lam=-5.0)
        # the streamed Euler count reads the same checks
        with pytest.raises(ConfigError, match="inverted"):
            pair_euler_characteristic(bowl, 0.1, lam=-3.0, Lam=-5.0)

    @pytest.mark.parametrize("resolution, match", [
        ((16, 16), "names 2 axes"), (0, "at least one cell")])
    def test_both_routes_check_the_resolution(self, resolution, match):
        bowl = _hand_problem("bowl", ("x",), "x^2", "pow(1 + x^2, -1)")
        for route in (build_pair, pair_euler_characteristic):
            with pytest.raises(ConfigError, match=match):
                route(bowl, 0.1, resolution=resolution)

    def test_box_must_match_the_variables(self):
        bowl = _hand_problem("bowl", ("x",), "x^2", "pow(1 + x^2, -1)")
        with pytest.raises(ConfigError, match="box dimension"):
            build_pair(bowl, 0.1, box=((-1.0, 1.0),) * 2)

    def test_same_as_ignores_recorded_zeros(self):
        a = HomologyResult({0: (0, ()), 1: (1, ()), 2: (0, ())})
        b = HomologyResult({1: (1, ())})
        assert a.same_as(b) and b.same_as(a)
        assert not a.same_as(HomologyResult({1: (1, (2,))}))
        assert not a.same_as(HomologyResult({0: (1, ()), 1: (1, ())}))


class TestCatalog:
    @pytest.mark.parametrize("name", CUBICAL)
    def test_oracle_agrees_with_catalog(self, name):
        e = catalog_lookup(name)
        h = sublevel_pair_homology(e.problem(), e.eps, e.lam, e.Lam,
                                   resolution=e.resolution)
        assert h.same_as(e.expected), h.groups

    def test_expected_groups_match_recorded_euler(self):
        recorded = {"z^2": -1, "z^3": -2, "z^4": -3, "x_plus_x2y": 1,
                    "double_well_1d": 1, "single_min_1d": 1, "linear_y": 1,
                    "inverse_y": 0, "corner_2d": 0}
        assert {n: catalog_lookup(n).expected.euler
                for n in catalog_names()} == recorded

    def test_unknown_entry(self):
        with pytest.raises(UnknownEntry, match="z\\^2"):
            catalog_lookup("z^17")

    def test_names_are_sorted_and_fresh_problems(self):
        names = catalog_names()
        assert list(names) == sorted(names)
        e = catalog_lookup("double_well_1d")
        p1, p2 = e.problem(), e.problem()
        assert p1 is not p2 and p1.name == p2.name


class TestEulerRoute:
    def test_flagship_chi(self):
        e = catalog_lookup("x_plus_x2y")
        chi = pair_euler_characteristic(e.problem(), e.eps, resolution=16)
        assert chi == 1 and type(chi) is int

    def test_flagship_cell_counts_pinned(self):
        # counted by the unpacked bool dilation tree the packed one replaced
        e = catalog_lookup("x_plus_x2y")
        pair = build_pair(e.problem(), 0.1, 1, 10, resolution=16)
        assert pair.cell_counts() == (32609, 127712, 186768, 120884, 29220)
        assert pair.euler == 1

    @staticmethod
    def traced_peak(resolution):
        e = catalog_lookup("x_plus_x2y")
        tracemalloc.start()
        try:
            chi = pair_euler_characteristic(e.problem(), e.eps, e.lam,
                                            e.Lam, resolution=resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chi == 1
        return peak

    def test_flagship_count_holds_no_bool_grid(self):
        # Streamed at 40^4 (grid blocks of 32,000 points, slabs of 5 rows
        # of 1,600 words), the count holds per-block and per-slab buffers
        # only: the tape's scratch, at most four float64 registers of a
        # block and its bool one (1.01 MiB); the walk's level buffers,
        # shared by both sets (0.35 MiB); each set's slab and the row
        # before it (0.15 MiB), and the sub rows queued for one slab
        # (0.15 MiB); the bool buffer of a row (0.12 MiB).  These sum to
        # 1.77 MiB, and 2 MiB leaves room for Python's own objects.  The
        # two sets' whole-box words alone are 0.98 MiB at 40^4; a count
        # that held them peaked at 2.15 MiB.
        peak = self.traced_peak(40)
        assert peak < 2 * 2 ** 20, peak / 2 ** 20
        # nothing grows with axis 0: twice the rows add less than one
        # row of both sets' words (25,600 bytes), where holding the words
        # added 0.98 MiB
        assert self.traced_peak((80, 40, 40, 40)) - peak < 25600

    def test_planar_chi_matches_homology(self):
        e = catalog_lookup("z^4")
        chi = pair_euler_characteristic(e.problem(), e.eps, resolution=64)
        assert chi == -3

    def test_dimension_guard(self):
        five = _hand_problem("five", tuple(f"x{i}" for i in range(5)),
                             " + ".join(f"x{i}^2" for i in range(5)), "1")
        with pytest.raises(ConfigError, match="dimension 4"):
            pair_euler_characteristic(five, 0.1)

    def test_morse_euler_sum_matches_every_oracle_count(self):
        # the catalog's groups, the cell count and the counting route
        e = catalog_lookup("double_well_1d")
        pts = find_critical_points(e.problem(), e.eps).inside_window()
        pair = build_pair(e.problem(), e.eps, box=((-6.0, 6.0),),
                          resolution=128)
        chi = pair_euler_characteristic(e.problem(), e.eps, resolution=64)
        assert euler_characteristic(pts) == e.expected.euler == pair.euler \
            == chi == 1


class TestMorseSideAgreement:
    def test_double_well_both_pipelines(self):
        e = catalog_lookup("double_well_1d")
        prob = e.problem()
        cx = window_complex(prob, e.eps, seed=0)
        hm = homology(cx)
        oracle = sublevel_pair_homology(prob, e.eps, resolution=64)
        assert hm.same_as(oracle)
        assert euler_characteristic(cx.points()) == oracle.euler

    def test_z3_both_pipelines(self):
        e = catalog_lookup("z^3")
        prob = e.problem()
        cx = window_complex(prob, e.eps, seed=0)
        hm = homology(cx)
        oracle = sublevel_pair_homology(prob, e.eps, resolution=32)
        assert hm.same_as(oracle)
        assert hm.same_as(e.expected)

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
                                _top_masks, _touches_rim,
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
        words = _top_masks(fe, names, box, res, 0.5, 1.0)
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
        words = _top_masks(fe, names, box, res, 0.5, 1.0)
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
        words = _top_masks(fe, ("x",), box, res, 0.1, 0.5)
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

    def test_flagship_count_holds_no_bool_grid(self):
        # 40^4 cells are 2.56 MB as one bool mask, and the count held two
        # of them and their dilations (a 12.2 MB peak); packed, the pair
        # is 0.33 MB of words and the peak stays near 3.6 MB
        e = catalog_lookup("x_plus_x2y")
        tracemalloc.start()
        try:
            chi = pair_euler_characteristic(e.problem(), e.eps, e.lam,
                                            e.Lam, resolution=40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chi == 1
        assert peak < 6 * 2 ** 20, peak / 2 ** 20

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

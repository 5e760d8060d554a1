"""Complex assembly, SNF homology, and continuation maps.

Reference data used below (hand-checked before freezing):

* double well x^4 - x^2, eps = 0.05: two minima (equal values, left one
  first in canonical order) and one saddle, d1 = (-1, +1)^T, H = (Z, 0).
* Re(z^2) + eps (1 + r^2): one index-1 point and nothing else, H_1 = Z.
* Re(z^3): the eps term creates a minimum at the origin next to three
  saddles; d1 has unit entries, so H_0 = 0 and H_1 = Z^2.
* product square: ranks (4, 4, 1), the top point hits every saddle once,
  every saddle splits two adjacent minima, d.d = 0, H = (Z, 0, 0),
  Euler characteristic +1 both from indices and from homology.
* x^2 against -x^2 (and the double well against its negation): ranks
  swap degrees through the ambient dimension when eps flips sign.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from morsevanish.compactify import AlgebraicProblem, realify
from morsevanish.critical import CriticalPoint
from morsevanish.errors import (ConfigError, DegenerateCriticalPoint,
                                MissingCount, NotAComplex, NotChainMap)
from morsevanish.expr import parse_expression
from morsevanish.flow import continuation_trajectories
from morsevanish.homology import (HomologyResult, assemble_complex,
                                  chain_map, continuation_chain_map,
                                  euler_characteristic, homology,
                                  induced_map, induced_maps_agree,
                                  verify_d_squared, window_complex)
from morsevanish.intlinalg import identity, matmul
from morsevanish.metric import MetricSpec
from morsevanish.problem import (DomainModel, ProblemSpec, WindowSpec,
                                 dual_problem)


def make_problem(name, variables, f, tau, lam=1.0):
    return ProblemSpec(name, variables,
                       DomainModel.full_space(len(variables)),
                       parse_expression(f), parse_expression(tau),
                       MetricSpec("euclidean"),
                       WindowSpec.finite_action(lam, 10 * lam, 0.25))


DW = make_problem("double-well", ("x",), "x^4 - x^2", "pow(1 + x^2, -1/2)")
SQ = make_problem("square", ("x", "y"), "x^4 - x^2 + y^4 - y^2",
                  "pow(1 + x^2 + y^2, -1)")
BOWL = make_problem("bowl", ("x",), "x^2", "pow(1 + x^2, -1/2)")
Z2 = realify(AlgebraicProblem(1, (((2,), 1, 0),), name="z^2"))
Z3 = realify(AlgebraicProblem(1, (((3,), 1, 0),), name="z^3"))


def cp(index, value, *coords, degenerate=False):
    """Hand-built critical point for pure chain-level fixtures."""
    n = len(coords)
    eigs = np.array([-1.0] * index + [1.0] * (n - index))
    return CriticalPoint(np.array(coords, dtype=float), float(value), index,
                         eigs, np.eye(n), 0.0, 1e-8, degenerate, "inside",
                         1.0, False)


def interval_complex():
    """Two minima and one saddle with d1 = (+1, -1)^T."""
    pts = [cp(0, -0.5, -1.0), cp(0, -0.4, 1.0), cp(1, 0.0, 0.0)]
    return assemble_complex(pts, {(2, 0): 1, (2, 1): -1})


def torsion_complex(m=2):
    pts = [cp(0, -0.5, 0.0), cp(1, 0.0, 1.0)]
    return assemble_complex(pts, {(1, 0): m})


def cycle_square_counts(corrupt=False):
    """Index-2 cap on a 4-cycle of saddles and minima; d.d = 0 unless the
    top point's count onto the first saddle is corrupted."""
    pts = ([cp(2, 0.5, 0.0, 0.0)]
           + [cp(1, 0.1 * (i + 1), math.cos(i * math.pi / 2 + 0.3),
                 math.sin(i * math.pi / 2 + 0.3)) for i in range(4)]
           + [cp(0, -0.5 + 0.05 * i, math.cos(i * math.pi / 2 + 1.1),
                 math.sin(i * math.pi / 2 + 1.1)) for i in range(4)])
    counts = {(0, 1 + i): 1 for i in range(4)}
    for i in range(4):
        for j in range(4):
            counts[(1 + i, 5 + j)] = 0
    for i in range(4):
        counts[(1 + i, 5 + i)] = 1
        counts[(1 + i, 5 + (i + 1) % 4)] = -1
    if corrupt:
        counts[(0, 1)] = 2
    return pts, counts


@pytest.fixture(scope="module")
def dw_cx():
    return window_complex(DW, 0.05)


@pytest.fixture(scope="module")
def dw_cx_small():
    return window_complex(DW, 0.01)


@pytest.fixture(scope="module")
def sq_cx():
    return window_complex(SQ, 0.05)


class TestAssemble:
    def test_double_well_complex(self, dw_cx):
        assert [dw_cx.rank(k) for k in range(dw_cx.top + 1)] == [2, 1]
        assert dw_cx.boundary(1) == [[-1], [1]]
        assert dw_cx.window == (DW.window.a, DW.window.b)
        # equal minimum values, so coordinates break the tie: left first
        locs = [p.location[0] for p in dw_cx.generators[0]]
        assert locs[0] < 0 < locs[1]
        assert euler_characteristic(dw_cx.points()) == 1

    def test_input_order_does_not_matter(self):
        pts = [cp(1, 0.0, 0.0), cp(0, -0.4, 1.0), cp(0, -0.5, -1.0)]
        cx = assemble_complex(pts, {(0, 2): 1, (0, 1): -1})
        assert cx.boundary(1) == [[1], [-1]]
        assert [p.location[0] for p in cx.generators[0]] == [-1.0, 1.0]

    def test_missing_count_raises(self):
        pts = [cp(1, 0.5, 0.0), cp(0, -0.2, -1.0)]
        with pytest.raises(MissingCount, match="index 1.*index 0"):
            assemble_complex(pts, {})

    def test_nonadjacent_counts(self):
        pts = [cp(2, 0.5, 0.0, 0.0), cp(0, -0.5, 1.0, 1.0)]
        # a zero on a non-adjacent pair is tolerated, a nonzero is not
        cx = assemble_complex(pts, {(0, 1): 0})
        assert cx.rank(2) == 1 and cx.rank(1) == 0
        with pytest.raises(ConfigError, match="drops of exactly one"):
            assemble_complex(pts, {(0, 1): 3})

    def test_window_and_degeneracy_guards(self):
        with pytest.raises(ConfigError, match="outside the window"):
            assemble_complex([cp(0, 2.0, 0.0)], {}, window=(-1.0, 1.0))
        with pytest.raises(DegenerateCriticalPoint):
            assemble_complex([cp(0, 0.0, 0.0, degenerate=True)], {})

    def test_shrunken_window_keeps_only_saddle(self):
        narrow = make_problem("dw-narrow", ("x",), "x^4 - x^2",
                              "pow(1 + x^2, -1/2)", lam=0.1)
        cx = window_complex(narrow, 0.05)
        assert [cx.rank(0), cx.rank(1)] == [0, 1]
        assert homology(cx).groups == {0: (0, ()), 1: (1, ())}


class TestDSquared:
    def test_square_complex(self, sq_cx):
        assert [sq_cx.rank(k) for k in range(3)] == [4, 4, 1]
        assert verify_d_squared(sq_cx).ok
        # the cap hits every saddle exactly once
        assert sorted(abs(row[0]) for row in sq_cx.boundary(2)) == [1, 1, 1, 1]
        # every saddle splits two adjacent minima
        d1 = sq_cx.boundary(1)
        for j in range(4):
            col = [d1[i][j] for i in range(4)]
            assert sorted(v for v in col if v) == [-1, 1]
        assert homology(sq_cx).groups == {0: (1, ()), 1: (0, ()),
                                          2: (0, ())}
        assert euler_characteristic(sq_cx.points()) == 1
        assert homology(sq_cx).euler == 1

    def test_two_degree_complex_vacuous(self, dw_cx):
        rep = verify_d_squared(dw_cx)
        assert rep.ok and rep.witnesses == ()
        assert rep.describe() == "d.d = 0"

    def test_synthetic_cycle_passes(self):
        pts, counts = cycle_square_counts()
        assert verify_d_squared(assemble_complex(pts, counts)).ok

    def test_corrupted_count_fails_with_witness(self):
        pts, counts = cycle_square_counts(corrupt=True)
        rep = verify_d_squared(assemble_complex(pts, counts))
        assert not rep.ok
        assert not rep
        assert all(w[0] == 2 for w in rep.witnesses)
        values = sorted(w[3] for w in rep.witnesses)
        assert values == [-1, 1]
        assert "degree 2" in rep.describe()


class TestHomology:
    def test_interval(self):
        assert homology(interval_complex()).groups == {0: (1, ()),
                                                       1: (0, ())}

    def test_torsion(self):
        h = homology(torsion_complex(2))
        assert h.groups == {0: (0, (2,)), 1: (0, ())}
        assert h.betti(0) == 0 and h.torsion(0) == (2,)
        assert "Z/2" in h.describe()

    def test_summary_round_trips_through_json(self):
        h = homology(torsion_complex(6))
        assert h.torsion(0) == (6,) and h.group_name(0) == "Z/6"
        summary = json.loads(json.dumps(h.summary()))
        assert HomologyResult.from_summary(summary) == h

    def test_a_complex_failing_d_squared_is_refused(self):
        # a mathematical failure (exit 2 from the CLI), not bad input
        assert not issubclass(NotAComplex, ConfigError)
        cx = assemble_complex(*cycle_square_counts(corrupt=True))
        with pytest.raises(NotAComplex, match="degree 2"):
            homology(cx)
        # the identity commutes with any boundary, so it is a chain map
        ident = chain_map(cx, cx, [identity(cx.rank(k))
                                   for k in range(cx.top + 1)])
        with pytest.raises(NotAComplex, match="degree 2"):
            induced_map(ident)

    def test_zero_complex(self):
        cx = assemble_complex([], {})
        assert homology(cx).groups == {}
        assert euler_characteristic(cx.points()) == 0
        assert homology(cx).describe() == "trivial"

    def test_z2_window(self):
        cx = window_complex(Z2, 0.1)
        assert [cx.rank(0), cx.rank(1)] == [0, 1]
        assert homology(cx).groups == {0: (0, ()), 1: (1, ())}

    def test_z3_vanishing_rank(self):
        cx = window_complex(Z3, 0.1)
        assert [cx.rank(0), cx.rank(1)] == [1, 3]
        assert sorted(abs(v) for v in cx.boundary(1)[0]) == [1, 1, 1]
        assert homology(cx).groups == {0: (0, ()), 1: (2, ())}

    def test_euler_from_result(self):
        assert HomologyResult({0: (1, ()), 1: (2, ()),
                               2: (1, (5,))}).euler == 0


def assert_commutes(cm):
    """d.c = c.d over the integers in every degree of a chain map."""
    for k in range(1, cm.top + 1):
        cols = cm.source.rank(k)
        assert matmul(cm.target.boundary(k), cm.degree(k), cols) == \
            matmul(cm.degree(k - 1), cm.source.boundary(k), cols), k


class TestChainMaps:
    def test_identity_counts_are_an_isomorphism(self, dw_cx):
        ind = continuation_chain_map(dw_cx, dw_cx,
                                     {(i, i): 1 for i in range(3)})
        assert ind.isomorphism and ind.failures == ()
        assert ind.chain.matrices == ([[1, 0], [0, 1]], [[1]])
        assert_commutes(ind.chain)

    def test_commutation_failure_carries_witness(self, dw_cx):
        # flipping one minimum's sign breaks d.c = c.d at the saddle
        with pytest.raises(NotChainMap, match="degree 1") as err:
            continuation_chain_map(dw_cx, dw_cx,
                                   {(0, 0): 1, (1, 1): -1, (2, 2): 1})
        wit = err.value.witnesses
        assert wit and wit[0][0] == 1 and abs(wit[0][3]) == 2

    def test_window_mismatch_rejected(self):
        one = assemble_complex([cp(0, 0.0, 0.0)], {}, window=(-1, 1))
        two = assemble_complex([cp(0, 0.0, 0.0)], {}, window=(-2, 2))
        with pytest.raises(ConfigError, match="window"):
            continuation_chain_map(one, two, {(0, 0): 1})

    def test_index_jump_count_rejected(self, dw_cx):
        with pytest.raises(ConfigError, match="preserve the Morse index"):
            continuation_chain_map(dw_cx, dw_cx,
                                   {(2, 0): 1, (0, 0): 1, (1, 1): 1,
                                    (2, 2): 1})

    def test_doubling_on_torsion_commutes_but_is_not_iso(self):
        cx = torsion_complex(2)
        ind = induced_map(chain_map(cx, cx, [[[2]], [[2]]]))
        # H_0 = Z/2 on both sides, but multiplication by 2 kills it
        assert ind.source_homology.groups == ind.target_homology.groups
        assert not ind.isomorphism
        assert any("not onto" in f for f in ind.failures)

    def test_identity_on_torsion_is_iso(self):
        cx = torsion_complex(2)
        assert induced_map(chain_map(cx, cx, [[[1]], [[1]]])).isomorphism

    def test_group_mismatch_reported(self):
        src = assemble_complex([cp(0, -0.5, -1.0), cp(0, -0.4, 1.0)], {})
        tgt = assemble_complex([cp(0, -0.5, 0.0)], {})
        ind = induced_map(chain_map(src, tgt, [[[1, 0]]]))
        assert not ind.isomorphism
        assert "degree 0" in ind.failures[0]
        assert "Z^2" in ind.failures[0]

    def test_rank_zero_degrees_keep_their_shapes(self):
        circle = assemble_complex([cp(0, -0.5, 1.0), cp(1, 0.0, 0.0)],
                                  {(1, 0): 0})
        point = assemble_complex([cp(0, -0.5, 0.0)], {})
        # degree 1 maps C_1 = Z into the zero module of the point
        down = chain_map(circle, point, [[[1]], []])
        ind = induced_map(down)
        assert not ind.isomorphism
        assert ind.failures[0].startswith("degree 1: groups differ")
        # composing through the point's empty degree 1 still gives 1 x 1
        up = chain_map(point, circle, [[[1]], [[]]])
        round_trip = chain_map(circle, circle, [
            matmul(up.degree(k), down.degree(k), circle.rank(k))
            for k in range(2)])
        assert round_trip.matrices == ([[1]], [[0]])

    def test_wrong_block_shape_rejected(self, dw_cx):
        with pytest.raises(ConfigError, match="degree 0"):
            chain_map(dw_cx, dw_cx, [[[1]], [[1]]])


class TestContinuation:
    def test_eps_drop_is_identity_on_the_nose(self, dw_cx, dw_cx_small):
        res = continuation_trajectories(DW, 0.05, 0.01, dw_cx.points(),
                                        dw_cx_small.points())
        ind = continuation_chain_map(dw_cx, dw_cx_small, res)
        assert ind.isomorphism
        assert ind.chain.matrices == ([[1, 0], [0, 1]], [[1]])
        assert ind.source_homology.groups == {0: (1, ()), 1: (0, ())}
        assert ind.target_homology.groups == {0: (1, ()), 1: (0, ())}

    def test_composite_agrees_with_direct(self, dw_cx, dw_cx_small):
        mid = window_complex(DW, 0.02)

        def leg(src, tgt, e0, e1):
            res = continuation_trajectories(DW, e0, e1, src.points(),
                                            tgt.points())
            return continuation_chain_map(src, tgt, res)

        first = leg(dw_cx, mid, 0.05, 0.02)
        second = leg(mid, dw_cx_small, 0.02, 0.01)
        direct = leg(dw_cx, dw_cx_small, 0.05, 0.01)
        composite = induced_map(chain_map(dw_cx, dw_cx_small, [
            matmul(second.chain.degree(k), first.chain.degree(k),
                   dw_cx.rank(k))
            for k in range(dw_cx.top + 1)]))
        assert composite.isomorphism
        assert induced_maps_agree(composite, direct)


def duality_sides(spec, eps):
    """H of (f, -eps) on the window and H of (-f, +eps) on the mirrored
    window (-b, -a), and whether rank H_k of the first equals rank
    H_(n-k) of the second in every degree k."""
    n = spec.domain.dimension
    primal = homology(window_complex(spec, -eps))
    dual = homology(window_complex(dual_problem(spec), eps))
    ok = all(primal.betti(k) == dual.betti(n - k) for k in range(n + 1))
    return primal, dual, ok


class TestStabilizedAndDuality:
    def test_duality_ranks_flip_through_dimension(self):
        primal, dual, ok = duality_sides(DW, 0.05)
        assert ok and DW.domain.dimension == 1
        assert primal.groups == {0: (1, ()), 1: (0, ())}
        assert dual.groups == {0: (0, ()), 1: (1, ())}

    def test_duality_single_minimum(self):
        primal, dual, ok = duality_sides(BOWL, 0.05)
        assert ok
        assert primal.betti(0) == 1 and dual.betti(1) == 1

    def test_duality_mirrors_an_asymmetric_window(self):
        # on (-0.2, 1) the minima of f_{-0.05} (about -0.31) fall below
        # the window and leave the saddle (about -0.05) alone: H_1 = Z.
        # The dual window is (-1, 0.2): it keeps the minimum of -f at
        # about 0.05 and drops the two maxima at about 0.31, so H_0 = Z;
        # the unmirrored window would keep all three.
        spec = dataclasses.replace(DW, window=WindowSpec(-0.2, 1.0, 1.0,
                                                         10.0, 0.05))
        primal, dual, ok = duality_sides(spec, 0.05)
        assert primal.groups == {0: (0, ()), 1: (1, ())}
        assert dual.groups == {0: (1, ())}
        assert ok

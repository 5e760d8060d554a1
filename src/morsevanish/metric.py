"""Riemannian metrics on the open stratum, and gradients taken in them.

Three built-in families plus user-supplied matrices:

* ``euclidean``: the ambient flat metric.
* ``cone-euclidean``: g = Id / tau.  Its gradient has the closed form
  grad f = tau * df, which keeps flow right-hand sides cheap.
* ``kahler-cone``: on R^{2n} identified with C^n,
  g = (a a^T + b b^T + Id) / tau with a = dtau/tau and b = J a, where J is
  the complex-structure block rotation.  This is the metric the
  complex-polynomial pipeline installs.  Since a and b are orthogonal and
  equally long, the gradient has the closed form
  grad f = tau (df - (a (a.df) + b (b.df)) / (1 + |a|^2)); no matrix is
  built or solved.
* ``custom``: a symmetric matrix of expressions in the problem variables.

The metric at each critical point gets a Cholesky certificate
(``metric_batch(..., certify=True)``): a non-finite, badly asymmetric or
indefinite matrix there raises NotPositiveDefinite.  The flow's
``apply_inverse`` checks nothing: along a path it inverts whatever matrix
the metric gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, NotPositiveDefinite
from .expr import Expression, compile

__all__ = ["MetricSpec", "metric_batch", "metric_exprs",
           "apply_inverse", "apply_inverse_batch", "KINDS"]

KINDS = ("euclidean", "cone-euclidean", "kahler-cone", "custom")

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class MetricSpec:
    kind: str
    custom: Optional[Tuple[Tuple[Expression, ...], ...]] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown metric kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "custom":
            if not self.custom:
                raise ConfigError("custom metric needs a matrix of expressions")
            n = len(self.custom)
            if any(len(row) != n for row in self.custom):
                raise ConfigError("custom metric matrix must be square")
        elif self.custom is not None:
            raise ConfigError(f"matrix entries only make sense for kind='custom', not {self.kind!r}")


def metric_exprs(spec: MetricSpec, tau: Expression) -> Tuple[Expression, ...]:
    """What the metric reads: nothing, tau, or the custom entries by row."""
    if spec.kind == "euclidean":
        return ()
    if spec.kind == "custom":
        return tuple(e for row in spec.custom for e in row)
    return (tau,)


def _kahler_parts(jets, n: int):
    """tau and the stacked (a, b) at the rows of the tau jet: a = dtau/tau
    and b = J a, J the block rotation (u_k, v_k) -> (v_k, -u_k)."""
    if n % 2 != 0:
        raise ConfigError("kahler-cone metric needs an even-dimensional problem")
    tv, tg = jets[0]
    ab = np.empty((2,) + tg.shape)
    np.divide(tg, tv[:, None], out=ab[0])
    ab[1, :, 0::2] = ab[0, :, 1::2]
    np.negative(ab[0, :, 0::2], out=ab[1, :, 1::2])
    return tv, ab


def _matrices(spec: MetricSpec, jets, m: int, n: int) -> np.ndarray:
    """Metric matrices (m, n, n) from the jet1 outputs of ``metric_exprs``."""
    if spec.kind == "euclidean":
        return np.broadcast_to(np.eye(n), (m, n, n)).copy()
    if spec.kind == "cone-euclidean":
        return np.eye(n)[None, :, :] / jets[0][0][:, None, None]
    if spec.kind == "kahler-cone":
        tv, (a, b) = _kahler_parts(jets, n)
        return (a[:, :, None] * a[:, None, :] + b[:, :, None] * b[:, None, :]
                + np.eye(n)[None, :, :]) / tv[:, None, None]
    return np.stack([v for v, _ in jets], axis=1).reshape(m, n, n)


def apply_inverse(spec: MetricSpec, jets, df: np.ndarray) -> np.ndarray:
    """Solve g(x) w = df(x) row-wise, g from the jet1 outputs of
    ``metric_exprs`` at the same rows, with closed forms where the metric
    admits them: the gradient vector field of f.  The euclidean metric
    hands back df itself."""
    if spec.kind == "euclidean":
        return df
    if spec.kind == "cone-euclidean":
        return jets[0][0][:, None] * df
    if spec.kind == "kahler-cone":
        # a and b are orthogonal of equal length, so the inverse of
        # I + a a^T + b b^T is I - (a a^T + b b^T) / (1 + |a|^2); q holds
        # a (a.df) / c and b (b.df) / c
        tv, ab = _kahler_parts(jets, df.shape[1])
        a = ab[0]
        c = 1.0 + np.einsum("ij,ij->i", a, a)
        q = ab * (np.einsum("kij,ij->ki", ab, df) / c)[:, :, None]
        return tv[:, None] * (df - q[0] - q[1])
    G = _matrices(spec, jets, *df.shape)
    return np.linalg.solve(G, df[..., None])[..., 0]


def metric_batch(spec: MetricSpec, tau: Expression, names: Sequence[str],
                 X: np.ndarray, certify: bool = False) -> np.ndarray:
    """Metric matrices at a batch of points, shape (m, n, n)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    jets = compile(metric_exprs(spec, tau), names).jet1(X)
    G = _matrices(spec, jets, *X.shape)
    if certify:
        for k in range(len(X)):
            _certify(G[k], X[k])
    return G


def _certify(G: np.ndarray, x: np.ndarray) -> None:
    if not np.all(np.isfinite(G)):
        raise NotPositiveDefinite(f"metric is not finite at {x.tolist()}")
    scale = max(1.0, float(np.max(np.abs(G))))
    if float(np.max(np.abs(G - G.T))) > _SYMMETRY_TOL * scale:
        raise NotPositiveDefinite(f"metric is not symmetric at {x.tolist()}")
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"metric is not positive definite at {x.tolist()}") from None


def apply_inverse_batch(spec: MetricSpec, tau: Expression, names: Sequence[str],
                        X: np.ndarray, df: np.ndarray) -> np.ndarray:
    """``apply_inverse`` at a batch of points X."""
    jets = compile(metric_exprs(spec, tau), names).jet1(np.atleast_2d(X))
    return apply_inverse(spec, jets, df)

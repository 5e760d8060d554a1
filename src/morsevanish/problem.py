"""Problem definitions: domain, f, tau, metric choice, action window.

A problem couples a smooth function f on an open domain with a boundary
function tau that vanishes toward the non-compact ends.  Nothing here
checks that tau*f stays bounded out there: on a polynomial config,
``compactify.build_tau`` refuses an alpha below the degree, which bounds
it; on a hand-written config, the cubical oracle is the check.  The
perturbation f_eps = f + eps/tau is what the solvers actually work on:
its critical values either settle into a bounded cluster as eps drops or
blow up, and the window (a, b) selects the bounded part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .expr import (Const, Expression, Quotient, Sum, as_fraction,
                   free_variables)
from .metric import MetricSpec

__all__ = ["BOX_REACH", "DEFAULT_WINDOW", "DomainModel", "WindowSpec",
           "ProblemSpec", "dual_problem", "perturbed_function"]

_INF = float("inf")
_BOX_MARGIN = 1e-3   # search box inset from a finite end (times the width
                     # when both ends are finite)
BOX_REACH = 3.0      # search box extent along an unbounded side, and
                     # the half-width of a full-space box
_CLAMP_RTOL = 1e-9   # relative inset of solver iterates from a finite end
_MAX_VARIABLES = 12  # one Halton base each in the critical point search


@dataclass(frozen=True)
class DomainModel:
    """Either all of R^n or a product of open intervals / half-lines.

    ``intervals[i]`` is the (lo, hi) pair for axis i with +-inf allowed;
    ``box`` is the finite per-axis search box used by grid-based stages.
    """

    intervals: Tuple[Tuple[float, float], ...]
    box: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        if len(self.intervals) != len(self.box):
            raise ConfigError("domain intervals and search box disagree on dimension")
        for lo, hi in self.intervals:
            if not lo < hi:
                raise ConfigError(f"empty domain interval ({lo}, {hi})")
        for (lo, hi), (blo, bhi) in zip(self.intervals, self.box):
            if not (math.isfinite(blo) and math.isfinite(bhi) and blo < bhi):
                raise ConfigError(f"search box axis ({blo}, {bhi}) must be finite and ordered")
            if blo < lo or bhi > hi:
                raise ConfigError("search box must sit inside the domain")

    @property
    def dimension(self) -> int:
        return len(self.intervals)

    @classmethod
    def full_space(cls, n: int,
                   box_halfwidth: float = BOX_REACH) -> "DomainModel":
        iv = tuple((-_INF, _INF) for _ in range(n))
        bx = tuple((-box_halfwidth, box_halfwidth) for _ in range(n))
        return cls(iv, bx)

    @classmethod
    def from_intervals(cls, intervals: Sequence[Tuple[float, float]]
                       ) -> "DomainModel":
        ivs = tuple((float(lo), float(hi)) for lo, hi in intervals)
        box = []
        for lo, hi in ivs:
            if math.isfinite(lo) and math.isfinite(hi):
                pad = _BOX_MARGIN * (hi - lo)
                box.append((lo + pad, hi - pad))
            elif math.isfinite(lo):
                box.append((lo + _BOX_MARGIN, lo + BOX_REACH))
            elif math.isfinite(hi):
                box.append((hi - BOX_REACH, hi - _BOX_MARGIN))
            else:
                box.append((-BOX_REACH, BOX_REACH))
        return cls(ivs, tuple(box))

    def contains(self, x: Sequence[float]) -> bool:
        return all(lo < v < hi for v, (lo, hi) in zip(x, self.intervals))

    def clamp_to_interior(self, X: np.ndarray) -> np.ndarray:
        """Project a batch of points into the open domain, for solver iterates."""
        out = np.array(X, dtype=float, copy=True)
        for i, (lo, hi) in enumerate(self.intervals):
            if math.isfinite(lo) and math.isfinite(hi):
                pad = _CLAMP_RTOL * (hi - lo)
                np.clip(out[:, i], lo + pad, hi - pad, out=out[:, i])
            elif math.isfinite(lo):
                np.clip(out[:, i], lo + _CLAMP_RTOL * max(1.0, abs(lo)), None,
                        out=out[:, i])
            elif math.isfinite(hi):
                np.clip(out[:, i], None, hi - _CLAMP_RTOL * max(1.0, abs(hi)),
                        out=out[:, i])
        return out


@dataclass(frozen=True)
class WindowSpec:
    """Action window (a,b) together with the finite-action constants.

    For finite-action runs a = -lam and b = lam; Lam > lam bounds the gap
    that divergent critical values must clear, and sigma is the margin
    used by confinement monitoring (no critical values may sit within
    sigma outside the window).
    """

    a: float
    b: float
    lam: float
    Lam: float
    sigma: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ConfigError(f"window needs a < b, got ({self.a}, {self.b})")
        if not (0 < self.lam < self.Lam):
            raise ConfigError(f"window needs 0 < lambda < Lambda, got "
                              f"({self.lam}, {self.Lam})")
        if not self.sigma > 0:
            raise ConfigError("window margin sigma must be positive")

    @classmethod
    def finite_action(cls, lam: float, Lam: float, sigma: float) -> "WindowSpec":
        return cls(-lam, lam, lam, Lam, sigma)

    def status(self, value: float) -> str:
        if value <= self.a:
            return "below"
        if value >= self.b:
            return "above"
        return "inside"


# the window of a problem that names none, at lambda 1; a config window
# that sets only lambda scales Lambda and sigma with it
DEFAULT_WINDOW = WindowSpec.finite_action(1.0, 10.0, 0.25)


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    variables: Tuple[str, ...]
    domain: DomainModel
    f: Expression
    tau: Expression
    metric: MetricSpec
    window: WindowSpec
    notes: Tuple[str, ...] = field(default=())

    def __post_init__(self):
        if len(self.variables) != self.domain.dimension:
            raise ConfigError("variable list does not match domain dimension")
        if len(self.variables) > _MAX_VARIABLES:
            raise ConfigError(
                f"{len(self.variables)} real variables; the critical point "
                f"search takes at most {_MAX_VARIABLES}")
        used = set(free_variables(self.f)) | set(free_variables(self.tau))
        unknown = used - set(self.variables)
        if unknown:
            raise ConfigError(f"f/tau use undeclared variables {sorted(unknown)}")

    def with_f(self, f: Expression, note: str = "") -> "ProblemSpec":
        notes = self.notes + ((note,) if note else ())
        return replace(self, f=f, notes=notes)


def dual_problem(problem: ProblemSpec) -> ProblemSpec:
    """The problem of -f, with the window mirrored to (-b, -a).

    Critical points survive with index k turned into n - k and value v
    into -v, so with eps negated too, -f_eps = (-f) + (-eps)/tau has the
    same window points as f_eps, and its flowlines are theirs reversed.
    """
    w = problem.window
    return replace(problem, name=problem.name + "-neg", f=-problem.f,
                   window=replace(w, a=-w.b, b=-w.a))


def perturbed_function(problem: ProblemSpec, eps: float) -> Expression:
    """f_eps = f + eps/tau; eps = 0 returns f itself (the same object)."""
    if eps == 0:
        return problem.f
    return Sum((problem.f, Quotient(Const(as_fraction(eps)), problem.tau)))

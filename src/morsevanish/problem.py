"""Problem definitions: domain, f, tau, metric choice, action window.

A problem couples a smooth function f on an open domain with a boundary
function tau that vanishes toward the non-compact ends, so that tau*f
stays bounded out there.  The perturbation f_eps = f + eps/tau is what the
solvers actually work on: its critical values either settle into a bounded
cluster as eps drops or blow up, and the window (a, b) selects the bounded
part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .expr import (Const, Expression, Quotient, Sum, as_fraction,
                   differentiate, evaluate, free_variables)
from .metric import MetricSpec

__all__ = ["DomainModel", "WindowSpec", "ProblemSpec", "perturbed_function",
           "evaluate", "differentiate"]

_INF = float("inf")


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

    @property
    def is_full_space(self) -> bool:
        return all(lo == -_INF and hi == _INF for lo, hi in self.intervals)

    @classmethod
    def full_space(cls, n: int, box_halfwidth: float = 3.0) -> "DomainModel":
        iv = tuple((-_INF, _INF) for _ in range(n))
        bx = tuple((-box_halfwidth, box_halfwidth) for _ in range(n))
        return cls(iv, bx)

    @classmethod
    def from_intervals(cls, intervals: Sequence[Tuple[float, float]],
                       box: Optional[Sequence[Tuple[float, float]]] = None,
                       margin: float = 1e-3,
                       infinite_halfwidth: float = 3.0) -> "DomainModel":
        ivs = tuple((float(lo), float(hi)) for lo, hi in intervals)
        if box is None:
            bx = []
            for lo, hi in ivs:
                if math.isfinite(lo) and math.isfinite(hi):
                    pad = margin * (hi - lo)
                    bx.append((lo + pad, hi - pad))
                elif math.isfinite(lo):
                    bx.append((lo + margin, lo + infinite_halfwidth))
                elif math.isfinite(hi):
                    bx.append((hi - infinite_halfwidth, hi - margin))
                else:
                    bx.append((-infinite_halfwidth, infinite_halfwidth))
            box = bx
        return cls(ivs, tuple((float(a), float(b)) for a, b in box))

    def contains(self, x: Sequence[float], margin: float = 0.0) -> bool:
        for v, (lo, hi) in zip(x, self.intervals):
            if not (lo + margin < v < hi - margin):
                return False
        return True

    def clamp_to_interior(self, X: np.ndarray, rel_margin: float = 1e-9) -> np.ndarray:
        """Project a batch of points into the open domain, for solver iterates."""
        out = np.array(X, dtype=float, copy=True)
        for i, (lo, hi) in enumerate(self.intervals):
            if math.isfinite(lo) and math.isfinite(hi):
                pad = rel_margin * (hi - lo)
                np.clip(out[:, i], lo + pad, hi - pad, out=out[:, i])
            elif math.isfinite(lo):
                np.clip(out[:, i], lo + rel_margin * max(1.0, abs(lo)), None, out=out[:, i])
            elif math.isfinite(hi):
                np.clip(out[:, i], None, hi - rel_margin * max(1.0, abs(hi)), out=out[:, i])
        return out

    def ends(self):
        """Declared non-compact ends as (axis, side) pairs; side in {-1,+1}.

        Axis None stands for the single end at infinity of a full-space
        factor set; each infinite axis side is one entry.
        """
        out = []
        for i, (lo, hi) in enumerate(self.intervals):
            out.append((i, -1, lo))
            out.append((i, +1, hi))
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
        used = set(free_variables(self.f)) | set(free_variables(self.tau))
        unknown = used - set(self.variables)
        if unknown:
            raise ConfigError(f"f/tau use undeclared variables {sorted(unknown)}")

    def with_f(self, f: Expression, note: str = "") -> "ProblemSpec":
        notes = self.notes + ((note,) if note else ())
        return replace(self, f=f, notes=notes)


def perturbed_function(problem: ProblemSpec, eps: float) -> Expression:
    """f_eps = f + eps/tau; eps = 0 returns f itself (the same object)."""
    if eps == 0:
        return problem.f
    return Sum((problem.f, Quotient(Const(as_fraction(eps)), problem.tau)))

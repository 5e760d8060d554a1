"""From a complex polynomial to a real problem with controlled ends.

Given F: C^n -> C with rational coefficients, the pipeline here

1. reads off the growth rate d of F at infinity,
2. builds tau = (1 + |x|^2)^(-alpha/2) on R^{2n}, alpha >= max(d, 1),
3. expands f_theta = Re(e^{i theta} F) exactly into a real polynomial in
   the coordinates u_1, v_1, ..., u_n, v_n,

and assembles the ProblemSpec with the Kahler cone metric.  Since
|F| <~ |z|^d and tau decays like |x|^(-alpha), the product tau*f stays
bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .errors import AlphaTooSmall, ConfigError, ZeroPolynomial
from .expr import Const, Expression, FracPow, IntPow, Product, Sum, Var
from .metric import MetricSpec
from .problem import (BOX_REACH, DEFAULT_WINDOW, DomainModel, ProblemSpec,
                      WindowSpec)

__all__ = ["AlgebraicProblem", "build_tau",
           "realify", "real_variables", "real_imag_parts"]

Exponents = Tuple[int, ...]


@dataclass(frozen=True)
class AlgebraicProblem:
    """A polynomial F on C^n with exact rational coefficients.

    ``terms`` maps exponent tuples to complex coefficients given as
    (re, im) Fraction pairs.  ``alpha`` is the decay rate for tau; None
    means "use the degree of F".
    """

    n: int
    terms: Tuple[Tuple[Exponents, Fraction, Fraction], ...]
    alpha: Optional[int] = None
    name: str = "F"

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("need at least one complex variable")
        merged: Dict[Exponents, Tuple[Fraction, Fraction]] = {}
        for expo, re, im in self.terms:
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.n or any(e < 0 for e in expo):
                raise ConfigError(f"bad exponent tuple {expo} for n={self.n}")
            pre, pim = merged.get(expo, (Fraction(0), Fraction(0)))
            merged[expo] = (pre + Fraction(re), pim + Fraction(im))
        clean = tuple((e, c[0], c[1]) for e, c in sorted(merged.items())
                      if c[0] != 0 or c[1] != 0)
        object.__setattr__(self, "terms", clean)
        if not clean:
            raise ZeroPolynomial("the zero polynomial has no meaningful ends")
        if self.alpha is not None and int(self.alpha) != self.alpha:
            raise ConfigError("alpha must be an integer")

    @property
    def degree(self) -> int:
        """Growth rate of F at infinity: the total degree."""
        return max(sum(e) for e, _, _ in self.terms)

    @property
    def resolved_alpha(self) -> int:
        if self.alpha is None:
            return max(self.degree, 1)
        return int(self.alpha)

    def evaluate_complex(self, z: Sequence[complex]) -> complex:
        """Direct complex evaluation, used as a cross-check oracle."""
        total = 0j
        for expo, re, im in self.terms:
            mono = complex(re) + 1j * complex(im)
            for zk, e in zip(z, expo):
                mono *= zk ** e
            total += mono
        return total


def real_variables(n: int) -> Tuple[str, ...]:
    """Coordinate names on R^{2n}: z_k = u_k + i v_k."""
    out = []
    for k in range(1, n + 1):
        out.extend((f"u{k}", f"v{k}"))
    return tuple(out)


def build_tau(problem: AlgebraicProblem) -> Expression:
    """tau = (1 + sum u_k^2 + v_k^2)^(-alpha/2) on R^{2n}.

    Raising alpha only speeds up the decay, so the map alpha -> tau(x) is
    monotone decreasing pointwise for |x| > 0; alpha below the degree would
    let tau*f grow, hence the check.
    """
    alpha = problem.resolved_alpha
    if alpha < max(problem.degree, 1):
        raise AlphaTooSmall(
            f"alpha={alpha} cannot tame a degree-{problem.degree} polynomial; "
            f"need alpha >= {max(problem.degree, 1)}")
    names = real_variables(problem.n)
    base = Sum((Const(Fraction(1)),) + tuple(IntPow(Var(nm), 2) for nm in names))
    return FracPow(base, Fraction(-alpha, 2))


def _axis_binomial(e: int) -> Dict[Tuple[int, int], Tuple[Fraction, Fraction]]:
    """(u + i v)^e as {(j_u, j_v): (re, im)} with exact coefficients."""
    out: Dict[Tuple[int, int], Tuple[Fraction, Fraction]] = {}
    for j in range(e + 1):
        c = Fraction(math.comb(e, j))
        re, im = ((c, Fraction(0)), (Fraction(0), c),
                  (-c, Fraction(0)), (Fraction(0), -c))[j % 4]
        out[(e - j, j)] = (re, im)
    return out


def _expand_terms(problem: AlgebraicProblem):
    """Exact expansion of F over (u1, v1, ..., un, vn).

    Returns (re_poly, im_poly) as dicts from 2n-exponent tuples to Fractions.
    """
    n = problem.n
    re_poly: Dict[Exponents, Fraction] = {}
    im_poly: Dict[Exponents, Fraction] = {}
    for expo, cre, cim in problem.terms:
        acc: Dict[Exponents, Tuple[Fraction, Fraction]] = {(): (cre, cim)}
        for k in range(n):
            fac = _axis_binomial(expo[k])
            nxt: Dict[Exponents, Tuple[Fraction, Fraction]] = {}
            for tail, (are, aim) in acc.items():
                for (ju, jv), (bre, bim) in fac.items():
                    key = tail + (ju, jv)
                    pre, pim = nxt.get(key, (Fraction(0), Fraction(0)))
                    nxt[key] = (pre + are * bre - aim * bim,
                                pim + are * bim + aim * bre)
            acc = nxt
        for key, (re, im) in acc.items():
            if re:
                re_poly[key] = re_poly.get(key, Fraction(0)) + re
            if im:
                im_poly[key] = im_poly.get(key, Fraction(0)) + im
    re_poly = {k: v for k, v in re_poly.items() if v != 0}
    im_poly = {k: v for k, v in im_poly.items() if v != 0}
    return re_poly, im_poly


def _poly_expression(poly: Dict[Exponents, Fraction], names: Sequence[str]) -> Expression:
    if not poly:
        return Const(Fraction(0))
    terms = []
    for expo in sorted(poly):
        c = poly[expo]
        powers = []
        for nm, e in zip(names, expo):
            if e == 1:
                powers.append(Var(nm))
            elif e > 1:
                powers.append(IntPow(Var(nm), e))
        if not powers:
            terms.append(Const(c))
        elif c == 1:
            terms.append(powers[0] if len(powers) == 1 else Product(tuple(powers)))
        else:
            terms.append(Product((Const(c),) + tuple(powers)))
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def real_imag_parts(problem: AlgebraicProblem):
    """Exact expressions for Re F and Im F over (u1, v1, ..., un, vn)."""
    names = real_variables(problem.n)
    re_poly, im_poly = _expand_terms(problem)
    return _poly_expression(re_poly, names), _poly_expression(im_poly, names)


def realify(problem: AlgebraicProblem, theta: float = 0.0,
            window: WindowSpec = DEFAULT_WINDOW,
            box_halfwidth: float = BOX_REACH) -> ProblemSpec:
    """ProblemSpec on R^{2n} for f_theta = Re(e^{i theta} F).

    f_theta = cos(theta) Re F - sin(theta) Im F.  At theta = 0 the result
    is the exact rational expansion of Re F; other angles pick up float
    cos/sin factors in front of the two exact parts.
    """
    names = real_variables(problem.n)
    re_expr, im_expr = real_imag_parts(problem)
    c, s = math.cos(theta), math.sin(theta)
    if theta == 0.0:
        f = re_expr
    else:
        parts = []
        if c != 0.0:
            parts.append(Product((Const(Fraction(c)), re_expr)))
        if s != 0.0:
            parts.append(Product((Const(Fraction(-s)), im_expr)))
        f = Sum(tuple(parts)) if len(parts) != 1 else parts[0]

    domain = DomainModel.full_space(2 * problem.n, box_halfwidth)
    return ProblemSpec(
        name=f"{problem.name}[theta={theta:g}]" if theta else problem.name,
        variables=names,
        domain=domain,
        f=f,
        tau=build_tau(problem),
        metric=MetricSpec("kahler-cone"),
        window=window,
        notes=(f"realified degree-{problem.degree} polynomial, "
               f"alpha={problem.resolved_alpha}",),
    )

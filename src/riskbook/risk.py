"""Risk measures on finite cost distributions.

Four built-in measures are provided: expected cost, worst case, the
``alpha``-quantile (VaR), and the tail expectation beyond it (CVaR).  All
four are monotone: pointwise-dominated costs never assess as riskier.  CVaR
is evaluated exactly by minimizing ``beta + E[(f - beta)^+] / (1 - alpha)``
over the support points of ``f`` (Rockafellar & Uryasev, 2000); the
objective is piecewise linear in ``beta`` with kinks only at support values,
so the minimum is attained there.  One pass over suffix sums of ``p`` and
``p * v`` gives the objective at every support point in linear time; the
points whose sum lies within rounding of the minimum are then re-evaluated
term by term, added left to right by :func:`~riskbook.probspace._sum`, so
the result depends neither on how the suffix sums rounded nor on the
interpreter.  A user-supplied callable can serve as a custom measure, in
which case only spot checks of monotonicity are possible.

Worst case, VaR and CVaR depend on a cost only through its distribution, so
:func:`assess_support` takes the atoms directly; :func:`assess` builds them
with :func:`~riskbook.probspace.distribution`, and the compiled evaluation
in :mod:`riskbook.riskaware` builds the same atoms from scenarios grouped by
environment response.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from .errors import EmptySupport, InvalidAlpha, ValidationError
from .probspace import FiniteProbSpace, RandomCost, _sum, distribution, expectation
from .tolerance import ge

EXPECTED = "expected"
WORST_CASE = "worst_case"
VAR = "var"
CVAR = "cvar"
CUSTOM = "custom"

MEASURE_KINDS = (EXPECTED, WORST_CASE, VAR, CVAR)

CustomAssessor = Callable[[FiniteProbSpace, RandomCost], float]


@dataclass(frozen=True)
class RiskMeasure:
    """A named mapping from cost variables to real risk assessments."""

    kind: str
    alpha: float | None = None
    fn: CustomAssessor | None = field(default=None, compare=False)
    label: str | None = None

    def __post_init__(self) -> None:
        if self.kind in (VAR, CVAR):
            if self.alpha is None:
                raise InvalidAlpha(f"{self.kind} requires alpha")
            if not 0.0 <= self.alpha <= 1.0:
                raise InvalidAlpha(f"alpha must lie in [0, 1], got {self.alpha!r}")
        elif self.kind in (EXPECTED, WORST_CASE):
            if self.alpha is not None:
                raise InvalidAlpha(f"{self.kind} does not take alpha")
        elif self.kind == CUSTOM:
            if self.fn is None:
                raise ValidationError("custom measure requires a callable")
        else:
            raise ValidationError(
                f"unknown risk measure kind {self.kind!r}, expected one of {', '.join(MEASURE_KINDS)}"
            )

    @staticmethod
    def expected() -> "RiskMeasure":
        return RiskMeasure(EXPECTED)

    @staticmethod
    def worst_case() -> "RiskMeasure":
        return RiskMeasure(WORST_CASE)

    @staticmethod
    def var(alpha: float) -> "RiskMeasure":
        return RiskMeasure(VAR, alpha=alpha)

    @staticmethod
    def cvar(alpha: float) -> "RiskMeasure":
        return RiskMeasure(CVAR, alpha=alpha)

    @staticmethod
    def custom(fn: CustomAssessor, label: str = "custom") -> "RiskMeasure":
        return RiskMeasure(CUSTOM, fn=fn, label=label)

    def describe(self) -> str:
        if self.kind in (VAR, CVAR):
            return f"{self.kind}(alpha={self.alpha!r})"
        if self.kind == CUSTOM:
            return self.label or CUSTOM
        return self.kind


def _worst_case(atoms: list[tuple[float, float]]) -> float:
    return atoms[-1][0]


def _value_at_risk(atoms: list[tuple[float, float]], alpha: float) -> float:
    cumulative = 0.0
    for v, p in atoms:
        cumulative += p
        if ge(cumulative, alpha):
            return v
    return atoms[-1][0]


def _cvar(atoms: list[tuple[float, float]], alpha: float) -> float:
    if alpha == 1.0:
        return _worst_case(atoms)
    scale = 1.0 / (1.0 - alpha)

    def objective(beta: float) -> float:
        shortfall = _sum(p * (v - beta) for v, p in atoms if v > beta)
        return beta + scale * shortfall

    # Atoms ascend strictly, so the atoms above v are exactly the later ones.
    approx = []
    tail_p = tail_pv = 0.0
    for v, p in reversed(atoms):
        approx.append(v + scale * (tail_pv - v * tail_p))
        tail_p += p
        tail_pv += p * v
    approx.reverse()
    best = min(approx)
    window = 1e-9 * max(1.0, abs(best))
    return min(objective(v) for (v, _), a in zip(atoms, approx) if a - best <= window)


def assess(measure: RiskMeasure, space: FiniteProbSpace, f: RandomCost) -> float:
    """Risk of the cost variable ``f`` under ``measure``.

    Scenarios of probability zero never influence the result.
    """
    if measure.kind == EXPECTED:
        return expectation(space, f)
    if measure.kind == CUSTOM:
        return measure.fn(space, f)
    return assess_support(measure, distribution(space, f))


def assess_support(measure: RiskMeasure, atoms: list[tuple[float, float]]) -> float:
    """Risk under a worst-case, VaR or CVaR ``measure`` of the distribution
    whose atoms :func:`~riskbook.probspace.distribution` gives."""
    if not atoms:
        raise EmptySupport("no scenario has positive probability")
    if measure.kind == WORST_CASE:
        return _worst_case(atoms)
    if measure.kind == VAR:
        return _value_at_risk(atoms, measure.alpha)
    return _cvar(atoms, measure.alpha)


def is_strictly_monotone_class(measure: RiskMeasure) -> bool:
    """Whether the measure turns almost-sure dominance with a positive-probability
    strict part into a strictly smaller assessment.

    Only the expected-cost measure has this property on finite spaces; worst
    case, VaR, and CVaR can ignore improvements away from the tail, and
    custom measures cannot be verified.
    """
    return measure.kind == EXPECTED


def spot_check_monotonicity(
    measure: RiskMeasure,
    space: FiniteProbSpace,
    trials: int = 64,
    seed: int = 0,
) -> bool:
    """Randomized falsification attempt of monotonicity for ``measure``.

    Draws pointwise-dominated cost pairs on ``space`` and checks that the
    dominated one never assesses as strictly riskier.  Returns False on the
    first counterexample; True means "no violation found", not a proof.
    """
    rng = random.Random(seed)
    for _ in range(trials):
        low = {omega: rng.uniform(0.0, 10.0) for omega in space.scenarios}
        high = {omega: v + rng.uniform(0.0, 5.0) * rng.randint(0, 1) for omega, v in low.items()}
        risk_low = assess(measure, space, RandomCost(low))
        risk_high = assess(measure, space, RandomCost(high))
        if not ge(risk_high, risk_low):
            return False
    return True

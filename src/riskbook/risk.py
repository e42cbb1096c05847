"""Risk measures on finite cost distributions.

Four built-in measures are provided: expected cost, worst case, the
``alpha``-quantile (VaR), and the tail expectation beyond it (CVaR).  All
four are monotone: pointwise-dominated costs never assess as riskier.  CVaR
is evaluated exactly by minimizing ``F(beta) = beta + E[(f - beta)^+] /
(1 - alpha)`` over the support points of ``f`` (Rockafellar & Uryasev,
2000); the objective is piecewise linear in ``beta`` with kinks only at
support values, so the minimum is attained there.  One pass down the atoms,
from the top, keeps suffix sums of ``p`` and ``p * v`` and gives an
approximation of the objective at each support point; the points whose
approximation lies within rounding of the least one are then re-evaluated
term by term, added left to right by :func:`~riskbook.probspace._sum`, so
the result depends neither on how the suffix sums rounded nor on the
interpreter.  A user-supplied callable can serve as a custom measure, in
which case only spot checks of monotonicity are possible.

The pass stops at a support point ``v`` once no lower point can matter.
Each approximation is within ``delta`` of the objective, a forward error
bound of the form ``c * (m + 3) * u * (1 + scale) * v_max`` for ``m``
atoms of nonnegative cost up to ``v_max``, ``scale = 1 / (1 - alpha)`` and
unit roundoff ``u`` (Higham, *Accuracy and Stability of Numerical
Algorithms*, ch. 4, for the suffix sums), with room for rounding the stop
test itself.  Once ``v``'s approximation exceeds the least one so far by
more than the re-evaluation window plus ``2 * delta``, ``F(v)`` exceeds the
objective at a point above ``v``; ``F`` is convex, so it only rises below
``v`` (from each point ``u`` up to the next one it falls at the rate
``scale * P(f > u) - 1``, which shrinks as ``u`` rises).  Then no
lower point's approximation comes within the window of the least, or
below it, so none would be re-evaluated, and the result is the one a scan
of every point gives, bit for bit.  When the test never passes (alpha of
zero, say, where the objective never rises) the pass reads every atom.

Worst case, VaR and CVaR depend on a cost only through its distribution, so
:func:`assess_support` takes the atoms directly, top first, as the atom
builder :func:`~riskbook.probspace._atoms` yields them: worst case reads one
atom, CVaR reads down to where the pass stops, and VaR, whose running total
adds from the bottom, reads them all.  :func:`assess` builds them from the
scenarios, and the compiled evaluation in :mod:`riskbook.riskaware` from
scenarios grouped by environment response.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import inf
from typing import Callable, Iterable

from .errors import EmptySupport, InvalidAlpha, ValidationError
from .probspace import FiniteProbSpace, RandomCost, _sum, _top_down, expectation
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


# Unit roundoff of a double.
_U = 2.0**-53


def _worst_case(atoms: Iterable[tuple[float, float]]) -> float:
    for v, _ in atoms:
        return v


def _value_at_risk(atoms: Iterable[tuple[float, float]], alpha: float) -> float:
    ascending = list(atoms)
    ascending.reverse()
    cumulative = 0.0
    for v, p in ascending:
        cumulative += p
        if ge(cumulative, alpha):
            return v
    return ascending[-1][0]


def _cvar(atoms: Iterable[tuple[float, float]], size: int, alpha: float) -> float:
    """CVaR of the atoms, read top first, of which there are at most ``size``."""
    if alpha == 1.0:
        return _worst_case(atoms)
    scale = 1.0 / (1.0 - alpha)
    # The error bound's factor c * (m + 3) * u (module docstring), with room to spare.
    error = 4 * (size + 3) * _U
    read = []
    approx = []
    best = inf
    tail_p = tail_pv = 0.0
    for atom in atoms:
        v, p = atom
        a = v + scale * (tail_pv - v * tail_p)
        read.append(atom)
        approx.append(a)
        tail_p += p
        tail_pv += p * v
        if a < best:
            best = a
        else:
            window = 1e-9 * max(1.0, abs(best))
            # Infinite whenever an approximation could overflow, so the pass goes on.
            delta = error * (2.0 * (1.0 + scale) * read[0][0] + window)
            if a - best > window + 2.0 * delta:
                break
    # The atoms not read all lie below every point re-evaluated here.
    read.reverse()
    approx.reverse()
    best = min(approx)
    window = 1e-9 * max(1.0, abs(best))
    return min(
        beta + scale * _sum([p * (v - beta) for v, p in read if v > beta])
        for (beta, _), a in zip(read, approx)
        if a - best <= window
    )


def assess(measure: RiskMeasure, space: FiniteProbSpace, f: RandomCost) -> float:
    """Risk of the cost variable ``f`` under ``measure``.

    Scenarios of probability zero never influence the result.
    """
    if measure.kind == EXPECTED:
        return expectation(space, f)
    if measure.kind == CUSTOM:
        return measure.fn(space, f)
    return assess_support(measure, *_top_down(space, f))


def assess_support(measure: RiskMeasure, atoms: Iterable[tuple[float, float]], size: int) -> float:
    """Risk under a worst-case, VaR or CVaR ``measure`` of the distribution
    whose atoms :func:`~riskbook.probspace.distribution` gives, taken top
    first from ``atoms``, of which there are at most ``size``; for a list
    from that function, pass ``reversed(atoms), len(atoms)``.  Only CVaR
    reads the bound, and only to decide where its pass may stop."""
    if not size:
        raise EmptySupport("no scenario has positive probability")
    if measure.kind == WORST_CASE:
        return _worst_case(atoms)
    if measure.kind == VAR:
        return _value_at_risk(atoms, measure.alpha)
    return _cvar(atoms, size, measure.alpha)


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

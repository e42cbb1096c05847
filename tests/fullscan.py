"""The full-scan atom builder and tail measures, as the reference for the
top-down ones in :mod:`riskbook.probspace` and :mod:`riskbook.risk`.

These build every atom in ascending order and scan all of them: the atoms
by sorting the groups and merging left to right, CVaR by evaluating the
one-pass approximation at every support point.  The library reads atoms
from the top and stops once no lower atom can change the result, so each
figure here must equal the library's bit for bit, down to the sign of a
zero.
"""

from __future__ import annotations

from itertools import chain, groupby
from operator import itemgetter

from riskbook.probspace import _sum, _total
from riskbook.tolerance import TOL, ge


def atoms(groups, probabilities):
    """Ascending atoms of ``(value, positions, total)`` groups, in the terms
    of :func:`riskbook.probspace._atoms`."""
    atoms = []
    for _, run in groupby(sorted(groups, key=itemgetter(0)), key=itemgetter(0)):
        run = list(run)
        if len(run) == 1:
            value, positions, total = run[0]
        else:
            positions = sorted(chain.from_iterable(map(itemgetter(1), run)))
            total = _total(probabilities, positions)
            value = min(run, key=itemgetter(1))[0]
        if atoms and abs(value - atoms[-1][0]) <= TOL:
            anchor, mass = atoms[-1]
            atoms[-1] = (anchor, _total(probabilities, positions, mass))
        else:
            atoms.append((value, total))
    return atoms


def distribution(space, f):
    """Ascending atoms of ``f`` with each positive-probability scenario as a
    group of its own, positions in ascending (probability, index) order."""
    ascending = sorted((p, k) for k, p in enumerate(space.probs[w] for w in space.scenarios) if p > 0)
    probabilities = [p for p, _ in ascending]
    groups = [(f.values[space.scenarios[k]], [i], p) for i, (p, k) in enumerate(ascending)]
    return atoms(groups, probabilities)


def worst_case(atoms):
    return atoms[-1][0]


def value_at_risk(atoms, alpha):
    cumulative = 0.0
    for v, p in atoms:
        cumulative += p
        if ge(cumulative, alpha):
            return v
    return atoms[-1][0]


def cvar(atoms, alpha):
    if alpha == 1.0:
        return worst_case(atoms)
    scale = 1.0 / (1.0 - alpha)

    def objective(beta):
        shortfall = _sum(p * (v - beta) for v, p in atoms if v > beta)
        return beta + scale * shortfall

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


def assess_support(measure, atoms):
    """Risk under a worst-case, VaR or CVaR ``measure`` of ascending ``atoms``."""
    if measure.kind == "worst_case":
        return worst_case(atoms)
    if measure.kind == "var":
        return value_at_risk(atoms, measure.alpha)
    return cvar(atoms, measure.alpha)

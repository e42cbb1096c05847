import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskbook as rb
from riskbook import FiniteProbSpace, RandomCost, distribution, exceedance_prob, expectation, riskaware
from fullscan import assess_support

AV_PROBS = {"w1": 0.98, "w2": 0.001, "w3": 0.009, "w4": 0.01}
AV_SCENARIOS = ("w1", "w2", "w3", "w4")


@pytest.fixture()
def space():
    return FiniteProbSpace(AV_SCENARIOS, AV_PROBS)


def cost(*values):
    return RandomCost(dict(zip(AV_SCENARIOS, map(float, values))))


class TestConstruction:
    def test_sum_must_be_one(self):
        with pytest.raises(rb.ValidationError, match="sum to 1.1"):
            FiniteProbSpace(("a", "b"), {"a": 0.5, "b": 0.6})

    def test_negative_probability(self):
        with pytest.raises(rb.ValidationError, match="negative"):
            FiniteProbSpace(("a", "b"), {"a": 1.5, "b": -0.5})

    def test_duplicate_scenarios(self):
        with pytest.raises(rb.ValidationError, match="unique"):
            FiniteProbSpace(("a", "a"), {"a": 1.0})

    def test_probs_must_cover_scenarios(self):
        with pytest.raises(rb.ValidationError, match="cover"):
            FiniteProbSpace(("a", "b"), {"a": 1.0})

    def test_negative_cost_rejected(self):
        with pytest.raises(rb.ValidationError, match="negative"):
            RandomCost({"a": -1.0})


class TestLookups:
    def test_prob_of_a_declared_and_an_undeclared_scenario(self, space):
        assert space.prob("w3") == 0.009
        with pytest.raises(rb.UnknownScenario, match="unknown scenario 'w9'"):
            space.prob("w9")

    def test_value_of_a_declared_and_an_undeclared_scenario(self):
        f = cost(0, 225, 0, 0)
        assert f.value("w2") == 225.0
        with pytest.raises(rb.UnknownScenario, match="undefined at scenario 'w9'"):
            f.value("w9")


class TestExpectation:
    def test_collision_cost_keep_speed(self, space):
        assert expectation(space, cost(0, 225, 0, 0)) == pytest.approx(0.225, abs=1e-9)

    def test_collision_cost_gentle_braking(self, space):
        assert expectation(space, cost(0, 175, 175, 0)) == pytest.approx(1.75, abs=1e-9)

    def test_zero_cost(self, space):
        assert expectation(space, cost(0, 0, 0, 0)) == 0.0

    def test_domain_mismatch(self, space):
        with pytest.raises(rb.DomainMismatch):
            expectation(space, RandomCost({"w1": 1.0}))


class TestExceedance:
    def test_strictly_greater(self, space):
        f = cost(0, 225, 0, 0)
        g = cost(0, 175, 175, 0)
        assert exceedance_prob(space, f, g, ">") == pytest.approx(0.001, abs=1e-9)

    def test_strictly_smaller(self, space):
        f = cost(0, 225, 0, 0)
        g = cost(0, 175, 175, 0)
        assert exceedance_prob(space, f, g, "<") == pytest.approx(0.009, abs=1e-9)

    def test_identical_costs_never_exceed(self, space):
        f = cost(1, 2, 3, 4)
        assert exceedance_prob(space, f, f, ">") == 0.0
        assert exceedance_prob(space, f, f, "==") == pytest.approx(1.0, abs=1e-9)

    def test_unicode_relation_aliases(self, space):
        f = cost(0, 225, 0, 0)
        g = cost(0, 175, 175, 0)
        assert exceedance_prob(space, f, g, "≤") == exceedance_prob(space, f, g, "<=")

    def test_unknown_relation(self, space):
        with pytest.raises(rb.PreconditionViolated, match="'!='"):
            exceedance_prob(space, cost(0, 0, 0, 0), cost(0, 0, 0, 0), "!=")


class TestDistribution:
    def test_two_point_collision_pmf(self, space):
        atoms = distribution(space, cost(0, 225, 0, 0))
        assert [v for v, _ in atoms] == [0.0, 225.0]
        assert atoms[0][1] == pytest.approx(0.999, abs=1e-9)
        assert atoms[1][1] == pytest.approx(0.001, abs=1e-9)

    def test_constant_is_a_point_mass(self, space):
        assert distribution(space, cost(5, 5, 5, 5)) == [(5.0, pytest.approx(1.0, abs=1e-9))]

    def test_all_zero_cost(self, space):
        atoms = distribution(space, cost(0, 0, 0, 0))
        assert [v for v, _ in atoms] == [0.0]

    def test_zero_probability_scenarios_are_dropped(self):
        sp = FiniteProbSpace(("a", "b"), {"a": 1.0, "b": 0.0})
        atoms = distribution(sp, RandomCost({"a": 1.0, "b": 99.0}))
        assert atoms == [(1.0, 1.0)]

    def test_nearby_values_merge(self):
        sp = FiniteProbSpace(("a", "b"), {"a": 0.5, "b": 0.5})
        atoms = distribution(sp, RandomCost({"a": 1.0, "b": 1.0 + 1e-12}))
        assert len(atoms) == 1
        assert atoms[0][1] == pytest.approx(1.0, abs=1e-9)


def sorted_pairs_atoms(pairs):
    """Reference atoms: sort the positive-probability (value, probability)
    pairs, then merge each value within tolerance of the current atom's first
    value into that atom, left to right."""
    atoms = []
    for v, p in sorted((v, p) for v, p in pairs if p > 0):
        if atoms and abs(v - atoms[-1][0]) <= rb.TOL:
            atoms[-1] = (atoms[-1][0], atoms[-1][1] + p)
        else:
            atoms.append((v, p))
    return atoms


# Exact ties, near-ties within and across 1e-9, and zeros of both signs.
TIED_VALUES = (0.0, -0.0, 0.0, -0.0, 4e-10, 1.0, 1.0 + 6e-10, 1.0 + 1.2e-9, 1.0 + 2e-9, 2.0, 2.0, 7.5)


def random_space(rng, n):
    """Probabilities with exact ties and some zeros, summing to one within TOL."""
    while True:
        weights = [rng.choice((0, 1, 1, 2, 3, rng.random())) for _ in range(n)]
        if sum(weights) > 0:
            break
    ids = tuple(f"w{i}" for i in range(n))
    return FiniteProbSpace(ids, {w: x / sum(weights) for w, x in zip(ids, weights)})


def same_atoms(actual, expected):
    """Bit-for-bit equality, so ``0.0`` and ``-0.0`` count as different."""
    return actual == expected and repr(actual) == repr(expected)


def read_kept_risks(instance, references):
    """The second and third evaluations of ``instance`` give the reprs in
    ``references``, keyed by (rule, trajectory) index, from the risks the
    first one kept, with no call to the atom builder."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(riskaware, "_atoms", None)  # a call would raise TypeError
        for ev in (riskaware._Evaluation(instance) for _ in range(2)):
            for (r, t), reference in references.items():
                assert repr(ev.risk(r, t)) == reference


class TestGroupedAtoms:
    """The grouped atom builder against the sorted-pairs reference above."""

    def test_distribution_groups_by_value(self):
        rng = random.Random(11)
        for _ in range(1500):
            space = random_space(rng, rng.randint(1, 14))
            values = {w: rng.choice(TIED_VALUES) for w in space.scenarios}
            expected = sorted_pairs_atoms((values[w], space.probs[w]) for w in space.scenarios)
            assert same_atoms(distribution(space, RandomCost(values)), expected)

    def test_evaluation_groups_by_response(self):
        rng = random.Random(12)
        for _ in range(150):
            space = random_space(rng, rng.randint(1, 24))
            envs = tuple(f"e{i}" for i in range(rng.randint(1, 6)))
            trajectories = ("t0", "t1", "t2")
            rules = [
                rb.Rule(f"r{i}", {(t, e): rng.choice(TIED_VALUES) for t in trajectories for e in envs})
                for i in range(4)
            ]
            measures = [rb.RiskMeasure.worst_case(), rb.RiskMeasure.var(0.5), rb.RiskMeasure.cvar(0.8)]
            instance = rb.Instance(
                space,
                trajectories,
                envs,
                rb.InteractionModel({(t, w): rng.choice(envs) for t in trajectories for w in space.scenarios}),
                rb.Rulebook(tuple(rules), rb.build_preorder([r.id for r in rules], [])),
                {r.id: rb.RiskConfig(measures[i % 3], 0.0) for i, r in enumerate(rules)},
            )
            ev, references = riskaware._Evaluation(instance), {}
            for r, rule in enumerate(rules):
                for t, trajectory in enumerate(trajectories):
                    expected = sorted_pairs_atoms(
                        (rule.violations[(trajectory, instance.interaction.responses[(trajectory, w)])], space.probs[w])
                        for w in space.scenarios
                    )
                    assert same_atoms(list(ev.compiled.atoms(r, t)[0])[::-1], expected)
                    references[(r, t)] = repr(assess_support(instance.risk_configs[rule.id].measure, expected))
                    assert repr(ev.risk(r, t)) == references[(r, t)]
            read_kept_risks(instance, references)

    # The cases below reach the builder's shortcut for well-separated values
    # and its fallback to the merge, at up to 200 responses and 400 scenarios.

    SIZES = ((1, 1), (2, 1), (7, 3), (60, 12), (400, 5), (400, 200), (150, 200))

    @staticmethod
    def separated(rng, n):
        """``n`` values from a continuous range, in practice never within TOL."""
        return [rng.uniform(0.5, 10.0) for _ in range(n)]

    @staticmethod
    def tied(rng, values):
        """``values`` with some cells set to an exact tie, near-ties within and
        across TOL of it, both signed zeros, and ``TOL`` and ``2 * TOL``, whose
        gap is exactly TOL."""
        values = list(values)
        cells = rng.sample(range(len(values)), min(len(values), 9))
        base = values[cells[0]]
        injected = [base, base + 6e-10, base + 1.2e-9, 0.0, -0.0, rb.TOL, 2 * rb.TOL, base + 2e-9]
        rng.shuffle(injected)
        for k, v in zip(cells[1:], injected):
            values[k] = v
        return values

    def check_distribution(self, space, values):
        expected = sorted_pairs_atoms(zip(values, (space.probs[w] for w in space.scenarios)))
        assert same_atoms(distribution(space, RandomCost(dict(zip(space.scenarios, values)))), expected)

    def check_evaluation(self, rng, space, rows):
        """``rows[r][t]`` is rule ``r``'s violation row under trajectory ``t``;
        every scenario triggers a response drawn at random."""
        envs = tuple(f"e{i}" for i in range(len(rows[0][0])))
        trajectories = tuple(f"t{i}" for i in range(len(rows[0])))
        rules = [
            rb.Rule(f"r{r}", {(t, e): v for t, row in zip(trajectories, by_t) for e, v in zip(envs, row)})
            for r, by_t in enumerate(rows)
        ]
        measures = [rb.RiskMeasure.worst_case(), rb.RiskMeasure.var(0.9), rb.RiskMeasure.cvar(0.9)]
        instance = rb.Instance(
            space,
            trajectories,
            envs,
            rb.InteractionModel({(t, w): rng.choice(envs) for t in trajectories for w in space.scenarios}),
            rb.Rulebook(tuple(rules), rb.build_preorder([rule.id for rule in rules], [])),
            {rule.id: rb.RiskConfig(measures[i % 3], 0.0) for i, rule in enumerate(rules)},
        )
        responses = instance.interaction.responses
        ev, references = riskaware._Evaluation(instance), {}
        for r, rule in enumerate(rules):
            for t, trajectory in enumerate(trajectories):
                expected = sorted_pairs_atoms(
                    (rule.violations[(trajectory, responses[(trajectory, w)])], space.probs[w])
                    for w in space.scenarios
                )
                assert same_atoms(list(ev.compiled.atoms(r, t)[0])[::-1], expected)
                references[(r, t)] = repr(assess_support(instance.risk_configs[rule.id].measure, expected))
                assert repr(ev.risk(r, t)) == references[(r, t)]
        read_kept_risks(instance, references)

    @pytest.mark.parametrize("n_scenarios,n_envs", SIZES)
    def test_separated_values(self, n_scenarios, n_envs):
        rng = random.Random(n_scenarios * 1000 + n_envs)
        for _ in range(3):
            space = random_space(rng, n_scenarios)
            self.check_distribution(space, self.separated(rng, n_scenarios))
            rows = [[self.separated(rng, n_envs) for _ in range(2)] for _ in range(3)]
            self.check_evaluation(rng, space, rows)

    @pytest.mark.parametrize("n_scenarios,n_envs", SIZES)
    def test_separated_values_with_ties(self, n_scenarios, n_envs):
        rng = random.Random(n_scenarios * 1000 + n_envs + 1)
        for _ in range(6):
            space = random_space(rng, n_scenarios)
            self.check_distribution(space, self.tied(rng, self.separated(rng, n_scenarios)))
            rows = [[self.tied(rng, self.separated(rng, n_envs)) for _ in range(2)] for _ in range(3)]
            self.check_evaluation(rng, space, rows)

    def test_gap_of_exactly_tol_merges(self):
        assert 2 * rb.TOL - rb.TOL == rb.TOL
        space = FiniteProbSpace(("a", "b", "c"), {"a": 0.25, "b": 0.25, "c": 0.5})
        values = [2 * rb.TOL, rb.TOL, 3.0]
        self.check_distribution(space, values)
        assert distribution(space, RandomCost(dict(zip(space.scenarios, values)))) == [(rb.TOL, 0.5), (3.0, 0.5)]
        self.check_evaluation(random.Random(13), space, [[values]])

    def test_single_group(self):
        rng = random.Random(14)
        for n_scenarios in (1, 5, 400):
            space = random_space(rng, n_scenarios)
            self.check_distribution(space, [rng.choice((0.0, -0.0, 4.5))] * n_scenarios)
            self.check_evaluation(rng, space, [[self.separated(rng, 1)], [[-0.0]], [[0.0]]])
        one = FiniteProbSpace(("a", "b", "c"), {"a": 0.0, "b": 1.0, "c": 0.0})
        self.check_distribution(one, [7.0, 2.5, 1.0])
        self.check_evaluation(rng, one, [[self.separated(rng, 5)]])


# hypothesis strategies for the numeric invariants


@st.composite
def space_and_costs(draw, n_costs=1):
    n = draw(st.integers(min_value=1, max_value=6))
    ids = tuple(f"w{i}" for i in range(n))
    weights = draw(
        st.lists(st.floats(0.01, 10.0, allow_nan=False), min_size=n, max_size=n)
    )
    total = sum(weights)
    space = FiniteProbSpace(ids, {w: x / total for w, x in zip(ids, weights)})
    costs = tuple(
        RandomCost(
            dict(
                zip(
                    ids,
                    draw(st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=n, max_size=n)),
                )
            )
        )
        for _ in range(n_costs)
    )
    return (space, *costs)


class TestNumericInvariants:
    @given(space_and_costs(n_costs=2), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    @settings(max_examples=200)
    def test_expectation_is_linear(self, bundle, a, b):
        space, f, g = bundle
        combined = RandomCost(
            {w: a * f.values[w] + b * g.values[w] for w in space.scenarios}
        )
        assert expectation(space, combined) == pytest.approx(
            a * expectation(space, f) + b * expectation(space, g), abs=1e-9
        )

    @given(space_and_costs(n_costs=2))
    @settings(max_examples=200)
    def test_exceedance_complement(self, bundle):
        space, f, g = bundle
        total = exceedance_prob(space, f, g, ">") + exceedance_prob(space, f, g, "<=")
        assert total == pytest.approx(1.0, abs=1e-9)

    @given(space_and_costs())
    @settings(max_examples=200)
    def test_distribution_round_trip(self, bundle):
        space, f = bundle
        atoms = distribution(space, f)
        assert sum(p for _, p in atoms) == pytest.approx(1.0, abs=1e-9)
        assert sum(v * p for v, p in atoms) == pytest.approx(expectation(space, f), abs=1e-9)
        values = [v for v, _ in atoms]
        assert values == sorted(values)
        assert all(b - a > rb.TOL for a, b in zip(values, values[1:]))

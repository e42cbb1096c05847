import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskbook as rb
from riskbook import FiniteProbSpace, RandomCost, RiskMeasure, assess, riskaware
from riskbook.probspace import _sum
from riskbook.risk import assess_support

import fullscan
from instgen import tail_average_cvar

AV_SCENARIOS = ("w1", "w2", "w3", "w4")
AV_PROBS = {"w1": 0.98, "w2": 0.001, "w3": 0.009, "w4": 0.01}


@pytest.fixture()
def space():
    return FiniteProbSpace(AV_SCENARIOS, AV_PROBS)


def cost(*values):
    return RandomCost(dict(zip(AV_SCENARIOS, map(float, values))))


# Collision costs induced on the demo instance: keep-speed has a 0.001 atom at
# 225, gentle braking a 0.01 atom at 175.
KEEP_SPEED = (0, 225, 0, 0)
GENTLE_BRAKE = (0, 175, 175, 0)


class TestQuantile:
    def test_below_the_atom(self, space):
        assert assess(RiskMeasure.var(0.9), space, cost(*KEEP_SPEED)) == 0.0

    def test_above_the_atom(self, space):
        assert assess(RiskMeasure.var(0.9995), space, cost(*KEEP_SPEED)) == 225.0

    def test_boundary_quantile_stays_low(self, space):
        assert assess(RiskMeasure.var(0.999), space, cost(*KEEP_SPEED)) == 0.0

    def test_level_one_is_worst_case(self, space):
        assert assess(RiskMeasure.var(1.0), space, cost(*GENTLE_BRAKE)) == 175.0

    def test_alpha_out_of_range(self):
        with pytest.raises(rb.InvalidAlpha):
            RiskMeasure.var(1.5)
        with pytest.raises(rb.InvalidAlpha):
            RiskMeasure.cvar(-0.1)
        with pytest.raises(rb.InvalidAlpha):
            RiskMeasure("cvar")


class TestTailExpectation:
    def test_tail_average_below_the_switch(self, space):
        assert assess(RiskMeasure.cvar(0.99), space, cost(*KEEP_SPEED)) == pytest.approx(
            22.5, abs=1e-9
        )

    def test_tail_average_above_the_switch(self, space):
        assert assess(RiskMeasure.cvar(0.995), space, cost(*GENTLE_BRAKE)) == pytest.approx(
            175.0, abs=1e-9
        )

    def test_level_zero_is_expectation(self, space):
        f = cost(1, 2, 3, 4)
        assert assess(RiskMeasure.cvar(0.0), space, f) == pytest.approx(
            rb.expectation(space, f), abs=1e-9
        )

    def test_level_one_is_worst_case(self, space):
        assert assess(RiskMeasure.cvar(1.0), space, cost(*KEEP_SPEED)) == 225.0


def support_point_cvar(atoms, alpha):
    """Reference: the Rockafellar-Uryasev objective summed term by term at
    every support point, the quadratic form the one-pass evaluation replaces.
    Its sums add left to right like the library's, not by builtin ``sum``,
    which is compensated from Python 3.12 on."""
    if alpha == 1.0:
        return atoms[-1][0]
    scale = 1.0 / (1.0 - alpha)
    return min(beta + scale * _sum(p * (v - beta) for v, p in atoms if v > beta) for beta, _ in atoms)


class TestOnePassTailExpectation:
    @pytest.mark.parametrize("magnitude", [1e-6, 1.0, 1e3, 1e9])
    def test_equals_the_term_by_term_minimum(self, magnitude):
        rng = random.Random(f"cvar:{magnitude}")
        for _ in range(300):
            ids = tuple(f"w{i}" for i in range(rng.randint(1, 120)))
            weights = [rng.choice((0.0, 1e-12, 1.0, rng.uniform(0.01, 1.0))) for _ in ids]
            weights[0] = weights[0] or 1.0
            total = sum(weights)
            space = FiniteProbSpace(ids, {w: x / total for w, x in zip(ids, weights)})
            if rng.random() < 0.5:
                values = {w: magnitude * rng.choice((0.0, 0.5, 1.0, 2.5, 7.5, 30.0)) for w in ids}
            else:
                values = {w: magnitude * rng.uniform(0.0, 10.0) for w in ids}
            f = RandomCost(values)
            alpha = rng.choice((0.0, 0.5, 0.9, 0.99, 1.0, rng.random()))
            expected = support_point_cvar(rb.distribution(space, f), alpha)
            assert assess(RiskMeasure.cvar(alpha), space, f) == expected

    def test_flat_minimum_settles_like_the_term_by_term_sum(self):
        # With equal weights and alpha = k/n the objective is flat between two
        # support points; its two sums there differ in the last bits, and the
        # one-pass values alone can pick the other point.
        rng = random.Random(1)
        for _ in range(2000):
            n = rng.randint(2, 12)
            ids = tuple(f"w{i}" for i in range(n))
            space = FiniteProbSpace(ids, {w: 1.0 / n for w in ids})
            f = RandomCost({w: round(rng.uniform(0.0, 10.0), rng.choice((1, 2, 3, 6))) for w in ids})
            alpha = rng.randint(1, n - 1) / n
            expected = support_point_cvar(rb.distribution(space, f), alpha)
            assert assess(RiskMeasure.cvar(alpha), space, f) == expected


def counted(atoms, reads):
    """``atoms``, appending to ``reads`` how many a reader took."""
    reads.append(0)
    for atom in atoms:
        reads[-1] += 1
        yield atom


class TestTopDownEquivalence:
    """Worst case, VaR and CVaR read atoms from the top down and CVaR stops
    early; each must equal the full scan of :mod:`fullscan` bit for bit, down
    to the sign of a zero, both as assessed from the builder's atoms and as
    kept with the compiled instance."""

    ALPHAS = (0.0, 0.5, 0.9, 0.9988, 1 - 1e-12, 1.0)
    MEASURES = (
        [RiskMeasure.worst_case()]
        + [RiskMeasure.var(alpha) for alpha in ALPHAS]
        + [RiskMeasure.cvar(alpha) for alpha in ALPHAS]
    )
    MAGNITUDES = (1e-12, 1e-9, 1e-6, 1.0, 1e3, 1e6, 1e12)

    @staticmethod
    def instance(weights, env_values, responses, measures):
        """One trajectory whose scenario ``k`` triggers environment
        ``responses[k]``, and one rule per measure, each costing
        ``env_values[e]`` under environment ``e``."""
        total = _sum(weights)
        ids = tuple(f"w{k}" for k in range(len(weights)))
        envs = tuple(f"e{e}" for e in range(len(env_values)))
        rules = tuple(rb.Rule(f"r{i}", {("t", env): v for env, v in zip(envs, env_values)}) for i in range(len(measures)))
        return rb.Instance(
            FiniteProbSpace(ids, {w: x / total for w, x in zip(ids, weights)}),
            ("t",),
            envs,
            rb.InteractionModel({("t", w): envs[e] for w, e in zip(ids, responses)}),
            rb.Rulebook(rules, rb.build_preorder([rule.id for rule in rules], [])),
            {rule.id: rb.RiskConfig(measure, 0.0) for rule, measure in zip(rules, measures)},
        )

    def check(self, weights, env_values, responses, measures=MEASURES):
        """Every measure on the fresh and kept paths against the full scan;
        returns the full atom list, top first, and the atoms each measure
        read fresh from the builder."""
        instance = self.instance(weights, env_values, responses, measures)
        f = RandomCost({w: env_values[e] for w, e in zip(instance.space.scenarios, responses)})
        reference_atoms = fullscan.distribution(instance.space, f)
        top_down = rb.distribution(instance.space, f)[::-1]
        assert repr(top_down) == repr(reference_atoms[::-1])
        first = riskaware._Evaluation(instance)
        compiled = first.compiled
        reads = []
        for r, measure in enumerate(measures):
            expected = repr(fullscan.assess_support(measure, reference_atoms))
            assert repr(assess(measure, instance.space, f)) == expected, measure
            assert repr(assess_support(measure, top_down, len(top_down))) == expected, measure
            atoms, size = compiled.atoms(r, 0)
            assert repr(assess_support(measure, counted(atoms, reads), size)) == expected, measure
            if measure.kind == "var":
                assert reads[-1] == len(top_down)
            elif measure.kind == "worst_case" or measure.alpha == 1.0:
                assert reads[-1] == 1
            assert repr(first.risk(r, 0)) == expected, measure
            assert repr(list(compiled.atoms(r, 0)[0])) == repr(reference_atoms[::-1])
        # The second and third evaluations read the risks the first one kept.
        with pytest.MonkeyPatch.context() as m:
            m.setattr(riskaware, "_atoms", None)  # a call would raise TypeError
            for ev in (riskaware._Evaluation(instance) for _ in range(2)):
                for r, measure in enumerate(measures):
                    assert repr(ev.risk(r, 0)) == repr(fullscan.assess_support(measure, reference_atoms)), measure
        return top_down, dict(zip(measures, reads))

    def test_random_supports(self):
        """Ties, near-ties and chains within TOL, both signed zeros, weights of
        1e-12 and zero, at magnitudes from 1e-12 to 1e12."""
        rng = random.Random(2500)
        stopped = 0
        for _ in range(250):
            n = rng.randint(1, 90)
            weights = [rng.choice((0.0, 1e-12, 1e-12, 1.0, rng.uniform(0.2, 1.0))) for _ in range(n)]
            weights[0] = weights[0] or 1.0
            magnitude = rng.choice(self.MAGNITUDES)
            if rng.random() < 0.5:
                env_values = [magnitude * rng.uniform(0.0, 10.0) for _ in range(rng.randint(1, n))]
            else:
                env_values = [magnitude * rng.choice((0.0, 0.5, 1.0, 2.5, 7.5)) for _ in range(rng.randint(1, n))]
            for e in rng.sample(range(len(env_values)), min(len(env_values), rng.randint(0, 6))):
                env_values[e] = rng.choice((0.0, -0.0, env_values[0] + rng.choice((4e-10, 9e-10, 1e-9, 1.3e-9))))
            responses = [rng.randrange(len(env_values)) for _ in range(n)]
            top_down, reads = self.check(weights, env_values, responses)
            stopped += reads[RiskMeasure.cvar(0.9)] < len(top_down)
        assert stopped > 120

    def test_all_zero_costs_keep_the_sign_of_the_first_pair(self):
        rng = random.Random(2501)
        for _ in range(60):
            n = rng.randint(1, 12)
            env_values = [rng.choice((0.0, -0.0)) for _ in range(rng.randint(1, n))]
            self.check([rng.choice((1e-12, 1.0, 0.5)) for _ in range(n)], env_values, [rng.randrange(len(env_values)) for _ in range(n)])

    def test_cumulative_exactly_alpha(self):
        # Equal weights and alpha = k/n, as in the flat-minimum test above:
        # the VaR's running total meets alpha and two support points tie.
        rng = random.Random(2502)
        for _ in range(300):
            n = rng.randint(2, 12)
            alpha = rng.randint(1, n - 1) / n
            values = [round(rng.uniform(0.0, 10.0), rng.choice((1, 2, 3, 6))) for _ in range(n)]
            space = FiniteProbSpace(tuple(f"w{i}" for i in range(n)), {f"w{i}": 1.0 / n for i in range(n)})
            f = RandomCost(dict(zip(space.scenarios, values)))
            cvar = assess(RiskMeasure.cvar(alpha), space, f)
            assert cvar == support_point_cvar(rb.distribution(space, f), alpha)
            self.check([1.0] * n, values, list(range(n)), [RiskMeasure.var(alpha), RiskMeasure.cvar(alpha)])

    def test_tol_clusters_straddling_the_stop(self):
        """A few high costs above a long chain of costs spaced under TOL apart,
        with the tail's edge inside the chain, so the pass stops between two
        atoms of one cluster the builder merged whole."""
        rng = random.Random(2503)
        straddled = 0
        for _ in range(120):
            base = rng.choice((1e-3, 0.25, 1.0, 3.0))
            spacing = rng.choice((0.3, 0.6, 0.9, 1.0)) * rb.TOL
            chain = [base + k * spacing for k in range(rng.randint(10, 40))]
            top = [base + rng.uniform(0.5, 5.0) for _ in range(rng.randint(1, 5))]
            bottom = [rng.choice((0.0, -0.0, base / 2)) for _ in range(rng.randint(0, 4))]
            env_values = top + chain + bottom
            weights = [rng.uniform(0.02, 0.1) for _ in top] + [rng.uniform(0.5, 1.0) for _ in chain] + [0.5 for _ in bottom]
            top_down, reads = self.check(weights, env_values, list(range(len(env_values))))
            for alpha in (0.5, 0.9):
                read = reads[RiskMeasure.cvar(alpha)]
                in_chain = [chain[0] <= v <= chain[-1] for v, _ in top_down]
                straddled += read < len(top_down) and in_chain[read - 1] and in_chain[read]
        assert straddled > 150


class TestWorstCaseAndExpected:
    def test_worst_case_ignores_probability_mass(self, space):
        assert assess(RiskMeasure.worst_case(), space, cost(*GENTLE_BRAKE)) == 175.0

    def test_worst_case_ignores_zero_probability_scenarios(self):
        sp = FiniteProbSpace(("a", "b"), {"a": 1.0, "b": 0.0})
        f = RandomCost({"a": 1.0, "b": 1000.0})
        assert assess(RiskMeasure.worst_case(), sp, f) == 1.0
        assert assess(RiskMeasure.var(0.99), sp, f) == 1.0
        assert assess(RiskMeasure.cvar(0.99), sp, f) == pytest.approx(1.0, abs=1e-9)

    def test_expected(self, space):
        assert assess(RiskMeasure.expected(), space, cost(*KEEP_SPEED)) == pytest.approx(
            0.225, abs=1e-9
        )

    @pytest.mark.parametrize(
        "measure",
        [RiskMeasure.expected(), RiskMeasure.worst_case(), RiskMeasure.var(0.7), RiskMeasure.cvar(0.7)],
    )
    def test_point_mass_assesses_to_its_value(self, space, measure):
        assert assess(measure, space, cost(7, 7, 7, 7)) == pytest.approx(7.0, abs=1e-9)


class TestCustomMeasures:
    def test_custom_callable_is_used(self, space):
        measure = RiskMeasure.custom(lambda sp, f: 42.0, label="fixed")
        assert assess(measure, space, cost(0, 0, 0, 0)) == 42.0
        assert measure.describe() == "fixed"

    def test_custom_requires_callable(self):
        with pytest.raises(rb.ValidationError):
            RiskMeasure("custom")

    def test_spot_check_accepts_monotone(self, space):
        median = RiskMeasure.custom(lambda sp, f: assess(RiskMeasure.var(0.5), sp, f))
        assert rb.spot_check_monotonicity(median, space)

    def test_spot_check_rejects_antitone(self, space):
        bad = RiskMeasure.custom(lambda sp, f: -rb.expectation(sp, f) if any(f.values.values()) else 0.0)
        assert not rb.spot_check_monotonicity(bad, space)


class TestStrictMonotoneClass:
    def test_expected_is_strict(self):
        assert rb.is_strictly_monotone_class(RiskMeasure.expected())

    def test_worst_case_is_not(self):
        # Raising a non-maximal value leaves the worst case untouched.
        sp = FiniteProbSpace(("a", "b"), {"a": 0.5, "b": 0.5})
        f = RandomCost({"a": 1.0, "b": 5.0})
        g = RandomCost({"a": 2.0, "b": 5.0})
        measure = RiskMeasure.worst_case()
        assert assess(measure, sp, f) == assess(measure, sp, g) == 5.0
        assert not rb.is_strictly_monotone_class(measure)

    def test_var_is_not(self):
        # A change above the quantile is invisible to it.
        sp = FiniteProbSpace(("a", "b"), {"a": 0.5, "b": 0.5})
        f = RandomCost({"a": 1.0, "b": 5.0})
        g = RandomCost({"a": 1.0, "b": 6.0})
        measure = RiskMeasure.var(0.5)
        assert assess(measure, sp, f) == assess(measure, sp, g) == 1.0
        assert not rb.is_strictly_monotone_class(measure)

    def test_cvar_is_not(self):
        # A change below the tail is invisible to it.
        sp = FiniteProbSpace(("a", "b"), {"a": 0.5, "b": 0.5})
        f = RandomCost({"a": 1.0, "b": 5.0})
        g = RandomCost({"a": 2.0, "b": 5.0})
        measure = RiskMeasure.cvar(0.5)
        assert assess(measure, sp, f) == assess(measure, sp, g) == pytest.approx(5.0, abs=1e-9)
        assert not rb.is_strictly_monotone_class(measure)

    def test_custom_is_unverified(self, space):
        assert not rb.is_strictly_monotone_class(RiskMeasure.custom(lambda sp, f: 0.0))


# hypothesis invariants


@st.composite
def space_cost_alpha(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    ids = tuple(f"w{i}" for i in range(n))
    weights = draw(st.lists(st.floats(0.01, 10.0, allow_nan=False), min_size=n, max_size=n))
    total = sum(weights)
    space = FiniteProbSpace(ids, {w: x / total for w, x in zip(ids, weights)})
    values = draw(st.lists(st.floats(0.0, 50.0, allow_nan=False), min_size=n, max_size=n))
    alpha = draw(st.one_of(st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0]), st.floats(0.0, 1.0)))
    return space, RandomCost(dict(zip(ids, values))), alpha


def all_measures(alpha):
    return [
        RiskMeasure.expected(),
        RiskMeasure.worst_case(),
        RiskMeasure.var(alpha),
        RiskMeasure.cvar(alpha),
    ]


class TestMeasureInvariants:
    @given(space_cost_alpha(), st.lists(st.floats(0.0, 20.0, allow_nan=False), min_size=6, max_size=6))
    @settings(max_examples=200)
    def test_monotone_on_dominated_pairs(self, bundle, bumps):
        space, f, alpha = bundle
        dominated = RandomCost(
            {w: v + bumps[i % len(bumps)] for i, (w, v) in enumerate(f.values.items())}
        )
        for measure in all_measures(alpha):
            assert assess(measure, space, f) <= assess(measure, space, dominated) + 1e-9

    @given(space_cost_alpha())
    @settings(max_examples=200)
    def test_ordering_chain(self, bundle):
        space, f, alpha = bundle
        if alpha == 1.0:
            alpha = 0.97
        expected = assess(RiskMeasure.expected(), space, f)
        var = assess(RiskMeasure.var(alpha), space, f)
        cvar = assess(RiskMeasure.cvar(alpha), space, f)
        worst = assess(RiskMeasure.worst_case(), space, f)
        assert expected <= cvar + 1e-9
        assert var <= cvar + 1e-9
        assert cvar <= worst + 1e-9

    @given(space_cost_alpha(), st.floats(0.1, 8.0, allow_nan=False))
    @settings(max_examples=200)
    def test_positive_homogeneity(self, bundle, c):
        space, f, alpha = bundle
        scaled = RandomCost({w: c * v for w, v in f.values.items()})
        for measure in all_measures(alpha):
            assert assess(measure, space, scaled) == pytest.approx(
                c * assess(measure, space, f), abs=1e-9
            )

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 6: atoms within TOL of each other merge, so a gap of 1e-9 merges and its double does not",
    )
    def test_positive_homogeneity_across_the_tolerance(self):
        # The example test_positive_homogeneity draws at random: costs 0 and
        # 1e-9 merge into one atom at 0, while 0 and 2e-9 stay apart.
        space = FiniteProbSpace(("w0", "w1"), {"w0": 0.5, "w1": 0.5})
        f = RandomCost({"w0": 0.0, "w1": 1e-9})
        scaled = RandomCost({"w0": 0.0, "w1": 2e-9})
        measures = [RiskMeasure.worst_case(), RiskMeasure.var(0.9), RiskMeasure.cvar(0.5), RiskMeasure.cvar(0.9)]
        assert [assess(m, space, scaled) for m in measures] == pytest.approx(
            [2 * assess(m, space, f) for m in measures], abs=1e-9
        )

    @given(space_cost_alpha())
    @settings(max_examples=300)
    def test_cvar_matches_tail_average_oracle(self, bundle):
        space, f, alpha = bundle
        atoms = rb.distribution(space, f)
        assert assess(RiskMeasure.cvar(alpha), space, f) == pytest.approx(
            tail_average_cvar(atoms, alpha), abs=1e-9
        )

    @given(space_cost_alpha())
    @settings(max_examples=200)
    def test_cvar_minimum_attained_on_support(self, bundle):
        space, f, alpha = bundle
        if alpha == 1.0:
            return
        atoms = rb.distribution(space, f)
        scale = 1.0 / (1.0 - alpha)

        def objective(beta):
            return beta + scale * sum(p * (v - beta) for v, p in atoms if v > beta)

        top = atoms[-1][0]
        grid_min = min(objective(top * i / 200.0) for i in range(201)) if top > 0 else objective(0.0)
        cvar = assess(RiskMeasure.cvar(alpha), space, f)
        assert cvar <= grid_min + 1e-9


def test_var_alpha_zero_is_smallest_support_value(space):
    assert assess(RiskMeasure.var(0.0), space, cost(3, 225, 3, 3)) == 3.0


def test_var_at_level_one_beyond_the_atoms_total_is_the_largest_cost():
    # The probabilities add up to 0.999999999, within the tolerance of one,
    # but the atoms' running total ends at 0.9999999989999999, more than the
    # tolerance below alpha = 1, so no atom reaches the level.
    space = FiniteProbSpace(
        ("a", "b", "c"),
        {"a": 0.25345884984707817, "b": 0.21546462104257685, "c": 0.531076528110345},
    )
    f = RandomCost({"a": 0.35327416255423216, "b": 0.9097550158894022, "c": 0.6592148136198245})
    assert assess(RiskMeasure.var(1.0), space, f) == 0.9097550158894022


def test_empty_support_guard():
    # Unreachable through a validated space (probabilities must sum to one),
    # so bypass validation to confirm the defensive guard still fires.
    degenerate = object.__new__(FiniteProbSpace)
    object.__setattr__(degenerate, "scenarios", ("a",))
    object.__setattr__(degenerate, "probs", {"a": 0.0})
    with pytest.raises(rb.EmptySupport):
        assess(RiskMeasure.worst_case(), degenerate, RandomCost({"a": 1.0}))

import re

import numpy as np
import pytest

from macie.attribution import (
    EXACT_SHAPLEY_LIMIT,
    CoalitionValues,
    agent_ranks,
    bootstrap_ci,
    bootstrap_indices,
    compare_agents,
    contribution_percentages,
    effects_from_interventions,
    efficiency_gap,
    normalize_contributions,
    rank_agents,
    run_interventions,
    sample_permutations,
    shapley_coalitions,
    shapley_exact,
    shapley_mc,
)
from macie.collective import emergence_coalitions, synergy_index, synergy_matrix
from macie.core import (
    ConfigError,
    MacieError,
    OutcomeSpec,
    rewards_outcome,
    rewards_trace,
)
from macie.counterfactual import CounterfactualEngine, critical_timesteps
from macie.envs import make_env
from macie.policies import default_policies
from macie.rng import SeedTree

from helpers import full_history


def make_engine(seed=42, env_name="gridworld"):
    env = make_env(env_name)
    return CounterfactualEngine(
        SeedTree(seed), OutcomeSpec(), env=env, policies=default_policies(env.n_agents)
    )


def game(n, value):
    """The one-episode coalition game ``{S: [value(S)]}`` over n agents."""
    return {S: np.array([float(value(S))]) for S in shapley_coalitions(n)}


def random_game(n, rng):
    table = {(): 0.0}
    for mask in range(1, 1 << n):
        members = tuple(j for j in range(n) if mask >> j & 1)
        table[members] = float(rng.normal())
    return game(n, table.__getitem__)


# -- exact Shapley on hand-checked games ------------------------------------------


def test_two_player_game_by_hand():
    # v(0)=1, v(1)=2, v(01)=4: each player gets its solo value plus half
    # the leftover surplus of 1
    table = {(): 0.0, (0,): 1.0, (1,): 2.0, (0, 1): 4.0}
    phi, phi_pe = shapley_exact(game(2, table.__getitem__))
    assert phi == pytest.approx([1.5, 2.5], abs=1e-12)
    assert phi_pe.shape == (2, 1)


def test_glove_game_by_hand():
    # players 0 and 1 hold left gloves, player 2 the only right glove;
    # a pair is worth 1, so the right glove earns 2/3
    def v(members):
        left = sum(1 for m in members if m in (0, 1))
        right = sum(1 for m in members if m == 2)
        return float(min(left, right))

    phi, _ = shapley_exact(game(3, v))
    assert phi == pytest.approx([1 / 6, 1 / 6, 2 / 3], abs=1e-12)


def test_unanimity_game_splits_evenly():
    phi, _ = shapley_exact(game(4, lambda m: 1.0 if len(m) == 4 else 0.0))
    assert phi == pytest.approx([0.25] * 4, abs=1e-12)


def test_additive_game_returns_solo_values():
    solo = np.array([3.0, -1.0, 0.5])
    phi, _ = shapley_exact(game(3, lambda m: float(sum(solo[list(m)]))))
    assert phi == pytest.approx(solo, abs=1e-12)


# -- axioms on random games --------------------------------------------------------


def test_efficiency_on_random_games():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = random_game(4, rng)
        phi, _ = shapley_exact(v)
        assert np.sum(phi) == pytest.approx(
            v[(0, 1, 2, 3)][0] - v[()][0], abs=1e-9
        )
        gap, rel = efficiency_gap(phi, v)
        assert gap < 1e-9
        assert rel < 1e-9


def test_symmetry_axiom():
    # players 0 and 1 are interchangeable in v, so they earn the same
    def v(members):
        k = len(members)
        bonus = 2.0 if 2 in members else 0.0
        return k * k + bonus

    phi, _ = shapley_exact(game(3, v))
    assert phi[0] == pytest.approx(phi[1], abs=1e-12)


def test_null_player_axiom():
    # player 2 never changes any coalition's value
    def v(members):
        active = tuple(m for m in members if m != 2)
        return float(len(active) * 1.7)

    phi, _ = shapley_exact(game(3, v))
    assert phi[2] == pytest.approx(0.0, abs=1e-12)


def test_additivity_axiom():
    rng = np.random.default_rng(1)
    a = random_game(3, rng)
    b = random_game(3, rng)
    combined = {S: a[S] + b[S] for S in a}
    phi_a, _ = shapley_exact(a)
    phi_b, _ = shapley_exact(b)
    phi_ab, _ = shapley_exact(combined)
    assert phi_ab == pytest.approx(phi_a + phi_b, abs=1e-9)


def test_exact_shapley_size_cap():
    with pytest.raises(ConfigError, match="shapley_mc"):
        shapley_exact({(): 0.0, tuple(range(EXACT_SHAPLEY_LIMIT + 1)): 0.0})


# -- Monte Carlo Shapley -----------------------------------------------------------


def test_full_permutation_blocks_reproduce_exact_values():
    # with whole blocks of all n! orderings the MC average is the exact
    # Shapley value, not an estimate
    rng = np.random.default_rng(3)
    v = random_game(3, np.random.default_rng(7))
    exact, _ = shapley_exact(v)
    perms = sample_permutations(3, 12, rng)
    mc, mc_pe = shapley_mc(v, perms)
    assert mc == pytest.approx(exact, abs=1e-12)
    assert mc_pe.shape == (3, 1)


def test_mc_estimate_converges():
    v = random_game(4, np.random.default_rng(9))
    exact, _ = shapley_exact(v)
    perms = sample_permutations(4, 480, np.random.default_rng(5))
    mc, _ = shapley_mc(v, perms)
    assert mc == pytest.approx(exact, abs=1e-6)


def test_mc_is_deterministic_given_the_schedule():
    v = random_game(3, np.random.default_rng(2))
    perms = sample_permutations(3, 10, np.random.default_rng(4))
    first, _ = shapley_mc(v, perms)
    second, _ = shapley_mc(v, perms)
    assert np.array_equal(first, second)


# -- engine-backed coalition values -------------------------------------------------


def test_coalition_values_match_engine_and_precompute():
    eng = make_engine(seed=6)
    values = CoalitionValues(eng, n_episodes=3)
    assert values.n_agents == 2
    assert values.n_episodes == 3
    values.replay({(0,): 1})
    pe = values.table[(0,)][:, 0]
    assert pe.shape == (3,)
    assert pe[1] == eng.coalition_outcome(1, (0,))

    pre = CoalitionValues(make_engine(seed=6), 3).precompute()
    for members in [(), (0,), (1,), (0, 1)]:
        one = CoalitionValues(make_engine(seed=6), 3)
        one.replay({members: 1})
        alone, _ = make_engine(seed=6).replay(range(3), {members: 1})
        expect = alone[members].tobytes()
        assert one.table[members].tobytes() == expect
        assert pre.table[members].tobytes() == expect


def test_precomputed_coalition_values_need_no_replay(monkeypatch):
    eng = make_engine(seed=8)
    values = CoalitionValues(eng, n_episodes=3).precompute()

    def blocked(*args):
        raise AssertionError("coalition values replayed after precompute")

    monkeypatch.setattr(eng, "_replay", blocked)
    v = {S: y[:, 0] for S, y in values.table.items()}
    phi, _ = shapley_exact(v)
    assert synergy_matrix(v, phi).shape == (2, 2)


# -- read sets -----------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_each_statistic_reads_exactly_its_read_set(n):
    # a run replays the declared read sets up front and nothing later, so
    # each statistic must need every coalition it declares and no other
    perms = sample_permutations(n, 3, np.random.default_rng(n))
    phi = np.zeros(n)
    for reads, statistic in [
        (shapley_coalitions(n), shapley_exact),
        (shapley_coalitions(n, perms), lambda v: shapley_mc(v, perms)),
        # the emergence metrics read both synergy statistics
        (emergence_coalitions(n),
         lambda v: (synergy_index(v), synergy_matrix(v, phi))),
        ([tuple(range(n)), ()], lambda v: efficiency_gap(phi, v)),
    ]:
        v = {S: np.array([1.0 + len(S)]) for S in reads}
        statistic(v)
        for S in v:
            with pytest.raises(KeyError, match=re.escape(repr(S))):
                statistic({T: y for T, y in v.items() if T != S})


# -- naive effects -----------------------------------------------------------------


def test_effect_grid_shapes_and_aggregation():
    eng = make_engine(seed=17)
    y_cf, traces = run_interventions(eng, n_episodes=4, n_samples=2)
    assert y_cf.shape == (2, 4, 2)
    assert traces.shape == (2, 4, 2, eng.horizon)
    res = effects_from_interventions(eng, (y_cf, traces))
    assert res.phi.shape == (2,)
    assert res.phi_pe.shape == (2, 4)
    assert res.y_cf_pe.shape == (2, 4)
    assert res.phi == pytest.approx(res.phi_pe.mean(axis=1))
    assert res.phi == pytest.approx(res.y_fact - res.y_cf)
    facts = eng.factuals(range(4))
    assert res.y_fact == pytest.approx(
        np.mean(rewards_outcome(facts.team, facts.length, eng.outcome))
    )
    assert res.fact_trace.shape == (eng.horizon,)
    assert res.cf_traces.shape == (2, eng.horizon)
    for crit in res.critical:
        assert all(1 <= t <= eng.horizon for t in crit)


class _FixedFactuals:
    """Just what ``effects_from_interventions`` reads of an engine."""

    outcome = OutcomeSpec()
    epsilon_frac = 0.1
    epsilon = CounterfactualEngine.epsilon

    def __init__(self, history):
        self.history = history

    def factuals(self, episodes):
        return self.history.take(list(episodes))


def _effects_per_object(engine, y_cf, traces):
    """The reduction over one object per (agent, episode) and per sample
    that the array reduction replaced, kept as its reference."""
    n, E = y_cf.shape[:2]
    facts = engine.factuals(range(E))
    y_fact_pe = rewards_outcome(facts.team, facts.length, engine.outcome)
    fact_trace = np.mean(rewards_trace(facts.team, facts.length), axis=0)
    y_cf_pe = np.zeros((n, E))
    cf_traces = np.zeros((n, len(fact_trace)))
    for i in range(n):
        for e in range(E):
            y_cf_pe[i, e] = float(np.mean(y_cf[i, e]))
            cf_traces[i] += np.mean(list(traces[i, e]), axis=0)
    cf_traces /= E
    eps = engine.epsilon(float(np.mean(y_fact_pe)))
    critical = [critical_timesteps(fact_trace, c, eps) for c in cf_traces]
    return y_fact_pe[None, :] - y_cf_pe, y_cf_pe, cf_traces, critical


def test_effects_match_the_per_object_reduction_bit_for_bit():
    rng = np.random.default_rng(5)
    shapes = [(1, 1, 1), (3, 1, 7), (6, 12, 1), (2, 29, 1), (1, 9, 3)]
    shapes += [tuple(rng.integers(1, (40, 30, 40))) for _ in range(60)]
    for E, K, T in shapes:
        n = int(rng.integers(1, 5))
        team = rng.normal(size=(E, T)) * 10.0 ** rng.integers(-3, 4)
        hist = full_history(
            "toy", ["x"], np.zeros((E, T + 1, 1)),
            np.zeros((E, T, n), dtype=np.int64), team,
        )
        engine = _FixedFactuals(hist)
        y_cf = rng.normal(size=(n, E, K)) * 10.0 ** rng.integers(-3, 4)
        traces = np.cumsum(rng.normal(size=(n, E, K, T)), axis=3)
        res = effects_from_interventions(engine, (y_cf, traces))
        phi_pe, y_cf_pe, cf_traces, critical = _effects_per_object(
            engine, y_cf, traces
        )
        assert res.phi_pe.tobytes() == phi_pe.tobytes()
        assert res.y_cf_pe.tobytes() == y_cf_pe.tobytes()
        assert res.cf_traces.tobytes() == cf_traces.tobytes()
        assert res.critical == critical


# -- normalisation and ranking -------------------------------------------------------


def test_normalization_keeps_sign_and_unit_mass():
    shares = normalize_contributions([4.867, 5.333])
    assert np.sum(np.abs(shares)) == pytest.approx(1.0)
    assert shares[0] > 0 and shares[1] > 0

    mixed = normalize_contributions([-8.333, 3.333])
    assert np.sum(np.abs(mixed)) == pytest.approx(1.0)
    assert mixed[0] < 0 < mixed[1]


def test_normalization_zero_vector_falls_back_to_equal_shares():
    assert normalize_contributions([0.0, 0.0, 0.0, 0.0]) == pytest.approx([0.25] * 4)


def test_contribution_percentages_match_hand_arithmetic():
    pct = contribution_percentages([4.867, 5.333])
    assert pct == pytest.approx([47.7157, 52.2843], abs=1e-3)
    pct = contribution_percentages([-8.333, 3.333])
    assert pct == pytest.approx([71.4298, 28.5702], abs=1e-3)


def test_ranking_orders_by_magnitude():
    phi = [-3.0, 5.0, 1.0]
    assert rank_agents(phi) == [1, 0, 2]
    assert list(agent_ranks(phi)) == [2, 1, 3]


def test_ranking_breaks_ties_toward_lower_index():
    assert rank_agents([2.0, -2.0]) == [0, 1]
    assert list(agent_ranks([2.0, -2.0])) == [1, 2]


# -- bootstrap ---------------------------------------------------------------------


def test_bootstrap_ci_shapes_and_ordering():
    rng = np.random.default_rng(0)
    phi_pe = rng.normal(loc=[[1.0], [5.0]], scale=0.5, size=(2, 40))
    idx = bootstrap_indices(40, 200, np.random.default_rng(1))
    res = bootstrap_ci(phi_pe, idx, alpha=0.05)
    assert res.samples.shape == (200, 2)
    assert res.lows.shape == (2,) and res.highs.shape == (2,)
    assert np.all(res.lows < res.highs)
    assert np.all(res.se > 0)
    assert res.alpha == 0.05
    # intervals should bracket the sample means here
    means = phi_pe.mean(axis=1)
    assert np.all(res.lows < means) and np.all(means < res.highs)


def test_bootstrap_ci_narrows_as_alpha_grows():
    rng = np.random.default_rng(2)
    phi_pe = rng.normal(size=(2, 30))
    idx = bootstrap_indices(30, 300, np.random.default_rng(3))
    wide = bootstrap_ci(phi_pe, idx, alpha=0.05)
    narrow = bootstrap_ci(phi_pe, idx, alpha=0.5)
    assert np.all(narrow.highs - narrow.lows < wide.highs - wide.lows)


# one resample leaves the standard error undefined (a NaN, with warnings)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bootstrap_ci_is_numpy_linear_quantile():
    # the percentiles equal np.quantile's default rule bit for bit,
    # ties and one- and two-resample schedules included
    rng = np.random.default_rng(4)
    for B, E, alpha in [(1, 3, 0.05), (2, 3, 0.05), (100, 25, 0.05),
                        (37, 10, 0.3), (500, 8, 0.01), (64, 2, 0.5)]:
        phi_pe = rng.normal(size=(3, E)).round(1)
        idx = rng.integers(0, E, size=(B, E))
        res = bootstrap_ci(phi_pe, idx, alpha=alpha)
        for q, got in [(alpha / 2.0, res.lows), (1.0 - alpha / 2.0, res.highs)]:
            expect = np.quantile(res.samples, q, axis=0)
            assert got.tobytes() == expect.tobytes()


def test_bootstrap_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(MacieError, match="at least 2 episodes"):
        bootstrap_indices(1, 10, rng)
    with pytest.raises(ConfigError, match="at least 2 resamples"):
        bootstrap_indices(5, 1, rng)
    idx = bootstrap_indices(5, 10, rng)
    with pytest.raises(ConfigError, match="alpha"):
        bootstrap_ci(np.zeros((2, 5)), idx, alpha=1.5)
    with pytest.raises(MacieError, match="episodes"):
        bootstrap_ci(np.zeros((2, 6)), idx)


def test_compare_agents_separated_and_tied():
    rng = np.random.default_rng(4)
    phi_pe = np.vstack([rng.normal(0.0, 0.1, 50), rng.normal(3.0, 0.1, 50)])
    idx = bootstrap_indices(50, 400, np.random.default_rng(5))
    res = bootstrap_ci(phi_pe, idx)
    phi = phi_pe.mean(axis=1)
    diff, p = compare_agents(phi, res.samples, 1, 0)
    assert diff == pytest.approx(3.0, abs=0.1)
    assert p < 0.01

    diff, p = compare_agents([1.0, 1.0], res.samples, 0, 1)
    assert diff == 0.0 and p == 1.0

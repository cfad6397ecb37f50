import numpy as np
import pytest

from macie.attribution import (
    CoalitionValues,
    effects_from_interventions,
    run_interventions,
)
from macie.collective import (
    EmergenceMetrics,
    _step_correlations,
    coordination_score,
    discretize_states,
    emergence_metrics,
    pairwise_conditional_mi,
    synergy_index,
    synergy_matrix,
)
from macie.core import ConfigError, OutcomeSpec
from macie.counterfactual import CounterfactualEngine
from macie.envs import make_env
from macie.policies import default_policies
from macie.rng import SeedTree

from helpers import action_history, full_history


def game_from_table(table):
    """The one-episode coalition game ``{S: [table[S]]}``."""
    return {S: np.array([table[S]]) for S in table}


def history_from_actions(action_rows, states=None):
    """One-episode history with the given joint actions per step."""
    acts = np.array([action_rows], dtype=np.int64)
    T = acts.shape[1]
    S = np.zeros((1, T + 1, 2))
    if states is not None:
        S[0, :T] = states
    return full_history("toy", ["f0", "f1"], S, acts, np.zeros((1, T)))


# -- pairwise synergy ---------------------------------------------------------------


def test_synergy_matrix_two_agents_by_hand():
    table = {(): 0.0, (0,): 4.0, (1,): 6.0, (0, 1): 10.0}
    sigma = synergy_matrix(game_from_table(table), phi=[4.0, 6.0])
    assert sigma.shape == (2, 2)
    assert sigma[0, 0] == 0.0 and sigma[1, 1] == 0.0
    assert sigma[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert sigma[0, 1] == sigma[1, 0]

    sigma = synergy_matrix(game_from_table(table), phi=[3.0, 4.0])
    assert sigma[0, 1] == pytest.approx(3.0)


def test_synergy_matrix_three_agents_drops_the_pair():
    table = {
        (): 0.0,
        (0,): 1.0,
        (1,): 1.0,
        (2,): 5.0,
        (0, 1): 2.0,
        (0, 2): 6.0,
        (1, 2): 6.0,
        (0, 1, 2): 12.0,
    }
    phi = [1.0, 2.0, 3.0]
    sigma = synergy_matrix(game_from_table(table), phi)
    # v(all) - v({2}) - phi_0 - phi_1 = 12 - 5 - 1 - 2
    assert sigma[0, 1] == pytest.approx(4.0)
    # v(all) - v({1}) - phi_0 - phi_2 = 12 - 1 - 1 - 3
    assert sigma[0, 2] == pytest.approx(7.0)
    assert np.array_equal(sigma, sigma.T)


def test_synergy_matrix_checks_phi_length():
    table = {(): 0.0, (0,): 1.0, (1,): 1.0, (0, 1): 2.0}
    with pytest.raises(ConfigError, match="expected 2 attributions"):
        synergy_matrix(game_from_table(table), phi=[1.0, 1.0, 1.0])


# -- synergy index ------------------------------------------------------------------


def test_synergy_index_hand_values():
    table = {(): 0.0, (0,): 2.0, (1,): 3.0, (0, 1): 10.0}
    # (10 - 5) / 10
    assert synergy_index(game_from_table(table)) == pytest.approx(0.5)

    table = {(): 0.0, (0,): 0.0, (1,): 8.333, (0, 1): 0.0}
    assert synergy_index(game_from_table(table)) == pytest.approx(-1.0, abs=1e-6)

    table = {(): 0.0, (0,): 2.5, (1,): 2.5, (0, 1): 5.0}
    assert synergy_index(game_from_table(table)) == pytest.approx(0.0)


def test_synergy_index_bounds_and_degenerate_case():
    # opposite signs of equal size hit the bound exactly
    table = {(): 0.0, (0,): -2.0, (1,): -3.0, (0, 1): 5.0}
    assert synergy_index(game_from_table(table)) == 2.0

    table = {(): 0.0, (0,): 0.0, (1,): 0.0, (0, 1): 0.0}
    assert synergy_index(game_from_table(table)) == 0.0


# -- coordination -------------------------------------------------------------------


def test_coordination_alignment_and_opposition():
    aligned = history_from_actions([[0, 1], [0, 1], [0, 1]])
    assert coordination_score(aligned) == pytest.approx(1.0)

    opposed = history_from_actions([[0, 1], [1, 0], [0, 1]])
    assert coordination_score(opposed) == pytest.approx(-1.0)


def test_coordination_constant_vectors_need_identity():
    # both joint actions have zero spread; they only count as coordinated
    # when they are literally the same vector
    same = history_from_actions([[2, 2], [2, 2]])
    assert coordination_score(same) == pytest.approx(1.0)

    different = history_from_actions([[2, 2], [3, 3]])
    assert coordination_score(different) == pytest.approx(0.0)


def test_coordination_needs_two_steps():
    assert coordination_score(history_from_actions([[0, 1]])) == 0.0


def _vector_corr_reference(x, y):
    """One step's correlation, as coordination_score computed it per step."""
    sx = float(np.std(x))
    sy = float(np.std(y))
    if sx < 1e-12 or sy < 1e-12:
        return 1.0 if np.array_equal(x, y) else 0.0
    return float(np.mean((x - np.mean(x)) * (y - np.mean(y))) / (sx * sy))


def test_step_correlations_match_the_per_step_reference():
    rng = np.random.default_rng(11)
    for trial in range(3000):
        n = int(rng.integers(2, 8))
        T = int(rng.integers(2, 20))
        acts = rng.integers(0, int(rng.integers(1, 6)), size=(T, n)).astype(np.float64)
        if trial % 3 == 0:
            # constant rows, and repeats of the row before
            acts[rng.random(T) < 0.3] = float(rng.integers(0, 5))
            repeat = np.flatnonzero(rng.random(T - 1) < 0.3) + 1
            acts[repeat] = acts[repeat - 1]
        got = _step_correlations(acts)
        want = [_vector_corr_reference(acts[t - 1], acts[t]) for t in range(1, T)]
        assert got.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()


# -- state discretization -----------------------------------------------------------


def test_discretize_states_separates_cells():
    states = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    ids = discretize_states(states, n_bins=2)
    assert len(set(ids.tolist())) == 4

    constant_col = np.array([[0.0, 7.0], [1.0, 7.0], [0.1, 7.0]])
    ids = discretize_states(constant_col, n_bins=2)
    assert len(set(ids.tolist())) == 2


def test_discretize_states_validates_bins():
    with pytest.raises(ConfigError, match="n_bins"):
        discretize_states(np.zeros((3, 2)), n_bins=0)


# -- information integration ---------------------------------------------------------


def test_independent_actions_carry_no_information():
    hist = action_history(seed=0, mode="independent")
    pairs = pairwise_conditional_mi(hist)
    off_diag = pairs[~np.eye(3, dtype=bool)]
    assert np.all(off_diag < 0.05)
    assert np.all(off_diag >= 0.0)


def test_copied_actions_recover_action_entropy():
    hist = action_history(seed=0, mode="copy")
    pairs = pairwise_conditional_mi(hist)
    for i in range(3):
        for j in range(i + 1, 3):
            assert pairs[i, j] == pytest.approx(np.log(5), abs=0.05)


def test_conditioning_on_state_removes_state_driven_dependence():
    # both agents just echo the state bit, so given the state their
    # actions are constant and the conditional MI is exactly zero
    states = [[float(t % 2), 0.0] for t in range(40)]
    acts = [[t % 2, t % 2] for t in range(40)]
    hist = history_from_actions(acts, states=states)
    assert pairwise_conditional_mi(hist)[0, 1] == 0.0


# -- bundle -------------------------------------------------------------------------


def test_emergence_metrics_bundles_the_parts():
    hist = action_history(seed=3, mode="copy", episodes=10, horizon=10)
    table = {
        (): 0.0,
        (0,): 1.0,
        (1,): 1.0,
        (2,): 1.0,
        (0, 1): 2.0,
        (0, 2): 2.0,
        (1, 2): 2.0,
        (0, 1, 2): 9.0,
    }
    game = game_from_table(table)
    phi = [3.0, 3.0, 3.0]
    m = emergence_metrics(hist, game, phi)
    assert isinstance(m, EmergenceMetrics)
    assert np.array_equal(m.synergy, synergy_matrix(game, phi))
    assert m.si == synergy_index(game)
    assert m.cs == coordination_score(hist)
    assert m.ii == pytest.approx(m.ii_pairs.sum())
    assert m.si == pytest.approx((9.0 - 3.0) / 9.0)


def test_additive_environment_shows_no_synergy():
    env = make_env("additive")
    eng = CounterfactualEngine(
        SeedTree(42), OutcomeSpec(), env=env, policies=default_policies(env.n_agents)
    )
    eff = effects_from_interventions(eng, run_interventions(eng, 20, 5))
    values = CoalitionValues(eng, n_episodes=20).precompute()
    v = {S: y[:, 0] for S, y in values.table.items()}
    sigma = synergy_matrix(v, eff.phi)
    assert abs(sigma[0, 1]) < 0.1
    assert abs(synergy_index(v)) < 0.1

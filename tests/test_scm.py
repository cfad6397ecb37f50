import numpy as np
import pytest

from macie import (
    CounterfactualEngine,
    ConfigError,
    MacieError,
    OutcomeSpec,
    SeedTree,
    StructuralCausalModel,
    default_policies,
    make_env,
)
from macie.scm import ConstantMean, Linear, MIN_SAMPLES

from helpers import full_history


def gridworld_history(episodes=25, seed=42, horizon=None):
    env = make_env("gridworld", horizon=horizon)
    eng = CounterfactualEngine(
        SeedTree(seed), OutcomeSpec(), env=env, policies=default_policies(2)
    )
    return eng.generate_history(episodes)


def synthetic_history(episodes, horizon, act_fn, state_fn=None, seed=0):
    rng = np.random.default_rng(seed)
    states = np.zeros((episodes, horizon + 1, 3))
    actions = np.zeros((episodes, horizon, 2), dtype=np.int64)
    for e in range(episodes):
        state = rng.random(3)
        prev = np.zeros(2, dtype=np.int64)
        for t in range(horizon):
            acts = act_fn(rng, prev, t)
            nxt = state_fn(state, acts, rng) if state_fn else rng.random(3)
            states[e, t] = state
            actions[e, t] = acts
            state = nxt
            prev = acts
        states[e, horizon] = state
    team = actions.sum(axis=2).astype(np.float64)
    return full_history("synth", ["x", "y", "z"], states, actions, team)


def test_constant_mean_predicts_the_mean():
    m = ConstantMean().fit(np.zeros((5, 2)), np.full(5, 3.0), None)
    assert np.allclose(m.predict(np.zeros((4, 2))), 3.0)


def test_linear_recovers_exact_coefficients():
    rng = np.random.default_rng(0)
    X = rng.random((60, 1))
    y = 2.0 * X[:, 0] + 1.0
    m = Linear().fit(X, y, None)
    assert m.coef[0] == pytest.approx(1.0, abs=1e-9)
    assert m.coef[1] == pytest.approx(2.0, abs=1e-9)


def test_fit_rejects_unknown_model_and_small_histories():
    hist = gridworld_history(episodes=12)
    with pytest.raises(ConfigError):
        StructuralCausalModel().fit(hist, OutcomeSpec(), model="neural_net")
    # two 3-step episodes hold 4 transitions
    tiny = gridworld_history(episodes=2, horizon=3)
    scm = StructuralCausalModel()
    with pytest.raises(MacieError, match="too few samples"):
        scm.fit(tiny, OutcomeSpec())
    assert MIN_SAMPLES == 10


def test_goal_coordinates_become_static_features():
    hist = gridworld_history()
    scm = StructuralCausalModel().fit(hist, OutcomeSpec())
    assert scm.static_features == [4, 5, 6, 7]
    for f in (4, 5, 6, 7):
        assert f"ns{f}" not in scm.equations
        assert f"ns{f}" not in scm.parents
    state = hist.states[0, 0]
    nxt = scm.predict_next_state(state[None], np.array([[4, 4]]))[0]
    assert np.array_equal(nxt[4:8], state[4:8])


def test_node_set_and_acyclic_parent_structure():
    hist = gridworld_history()
    scm = StructuralCausalModel().fit(hist, OutcomeSpec())
    assert "a0" in scm.parents and "ns0" in scm.parents and "done" in scm.parents
    # parents only ever point backwards: s/prev_a feed a, s/a feed ns,
    # a/ns feed r and done; that ordering admits no cycle
    def rank(name):
        if name in ("r", "done"):
            return 3
        if name.startswith(("ns", "prev_a")):
            return 2 if name.startswith("ns") else 0
        if name.startswith("s"):
            return 0
        return 1
    for node, parents in scm.parents.items():
        for p in parents:
            assert rank(p) < rank(node), (p, node)


def test_predicted_actions_stay_in_range():
    hist = gridworld_history()
    scm = StructuralCausalModel().fit(hist, OutcomeSpec())
    rng = np.random.default_rng(1)
    for _ in range(20):
        state = rng.random(10) * 4.0
        for agent in (0, 1):
            (a,) = scm.predict_action(
                agent, state[None], rng.integers(0, 5, (1, 2))
            )
            assert 0 <= a < scm.n_actions


def test_fit_is_deterministic():
    hist = gridworld_history()
    state = hist.states[0, 2]
    outs = []
    for _ in range(2):
        scm = StructuralCausalModel().fit(
            hist, OutcomeSpec(), rng=np.random.default_rng(7)
        )
        outs.append(scm.predict_next_state(state[None], np.array([[1, 3]])))
    assert np.array_equal(outs[0], outs[1])


def test_validate_scores_an_exact_linear_system():
    # next state is an exact linear map of the current state and actions
    def act(rng, prev, t):
        return rng.integers(0, 3, 2)

    def nxt(state, acts, rng):
        return 0.5 * state + 0.1 * float(acts.sum())

    hist = synthetic_history(20, 8, act, nxt)
    scm = StructuralCausalModel().fit(hist, OutcomeSpec(), model="linear")
    scores = scm.validate(hist, OutcomeSpec())
    for f in range(3):
        assert scores[f"ns{f}"] == pytest.approx(1.0, abs=1e-9)


def test_validate_gives_noise_a_low_score():
    def act(rng, prev, t):
        return rng.integers(0, 5, 2)

    hist = synthetic_history(40, 10, act)  # states are fresh noise each step
    scm = StructuralCausalModel().fit(hist, OutcomeSpec(), model="linear")
    scores = scm.validate(hist, OutcomeSpec(), n_folds=5)
    for f in range(3):
        assert scores[f"ns{f}"] <= 0.1


def test_validate_tree_band_on_gridworld():
    hist = gridworld_history()
    scm = StructuralCausalModel().fit(hist, OutcomeSpec())
    scores = scm.validate(hist, OutcomeSpec())
    mean_r2 = float(np.mean(list(scores.values())))
    assert 0.6 <= mean_r2 <= 0.8


def test_validate_requires_a_fit_and_enough_folds():
    scm = StructuralCausalModel()
    with pytest.raises(MacieError):
        scm.validate(gridworld_history(episodes=12), OutcomeSpec())
    fitted = StructuralCausalModel().fit(gridworld_history(), OutcomeSpec())
    with pytest.raises(ConfigError):
        fitted.validate(gridworld_history(), OutcomeSpec(), n_folds=1)


def test_copy_policy_keeps_the_inter_agent_edge():
    def act(rng, prev, t):
        a0 = rng.integers(0, 5)
        return np.array([a0, prev[0]], dtype=np.int64)

    hist = synthetic_history(30, 10, act)
    scm = StructuralCausalModel().fit(hist, OutcomeSpec(), model="linear")
    assert (0, 1) in scm.inter_agent_edges()


def test_independent_actions_prune_all_edges():
    def act(rng, prev, t):
        return rng.integers(0, 5, 2)

    hist = synthetic_history(30, 10, act)
    scm = StructuralCausalModel().fit(hist, OutcomeSpec(), model="linear")
    assert scm.inter_agent_edges() == []


@pytest.mark.parametrize("model", ["constant_mean", "linear", "tree_ensemble"])
def test_batch_predictions_match_each_row_alone(model):
    hist = gridworld_history(episodes=12)
    scm = StructuralCausalModel().fit(hist, OutcomeSpec(), model=model)
    rng = np.random.default_rng(5)
    B = 40
    states = hist.states[:, :-1][np.arange(hist.horizon) < hist.length[:, None]]
    S = states[rng.integers(0, len(states), B)] + rng.normal(0.0, 0.3, (B, 10))
    PA = rng.integers(0, scm.n_actions, (B, 2))
    A = rng.integers(0, scm.n_actions, (B, 2))
    NS = scm.predict_next_state(S, A)
    R = scm.predict_reward(A, NS)
    team = R[:, None] * rng.random((B, hist.horizon))
    length = rng.integers(1, hist.horizon + 1, B)
    Y = scm.predict_outcome(team, length)
    acts = [scm.predict_action(agent, S, PA) for agent in (0, 1)]
    # one model step: the state features then the previous joint action
    stepped = np.concatenate([S, PA], axis=1)
    _, step_team, done = scm.transition(stepped, A, None)
    for b in range(B):
        one = slice(b, b + 1)
        for agent in (0, 1):
            assert acts[agent][b] == scm.predict_action(agent, S[one], PA[one])[0]
        assert np.array_equal(NS[b], scm.predict_next_state(S[one], A[one])[0])
        assert R[b] == scm.predict_reward(A[one], NS[one])[0]
        assert Y[b] == scm.predict_outcome(team[one], length[one])[0]
        alone = np.concatenate([S[one], PA[one]], axis=1)
        _, alone_team, alone_done = scm.transition(alone, A[one], None)
        assert np.array_equal(stepped[b], alone[0])
        assert (step_team[b], done[b]) == (alone_team[0], alone_done[0])

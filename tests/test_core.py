import numpy as np
import pytest

from macie import (
    ConfigError,
    Episode,
    History,
    MacieError,
    OutcomeSpec,
    Step,
    TERMINAL_SUCCESS,
    cumulative_trace,
    episode_outcome,
    mean_trace,
    outcome,
    padded_trace,
    read_log,
    write_log,
)
from macie.core import rewards_outcome, rewards_trace


def make_episode(team_rewards, horizon=None, env_name="toy", n_agents=2, seed=0):
    if horizon is None:
        horizon = len(team_rewards)
    steps = [
        Step(
            state=np.array([float(t), 0.0]),
            joint_action=np.zeros(n_agents, dtype=np.int64),
            rewards=np.full(n_agents, tr / n_agents),
            team_reward=float(tr),
        )
        for t, tr in enumerate(team_rewards)
    ]
    return Episode(
        steps=steps,
        env_name=env_name,
        seed=seed,
        horizon=horizon,
        final_state=np.array([float(len(team_rewards)), 0.0]),
    )


def test_episode_outcome_sums_team_rewards():
    assert episode_outcome(make_episode([1.0, 2.0, 3.0])) == 6.0
    assert episode_outcome(make_episode([0.0, 0.0])) == 0.0


def test_history_outcome_is_mean_of_episode_sums():
    hist = History(episodes=[make_episode([4.0]), make_episode([8.0])])
    assert outcome(hist) == 6.0


def test_outcome_rejects_empty_input():
    with pytest.raises(MacieError):
        outcome(History(episodes=[]))
    hollow = Episode(steps=[], env_name="toy", seed=0, horizon=3)
    with pytest.raises(MacieError):
        episode_outcome(hollow)


def test_outcome_spec_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        OutcomeSpec(kind="episode_count")


def test_terminal_success_checks_early_termination():
    spec = OutcomeSpec(kind=TERMINAL_SUCCESS)
    early = make_episode([1.0, 1.0], horizon=5)
    full = make_episode([1.0, 1.0], horizon=2)
    assert episode_outcome(early, spec) == 1.0
    assert episode_outcome(full, spec) == 0.0


def test_cumulative_trace_is_prefix_sum():
    ep = make_episode([1.0, 2.0, 3.0])
    assert np.allclose(cumulative_trace(ep), [1.0, 3.0, 6.0])
    assert cumulative_trace(ep)[-1] == episode_outcome(ep)


def test_padded_trace_holds_terminal_value():
    ep = make_episode([1.0, 2.0], horizon=5)
    assert np.allclose(padded_trace(ep), [1.0, 3.0, 3.0, 3.0, 3.0])
    spec = OutcomeSpec(kind=TERMINAL_SUCCESS)
    assert np.allclose(padded_trace(ep, spec), [0.0, 1.0, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("kind", ["cumulative_team_reward", TERMINAL_SUCCESS])
def test_batched_outcomes_equal_each_row_alone(kind):
    spec = OutcomeSpec(kind)
    rng = np.random.default_rng(5)
    H = 9
    team = rng.normal(size=(40, H)).round(1)
    team[:5] = -0.0  # sums of negative zeros
    team[5:10] = rng.choice([0.0, -0.0], size=(5, H))
    length = rng.integers(1, H + 1, size=40)
    length[::4] = H  # rows that run to the horizon
    length[1::7] = 1
    batch_y = rewards_outcome(team, length, spec)
    batch_trace = rewards_trace(team, length, spec)
    for b in range(len(team)):
        row_y = rewards_outcome(team[b : b + 1], length[b : b + 1], spec)[0]
        row_trace = rewards_trace(team[b : b + 1], length[b : b + 1], spec)[0]
        assert batch_y[b].tobytes() == row_y.tobytes()
        assert batch_trace[b].tobytes() == row_trace.tobytes()
        # the definitions on one episode: a sum from 0 over the steps that
        # ran, and the running sum held after the last step
        L = int(length[b])
        ep = make_episode(team[b, :L].tolist(), horizon=H)
        assert episode_outcome(ep, spec) == row_y
        if kind == "cumulative_team_reward":
            assert np.float64(sum(team[b, :L].tolist())).tobytes() == row_y.tobytes()
            held = np.cumsum(team[b, :L])
            want = np.concatenate([held, np.full(H - L, held[-1])])
            assert row_trace.tobytes() == want.tobytes()
        else:
            assert row_y == (1.0 if L < H else 0.0)
        assert padded_trace(ep, spec).tobytes() == row_trace.tobytes()
    if kind == "cumulative_team_reward":
        assert np.signbit(batch_y[:5]).sum() == 0
        assert np.signbit(batch_trace[:5]).all()


def test_mean_trace_last_entry_equals_history_outcome():
    hist = History(episodes=[make_episode([1.0, 1.0], 3), make_episode([2.0], 3)])
    trace = mean_trace(hist)
    assert len(trace) == 3
    assert trace[-1] == outcome(hist)


def test_episode_validates_length_against_horizon():
    with pytest.raises(MacieError):
        make_episode([1.0, 1.0, 1.0], horizon=2)
    with pytest.raises(ConfigError):
        make_episode([1.0], horizon=0)


def test_history_rejects_mixed_environments():
    with pytest.raises(MacieError):
        History(episodes=[make_episode([1.0]), make_episode([1.0], env_name="x")])
    with pytest.raises(MacieError):
        History(
            episodes=[make_episode([1.0]), make_episode([1.0], n_agents=3)]
        )


def test_log_round_trip_is_bit_exact(tmp_path):
    eps = [make_episode([0.1, -0.25, 1.0 / 3.0], horizon=4, seed=s) for s in range(3)]
    hist = History(episodes=eps, feature_names=["x", "y"])
    path = tmp_path / "episodes.log"
    write_log(hist, path)
    back = read_log(path)
    assert back.feature_names == ["x", "y"]
    assert len(back) == 3
    for a, b in zip(hist.episodes, back.episodes):
        assert a.env_name == b.env_name
        assert a.horizon == b.horizon
        assert np.array_equal(a.final_state, b.final_state)
        for sa, sb in zip(a.steps, b.steps):
            assert np.array_equal(sa.state, sb.state)
            assert np.array_equal(sa.joint_action, sb.joint_action)
            assert np.array_equal(sa.rewards, sb.rewards)
            assert sa.team_reward == sb.team_reward


def test_read_log_rejects_unknown_header(tmp_path):
    path = tmp_path / "bad.log"
    path.write_text("#other-format v9\n")
    with pytest.raises(MacieError):
        read_log(path)

import numpy as np
import pytest

from macie import (
    ConfigError,
    CounterfactualEngine,
    History,
    MacieError,
    OutcomeSpec,
    SeedTree,
    StructuralCausalModel,
    TERMINAL_SUCCESS,
    default_policies,
    make_env,
    read_log,
    rewards_outcome,
    rewards_trace,
    write_log,
)

from helpers import same_arrays


def make_history(team_rewards, horizon=None, n_agents=2, seeds=None):
    """Episodes with the given team rewards per step, zero-padded to ``horizon``.

    Step ``t`` of each episode sees the state ``(t, 0)``, and its final
    state is ``(length, 0)``.
    """
    if horizon is None:
        horizon = max(len(r) for r in team_rewards)
    E = len(team_rewards)
    length = np.array([len(r) for r in team_rewards], dtype=np.int64)
    states = np.zeros((E, horizon + 1, 2))
    team = np.zeros((E, horizon))
    for e, rewards in enumerate(team_rewards):
        states[e, : len(rewards) + 1, 0] = np.arange(len(rewards) + 1)
        team[e, : len(rewards)] = rewards
    return History(
        env_name="toy",
        feature_names=["x", "y"],
        states=states,
        actions=np.zeros((E, horizon, n_agents), dtype=np.int64),
        rewards=np.repeat(team[..., None] / n_agents, n_agents, axis=2),
        team=team,
        length=length,
        seeds=None if seeds is None else np.array(seeds, dtype=np.int64),
    )


def outcome_of(hist, spec=OutcomeSpec()):
    return rewards_outcome(hist.team, hist.length, spec)


def trace_of(hist, spec=OutcomeSpec()):
    return rewards_trace(hist.team, hist.length, spec)


def test_episode_outcome_sums_team_rewards():
    y = outcome_of(make_history([[1.0, 2.0, 3.0], [0.0, 0.0]]))
    assert y.tolist() == [6.0, 0.0]


def test_history_outcome_is_mean_of_episode_sums():
    assert np.mean(outcome_of(make_history([[4.0], [8.0]]))) == 6.0


def test_outcome_spec_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        OutcomeSpec(kind="episode_count")


def test_terminal_success_checks_early_termination():
    spec = OutcomeSpec(kind=TERMINAL_SUCCESS)
    early = make_history([[1.0, 1.0]], horizon=5)
    full = make_history([[1.0, 1.0]], horizon=2)
    assert outcome_of(early, spec).tolist() == [1.0]
    assert outcome_of(full, spec).tolist() == [0.0]


def test_cumulative_trace_is_prefix_sum():
    hist = make_history([[1.0, 2.0, 3.0]])
    assert np.allclose(trace_of(hist)[0], [1.0, 3.0, 6.0])
    assert trace_of(hist)[0, -1] == outcome_of(hist)[0]


def test_padded_trace_holds_terminal_value():
    hist = make_history([[1.0, 2.0]], horizon=5)
    assert np.allclose(trace_of(hist)[0], [1.0, 3.0, 3.0, 3.0, 3.0])
    spec = OutcomeSpec(kind=TERMINAL_SUCCESS)
    assert np.allclose(trace_of(hist, spec)[0], [0.0, 1.0, 1.0, 1.0, 1.0])


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
        if kind == "cumulative_team_reward":
            assert np.float64(sum(team[b, :L].tolist())).tobytes() == row_y.tobytes()
            held = np.cumsum(team[b, :L])
            want = np.concatenate([held, np.full(H - L, held[-1])])
            assert row_trace.tobytes() == want.tobytes()
        else:
            assert row_y == (1.0 if L < H else 0.0)
        # the tail after the last step does not enter an episode's values
        padded = make_history([team[b, :L].tolist()], horizon=H)
        assert outcome_of(padded, spec)[0].tobytes() == row_y.tobytes()
        assert trace_of(padded, spec)[0].tobytes() == row_trace.tobytes()
    if kind == "cumulative_team_reward":
        assert np.signbit(batch_y[:5]).sum() == 0
        assert np.signbit(batch_trace[:5]).all()


def test_mean_trace_last_entry_equals_history_outcome():
    hist = make_history([[1.0, 1.0], [2.0]], horizon=3)
    trace = np.mean(trace_of(hist), axis=0)
    assert len(trace) == 3
    assert trace[-1] == np.mean(outcome_of(hist))


def _log_lines(hist, path):
    write_log(hist, path)
    return path.read_text().splitlines()


def _read_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return read_log(path)


def test_episode_validates_length_against_horizon(tmp_path):
    # a log's horizon bounds its episodes: it must be >= 1, and a record
    # past it is named by its line
    path = tmp_path / "episodes.log"
    lines = _log_lines(make_history([[1.0, 1.0, 1.0]], horizon=3), path)
    for bad in ("horizon=0", "horizon=-2"):
        header = lines[0].replace("horizon=3", bad)
        with pytest.raises(MacieError, match=f"{path}, line 1: .*horizon"):
            _read_lines(path, [header, *lines[1:]])
    header = lines[0].replace("horizon=3", "horizon=2")
    with pytest.raises(MacieError, match=f"{path}, line 5: .*past its horizon") as err:
        _read_lines(path, [header, *lines[1:]])
    assert not isinstance(err.value, ConfigError)  # a bad log, not a bad config


def _assert_same_arrays(a, b):
    assert (a.env_name, a.feature_names) == (b.env_name, b.feature_names)
    assert same_arrays(a, b)


def test_log_round_trip_is_bit_exact(tmp_path):
    hist = make_history(
        [[0.1, -0.25, 1.0 / 3.0], [-0.0, 2.5], [1e-300]], horizon=4, seeds=[7, 3, 11]
    )
    path = tmp_path / "episodes.log"
    write_log(hist, path)
    back = read_log(path)
    assert back.feature_names == ["x", "y"]
    assert len(back) == 3
    _assert_same_arrays(hist, back)


def simulated_history(env_name, episodes=25, seed=2):
    env = make_env(env_name)
    eng = CounterfactualEngine(
        SeedTree(seed), OutcomeSpec(), env=env,
        policies=default_policies(env.n_agents),
    )
    return eng.generate_history(episodes)


@pytest.mark.parametrize("env_name", ["gridworld", "predatorprey"])
def test_simulated_history_round_trips_through_a_log(tmp_path, env_name):
    hist = simulated_history(env_name)
    assert (hist.length < hist.horizon).any()  # some episodes end early
    path = tmp_path / "episodes.log"
    write_log(hist, path)
    _assert_same_arrays(hist, read_log(path))
    # writing the read history gives the same bytes again
    again = tmp_path / "again.log"
    write_log(read_log(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_log_without_final_states(tmp_path):
    hist = simulated_history("gridworld")
    path = tmp_path / "episodes.log"
    lines = [ln for ln in _log_lines(hist, path) if not ln.startswith("#final")]
    back = _read_lines(path, lines)
    assert not back.has_final.any()
    for name in ("actions", "rewards", "team", "length", "seeds"):
        assert getattr(back, name).tobytes() == getattr(hist, name).tobytes()
    # the final states are unknown, so they read as the zero tail
    ran = np.arange(hist.horizon + 1) < hist.length[:, None]
    assert back.states[ran].tobytes() == hist.states[ran].tobytes()
    assert not back.states[~ran].any()
    # without its final state an episode gives one transition fewer
    assert hist.length.min() >= 2
    with_final = StructuralCausalModel().screen(hist)[0]
    without = StructuralCausalModel().screen(back)[0]
    assert len(with_final) - len(without) == len(hist)


def test_episode_view_agrees_with_the_arrays():
    hist = make_history([[1.0, 2.0, 3.0], [4.0]], horizon=4, seeds=[5, 9])
    hist.has_final[1] = False
    views = hist.episodes
    assert [len(ep.steps) for ep in views] == hist.length.tolist()
    assert [ep.seed for ep in views] == [5, 9]
    assert np.array_equal(views[0].final_state, hist.states[0, 3])
    assert views[1].final_state is None
    step = views[0].steps[1]
    assert np.array_equal(step.state, hist.states[0, 1])
    assert np.array_equal(step.joint_action, hist.actions[0, 1])
    assert np.array_equal(step.rewards, hist.rewards[0, 1])
    assert step.team_reward == 2.0


def test_take_selects_episode_rows():
    hist = make_history([[1.0], [2.0, 2.0], [3.0]], seeds=[4, 5, 6])
    part = hist.take([2, 0])
    assert part.seeds.tolist() == [6, 4]
    assert part.length.tolist() == [1, 1]
    assert part.team[:, 0].tolist() == [3.0, 1.0]
    assert len(hist.take(slice(2))) == 2


def test_read_log_rejects_unknown_header(tmp_path):
    path = tmp_path / "bad.log"
    path.write_text("#other-format v9\n")
    with pytest.raises(MacieError):
        read_log(path)

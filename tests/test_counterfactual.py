import numpy as np
import pytest

import macie.counterfactual
from macie.core import (
    OUTCOME_KINDS,
    ConfigError,
    OutcomeSpec,
    rewards_outcome,
    rewards_trace,
)
from macie.counterfactual import (
    MODES,
    CounterfactualEngine,
    critical_timesteps,
    leave_one_out,
)
from macie.envs import kernels, list_envs, make_env
from macie.policies import (
    BaselinePolicy,
    ConstantPolicy,
    SkillPolicy,
    default_policies,
)
from macie.rng import SeedTree
from macie.scm import StructuralCausalModel

from helpers import full_history, same_arrays


def make_engine(seed=42, env_name="gridworld", alphas=None, **overrides):
    env = make_env(env_name, overrides=overrides or None)
    pols = default_policies(env.n_agents, alphas=alphas)
    return CounterfactualEngine(SeedTree(seed), OutcomeSpec(), env=env, policies=pols)


def factual_outcome(eng, e):
    fact = eng.factuals([e])
    return float(rewards_outcome(fact.team, fact.length, eng.outcome)[0])


def test_factual_is_cached_and_deterministic(monkeypatch):
    eng = make_engine()
    first = eng.factuals([3])
    # a cached episode is read back, not simulated again
    monkeypatch.setattr(eng, "_replay", None)
    assert same_arrays(eng.factuals([3]), first)

    other = make_engine().factuals([3])
    assert other.length[0] == first.length[0]
    assert same_arrays(other, first)


def test_factual_run_is_one_history(monkeypatch):
    # episodes not yet simulated extend the history to 0..max in one batch
    eng = make_engine()
    calls = []
    rollout = kernels.rollout

    def counting(env, S0, *args, **kwargs):
        calls.append(len(S0))
        return rollout(env, S0, *args, **kwargs)

    monkeypatch.setattr(kernels, "rollout", counting)
    third = eng.factuals([2])
    assert calls == [3] and len(eng.history) == 3
    assert same_arrays(eng.factuals([2, 0]).take([0]), third)
    hist = eng.generate_history(5)
    assert calls == [3, 5]
    assert same_arrays(hist.take([2]), third)
    eng.generate_history(4)
    assert calls == [3, 5] and len(eng.history) == 5


def test_episode_index_changes_the_rollout():
    eng = make_engine()
    a = eng.factuals([0])
    b = eng.factuals([1])
    assert not np.array_equal(a.states[0, 0], b.states[0, 0]) or not np.array_equal(
        a.actions, b.actions
    )


def test_generate_history_matches_factual_cache():
    eng = make_engine()
    hist = eng.generate_history(4)
    assert len(hist) == 4
    assert same_arrays(hist.take([2]), eng.factuals([2]))
    assert hist.seeds.tolist() == [0, 1, 2, 3]
    assert hist.has_final.all()
    assert hist.feature_names == list(eng.env.feature_names)
    with pytest.raises(ConfigError, match="at least one episode"):
        eng.generate_history(0)


@pytest.mark.parametrize("kind", OUTCOME_KINDS)
@pytest.mark.parametrize("env_name", list_envs())
def test_grand_coalition_equals_factual_outcome(env_name, kind):
    # replaying the rows (N, e, 0) gives the factual run bit for bit, which
    # is why env_resim reads the grand coalition off the factual run
    env = make_env(env_name)
    eng = CounterfactualEngine(
        SeedTree(42), OutcomeSpec(kind), env=env,
        policies=default_policies(env.n_agents),
    )
    E, grand = 12, tuple(range(env.n_agents))
    facts = eng.factuals(range(E))
    y_fact = rewards_outcome(facts.team, facts.length, eng.outcome)
    fact_traces = rewards_trace(facts.team, facts.length, eng.outcome)
    traces, y = eng._replay_outcomes(eng._rows(np.arange(E), {grand: 1}), E)
    assert y.tobytes() == y_fact.tobytes()
    assert traces.tobytes() == fact_traces.tobytes()
    y, traces = eng.replay(range(E), {grand: 1}, traced=[grand])
    assert y[grand].tobytes() == y_fact.tobytes()
    assert traces[grand].tobytes() == fact_traces.tobytes()


def test_coalition_outcome_ignores_member_order():
    eng = make_engine()
    v = eng.coalition_outcome(0, (1, 0))
    assert eng.coalition_outcome(0, (0, 1)) == v


def test_coalition_member_out_of_range():
    eng = make_engine()
    with pytest.raises(ConfigError, match="out of range"):
        eng.coalition_outcome(0, (0, 2))


def test_empty_coalition_is_all_baseline():
    eng = make_engine(seed=5)
    env = make_env("gridworld")
    base = CounterfactualEngine(
        SeedTree(5), OutcomeSpec(), env=env, policies=[BaselinePolicy()] * 2
    )
    for e in range(3):
        assert eng.coalition_outcome(e, ()) == factual_outcome(base, e)


def test_null_intervention_with_one_sample_is_exact():
    # a zero-skill policy and the baseline draw from the same uniform slot,
    # and replicate 0 shares every factual stream, so the replay is bitwise
    # identical and the effect vanishes exactly
    env = make_env("gridworld")
    eng = CounterfactualEngine(
        SeedTree(7),
        OutcomeSpec(),
        env=env,
        policies=[SkillPolicy(0.0), SkillPolicy(0.0)],
    )
    for e in range(6):
        fact = eng.factuals([e])
        fact_trace = rewards_trace(fact.team, fact.length, eng.outcome)[0]
        y_fact = factual_outcome(eng, e)
        for agent in range(2):
            y_cf, traces = eng.intervene_and_rollout(e, agent, n_samples=1)
            assert y_cf.mean() == y_fact
            assert critical_timesteps(
                fact_trace, traces.mean(axis=0), eng.epsilon(y_fact)
            ) == []
            assert np.array_equal(traces[0], fact_trace)


def test_later_replicates_redraw_the_intervened_agent():
    # outcomes in coopnav vary continuously with positions, so replicates
    # with fresh action noise cannot coincide
    eng = make_engine(seed=11, env_name="coopnav")
    y_cf, _ = eng.intervene_and_rollout(0, 0, n_samples=4)
    assert len(set(y_cf.tolist())) == 4


def test_intervention_shapes():
    eng = make_engine(seed=3)
    y_cf, traces = eng.intervene_and_rollout(0, 1, n_samples=3)
    assert y_cf.shape == (3,)
    assert traces.shape == (3, eng.horizon)
    y, traces = eng.replay([0, 2], {(0,): 3, (): 1}, traced=[(0,)])
    assert y[(0,)].shape == (2, 3)
    assert traces[(0,)].shape == (2, 3, eng.horizon)
    assert y[()].shape == (2, 1)
    assert list(traces) == [(0,)]


@pytest.mark.parametrize(
    "env_name,mode",
    [
        ("gridworld", "env_resim"),
        ("traffic", "env_resim"),
        ("gridworld", "scm_rollout"),
    ],
    ids=["gridworld", "traffic", "gridworld_scm_rollout"],
)
def test_intervention_batch_matches_single_episodes(env_name, mode):
    # one replay batch over episodes gives each episode the replays it gets
    # on a fresh engine alone, and on one engine whose factual run and kept
    # draws grow by an episode at each call
    scm = None
    if mode == "scm_rollout":
        hist = make_engine(seed=4, env_name=env_name).generate_history(12)
        scm = StructuralCausalModel().fit(hist, OutcomeSpec())

    def engine():
        env = make_env(env_name)
        return CounterfactualEngine(
            SeedTree(4), OutcomeSpec(), env=env,
            policies=default_policies(env.n_agents), mode=mode, scm=scm,
        )

    S = leave_one_out(make_env(env_name).n_agents, 1)
    y, traces = engine().replay(range(5), {S: 3}, traced=[S])
    shared = engine()
    for e in range(5):
        for eng in (engine(), shared):
            alone_y, alone_traces = eng.intervene_and_rollout(e, 1, 3)
            assert y[S][e].tobytes() == alone_y.tobytes()
            assert traces[S][e].tobytes() == alone_traces.tobytes()
        assert len(shared.history) == len(shared._act_draws) == e + 1


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("env_name", list_envs())
def test_replays_do_not_depend_on_the_batch_split(monkeypatch, env_name, mode):
    # a row's replay reads only its own streams, so cutting the row set
    # into batches of 1, of 7 or not at all gives the same bits
    scm = None
    if mode == "scm_rollout":
        hist = make_engine(seed=6, env_name=env_name).generate_history(12)
        scm = StructuralCausalModel().fit(hist, OutcomeSpec())
    n = make_env(env_name).n_agents
    loo = [leave_one_out(n, i) for i in range(n)]
    E, K = 3, 2
    counts = {
        tuple(i for i in range(n) if mask >> i & 1): 1 for mask in range(2**n)
    }
    counts.update(dict.fromkeys(loo, K))
    rows = E * sum(counts.values())
    assert rows == n * E * K + (2**n - n) * E
    runs = []
    for cap in (1, 7, rows):
        monkeypatch.setattr(macie.counterfactual, "REPLAY_CHUNK", cap)
        env = make_env(env_name)
        eng = CounterfactualEngine(
            SeedTree(6), OutcomeSpec(), env=env,
            policies=default_policies(env.n_agents), mode=mode, scm=scm,
        )
        runs.append(eng.replay(range(E), counts, traced=loo))
    y, traces = runs[0]
    assert set(y) == set(counts) and set(traces) == set(loo)
    for S, K_S in counts.items():
        assert y[S].shape == (E, K_S)
    for S in loo:
        assert traces[S].shape == (E, K, env.horizon)
    for y_run, traces_run in runs[1:]:
        for S in counts:
            assert same_bits(y[S], y_run[S])
        for S in loo:
            assert same_bits(traces[S], traces_run[S])
    # without the other coalitions' rows the leave-one-out rows replay alike
    y_loo, traces_loo = eng.replay(range(E), dict.fromkeys(loo, K), traced=loo)
    for S in loo:
        assert same_bits(y[S], y_loo[S])
        assert same_bits(traces[S], traces_loo[S])


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_intervention_validation():
    eng = make_engine()
    with pytest.raises(ConfigError, match="out of range"):
        eng.intervene_and_rollout(0, 2, 1)
    with pytest.raises(ConfigError, match="out of range"):
        eng.intervene_and_rollout(0, -1, 1)
    with pytest.raises(ConfigError, match="at least one sample"):
        eng.intervene_and_rollout(0, 0, 0)


def test_counterfactuals_are_reproducible():
    a = make_engine(seed=21).intervene_and_rollout(0, 0, 3)
    b = make_engine(seed=21).intervene_and_rollout(0, 0, 3)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_critical_timesteps_are_one_based():
    fact = np.array([1.0, 1.0, 1.0, 1.0])
    cf = np.array([1.0, 1.0, 3.0, 1.1])
    assert critical_timesteps(fact, cf, epsilon=0.5) == [3]
    assert critical_timesteps(fact, fact, epsilon=0.5) == []
    assert critical_timesteps(fact, cf, epsilon=0.05) == [3, 4]


def test_epsilon_scales_with_outcome():
    eng = make_engine()
    assert eng.epsilon(10.0) == pytest.approx(1.0)
    assert eng.epsilon(-20.0) == pytest.approx(2.0)
    assert eng.epsilon(0.0) == pytest.approx(1e-10)


def test_constructor_validation():
    env = make_env("gridworld")
    pols = default_policies(2)
    with pytest.raises(ConfigError, match="unknown mode"):
        CounterfactualEngine(
            SeedTree(0), OutcomeSpec(), env=env, policies=pols, mode="dreams"
        )
    with pytest.raises(ConfigError, match="environment or an ingested"):
        CounterfactualEngine(SeedTree(0), OutcomeSpec())
    with pytest.raises(ConfigError, match="needs policies"):
        CounterfactualEngine(SeedTree(0), OutcomeSpec(), env=env)
    with pytest.raises(ConfigError, match="2 agents, got 3"):
        CounterfactualEngine(
            SeedTree(0), OutcomeSpec(), env=env, policies=default_policies(3)
        )
    with pytest.raises(ConfigError, match="epsilon_frac"):
        CounterfactualEngine(
            SeedTree(0), OutcomeSpec(), env=env, policies=pols, epsilon_frac=0.0
        )


@pytest.mark.parametrize("env_name", list_envs())
def test_constant_actions_out_of_range_are_refused(env_name):
    env = make_env(env_name)
    n = env.n_agents
    bad = ConstantPolicy(env.n_actions + 3)
    pols = default_policies(n)
    refused = f"constant action {bad.action} out of range for {env_name}"
    with pytest.raises(ConfigError, match=refused):
        CounterfactualEngine(
            SeedTree(0), OutcomeSpec(), env=env, policies=[bad] + pols[1:]
        )
    with pytest.raises(ConfigError, match=refused):
        CounterfactualEngine(
            SeedTree(0), OutcomeSpec(), env=env, policies=pols, baseline=bad
        )
    # the top action is in range
    top = ConstantPolicy(env.n_actions - 1)
    CounterfactualEngine(
        SeedTree(0), OutcomeSpec(), env=env, policies=[top] * n, baseline=top
    )


def test_ingested_history_needs_scm_mode():
    T, n = 3, 2
    hist = full_history(
        "toy", ["a", "b", "c"], np.zeros((1, T + 1, 3)),
        np.zeros((1, T, n), dtype=np.int64), np.ones((1, T)), np.ones((1, T, n)),
    )
    with pytest.raises(ConfigError, match="env_resim"):
        CounterfactualEngine(SeedTree(0), OutcomeSpec(), history=hist)


def test_scm_rollout_on_ingested_history():
    sim = make_engine(seed=9)
    hist = sim.generate_history(10)
    scm = StructuralCausalModel().fit(hist, OutcomeSpec())
    eng = CounterfactualEngine(
        SeedTree(9), OutcomeSpec(), history=hist, mode="scm_rollout", scm=scm
    )
    assert eng.n_agents == 2
    assert eng.horizon == sim.env.horizon
    assert factual_outcome(eng, 0) == rewards_outcome(hist.team, hist.length)[0]
    assert same_arrays(eng.factuals([0]), hist.take([0]))

    y_cf, traces = eng.intervene_and_rollout(0, 0, n_samples=3)
    assert np.all(np.isfinite(y_cf))
    assert traces.shape == (3, eng.horizon)
    assert np.all(np.isfinite(traces))

    grand = eng.coalition_outcome(0, (0, 1))
    empty = eng.coalition_outcome(0, ())
    assert np.isfinite(grand) and np.isfinite(empty)


def test_scm_rollout_is_deterministic():
    sim = make_engine(seed=13)
    hist = sim.generate_history(10)
    scm = StructuralCausalModel().fit(hist, OutcomeSpec())
    runs = []
    for _ in range(2):
        eng = CounterfactualEngine(
            SeedTree(13), OutcomeSpec(), history=hist, mode="scm_rollout", scm=scm
        )
        runs.append(eng.intervene_and_rollout(0, 1, n_samples=2))
    for x, y in zip(*runs):
        assert np.array_equal(x, y)


def scm_engine(env_name, outcome=OutcomeSpec(), baseline=None, episodes=25):
    """An ingested-history engine over a model fitted on ``episodes``
    factual episodes of ``env_name`` at seed 42."""
    hist = make_engine(env_name=env_name).generate_history(episodes)
    scm = StructuralCausalModel().fit(hist, outcome)
    return CounterfactualEngine(
        SeedTree(42), outcome, history=hist, mode="scm_rollout", scm=scm,
        baseline=baseline,
    )


def recorded_model_rollouts(monkeypatch):
    """Patch the rollout loop to keep each ``(team, length)`` it steps
    through a structural model."""
    runs = []
    rollout = kernels.rollout

    def recording(world, *args, **kwargs):
        out = rollout(world, *args, **kwargs)
        if isinstance(world, StructuralCausalModel):
            runs.append(out)
        return out

    monkeypatch.setattr(kernels, "rollout", recording)
    return runs


@pytest.mark.parametrize("kind", OUTCOME_KINDS)
def test_scm_replays_end_where_the_done_node_ends_them(monkeypatch, kind):
    # gridworld episodes end when both agents stand on their goals; the
    # model's done node ends some replays early too, and a replay's outcome
    # is read off its team rewards and length as a simulator's is
    eng = scm_engine("gridworld", OutcomeSpec(kind))
    runs = recorded_model_rollouts(monkeypatch)
    every = {(): 3, (0,): 3, (1,): 3, (0, 1): 3}
    y, _ = eng.replay(range(25), every)
    ((team, length),) = runs
    assert (length < eng.horizon).any()
    outcomes = np.concatenate([y[S].ravel() for S in every])
    assert same_bits(outcomes, rewards_outcome(team, length, OutcomeSpec(kind)))


@pytest.mark.parametrize("env_name", ["traffic", "coopnav"])
def test_scm_replays_run_the_horizon_where_no_episode_ends_early(
    monkeypatch, env_name
):
    eng = scm_engine(env_name)
    assert (eng.history.length == eng.horizon).all()
    runs = recorded_model_rollouts(monkeypatch)
    eng.replay(range(10), {(): 2, (0,): 2, (0, 1, 2): 1})
    ((_, length),) = runs
    assert (length == eng.horizon).all()


def test_scm_rollout_honours_the_baseline_policy():
    # the model has no noise, so under a constant baseline every replicate
    # of an intervention replays alike; the uniform baseline redraws
    eng = scm_engine("coopnav", baseline=ConstantPolicy(4))
    constant, _ = eng.intervene_and_rollout(0, 0, 4)
    assert len(set(constant.tolist())) == 1
    uniform, _ = scm_engine("coopnav").intervene_and_rollout(0, 0, 4)
    assert len(set(uniform.tolist())) == 4


def test_scm_rollout_refuses_constant_actions_out_of_the_model_range():
    eng = scm_engine("gridworld", baseline=ConstantPolicy(5))
    assert eng.scm.n_actions == 5
    refused = "constant action 5 out of range for the fitted model"
    with pytest.raises(ConfigError, match=refused):
        eng.intervene_and_rollout(0, 0, 1)

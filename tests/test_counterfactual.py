import numpy as np
import pytest

import macie.counterfactual
from macie.core import ConfigError, OutcomeSpec, rewards_outcome, rewards_trace
from macie.counterfactual import (
    MODES,
    CounterfactualEngine,
    critical_timesteps,
)
from macie.envs import list_envs, make_env
from macie.policies import BaselinePolicy, SkillPolicy, default_policies
from macie.rng import SeedTree
from macie.scm import StructuralCausalModel

from helpers import full_history, same_arrays


def make_engine(seed=42, env_name="gridworld", alphas=None, **overrides):
    env = make_env(env_name, overrides=overrides or None)
    pols = default_policies(env.n_agents, alphas=alphas)
    return CounterfactualEngine(SeedTree(seed), OutcomeSpec(), env=env, policies=pols)


def test_factual_is_cached_and_deterministic(monkeypatch):
    eng = make_engine()
    first = eng.factual(3)
    # a cached episode is read back, not simulated again
    monkeypatch.setattr(eng, "_replay", None)
    assert same_arrays(eng.factual(3), first)

    other = make_engine().factual(3)
    assert other.length[0] == first.length[0]
    assert same_arrays(other, first)


def test_episode_index_changes_the_rollout():
    eng = make_engine()
    a = eng.factual(0)
    b = eng.factual(1)
    assert not np.array_equal(a.states[0, 0], b.states[0, 0]) or not np.array_equal(
        a.actions, b.actions
    )


def test_generate_history_matches_factual_cache():
    eng = make_engine()
    hist = eng.generate_history(4)
    assert len(hist) == 4
    assert same_arrays(hist.take([2]), eng.factual(2))
    assert hist.seeds.tolist() == [0, 1, 2, 3]
    assert hist.has_final.all()
    assert hist.feature_names == list(eng.env.feature_names)
    with pytest.raises(ConfigError, match="at least one episode"):
        eng.generate_history(0)


def test_grand_coalition_equals_factual_outcome():
    eng = make_engine()
    for e in range(5):
        grand = eng.coalition_outcome(e, (0, 1))
        assert grand == eng.factual_outcome(e)


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
        assert eng.coalition_outcome(e, ()) == base.factual_outcome(e)


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
        fact = eng.factual(e)
        fact_trace = rewards_trace(fact.team, fact.length, eng.outcome)[0]
        y_fact = eng.factual_outcome(e)
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
    y_cf, traces = eng.interventions(1, [0, 2], 3)
    assert y_cf.shape == (2, 3)
    assert traces.shape == (2, 3, eng.horizon)


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
    # on a fresh engine alone
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

    y_cf, traces = engine().interventions(1, range(5), 3)
    for e in range(5):
        alone_y, alone_traces = engine().intervene_and_rollout(e, 1, 3)
        assert np.array_equal(y_cf[e], alone_y)
        assert np.array_equal(traces[e], alone_traces)


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
    coalitions = [
        tuple(i for i in range(n) if mask >> i & 1) for mask in range(2**n)
    ]
    E, K = 3, 2
    rows = n * E * K + len(coalitions) * E
    runs = []
    for cap in (1, 7, rows):
        monkeypatch.setattr(macie.counterfactual, "REPLAY_CHUNK", cap)
        env = make_env(env_name)
        eng = CounterfactualEngine(
            SeedTree(6), OutcomeSpec(), env=env,
            policies=default_policies(env.n_agents), mode=mode, scm=scm,
        )
        runs.append(eng.replay_table(range(E), K, coalitions))
    y_cf, traces, y_coalitions = runs[0]
    assert y_cf.shape == (n, E, K)
    assert traces.shape == (n, E, K, make_env(env_name).horizon)
    assert y_coalitions.shape == (len(coalitions), E)
    # without coalition rows the intervention rows replay alike
    runs.append(eng.replay_table(range(E), K)[:2] + (y_coalitions,))
    for run in runs[1:]:
        for x, y in zip(runs[0], run):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


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
    assert eng.factual_outcome(0) == rewards_outcome(hist.team, hist.length)[0]
    assert same_arrays(eng.factual(0), hist.take([0]))

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

import ast
import collections
import copy
import hashlib
import json
import pathlib

import numpy as np
import pytest

import macie
import macie.counterfactual
import macie.rng
from macie.attribution import CoalitionValues, run_interventions
from macie.core import ConfigError, MacieError, read_log, write_log
from macie.report import (
    DEFAULT_EPISODES,
    KNOWN_REPORT_KEYS,
    REPORT_FORMAT,
    REPORT_VERSION,
    RunConfig,
    bench_k_convergence,
    default_permutations,
    explanation_from_report,
    read_report,
    run_pipeline,
    write_csv,
    write_plotdata,
    write_report,
)

TIMING_KEYS = {"1", "2", "3", "3.5", "4", "5", "6", "7", "total"}


def small_config(**overrides):
    base = dict(env="gridworld", episodes=12, k=2, b=20, seed=42)
    base.update(overrides)
    return RunConfig(**base)


def strip_timings(report):
    out = copy.deepcopy(report)
    out.pop("timings_ns")
    return out


@pytest.fixture(scope="module")
def report():
    return run_pipeline(small_config())


# -- configuration ------------------------------------------------------------------


def test_config_validation_messages():
    cases = [
        (dict(method="regression"), "unknown method"),
        (dict(model="neural_net"), "unknown model"),
        (dict(mode="replay"), "unknown mode"),
        (dict(verbosity="chatty"), "unknown verbosity"),
        (dict(outcome="profit"), "unknown outcome"),
        (dict(k=0), "k must be >= 1"),
        (dict(m=0), "m must be >= 1"),
        (dict(b=1), "b must be >= 2"),
        (dict(alpha=1.5), "alpha must be in"),
        (dict(episodes=0), "episodes must be >= 1"),
        (dict(alphas={0: 1.5}), "must be in \\[0, 1\\]"),
        (dict(alpha=float("nan")), "alpha must be finite"),
        (dict(tau_synergy=float("inf")), "tau_synergy must be finite"),
        (dict(tau_si=float("nan")), "tau_si must be finite"),
        (dict(epsilon_frac=float("inf")), "epsilon_frac must be finite"),
        (dict(corr_threshold=float("-inf")), "corr_threshold must be finite"),
        (dict(corr_threshold=-1), "corr_threshold must be in \\[0, 1\\]"),
        (dict(corr_threshold=1.5), "corr_threshold must be in \\[0, 1\\]"),
        (dict(threads=0), "threads must be >= 1"),
        (dict(threads="2"), "threads must be an integer"),
    ]
    for overrides, match in cases:
        with pytest.raises(ConfigError, match=match):
            RunConfig(**overrides).validate()


def test_alpha_override_for_missing_agent():
    with pytest.raises(ConfigError, match="out of range"):
        run_pipeline(small_config(alphas={5: 0.5}))


def test_default_permutation_budget():
    assert default_permutations(2) == 15
    assert default_permutations(3) == 12
    assert default_permutations(5) == 240
    assert default_permutations(8) == 200


def test_default_episode_counts_cover_builtin_envs():
    assert DEFAULT_EPISODES["gridworld"] == 25


# -- pipeline output ----------------------------------------------------------------


def test_report_shape(report):
    assert report["format"] == REPORT_FORMAT
    assert report["version"] == REPORT_VERSION
    assert set(report) <= KNOWN_REPORT_KEYS
    assert report["n_agents"] == 2
    assert report["n_episodes"] == 12
    assert len(report["phi"]) == 2
    assert len(report["phi_naive"]) == 2
    assert len(report["percent"]) == 2
    assert sorted(report["ranks"]) == [1, 2]
    assert set(report["timings_ns"]) == TIMING_KEYS
    assert report["config"]["m"] == default_permutations(2)
    assert len(report["traces"]["factual"]) == report["horizon"]
    assert len(report["traces"]["counterfactual"]) == 2
    assert report["explanation"]["lines"]
    assert report["explanation"]["text"] == "\n".join(report["explanation"]["lines"])


def test_percentages_and_normalization_agree(report):
    phi_hat = np.array(report["phi_hat"])
    assert np.sum(np.abs(phi_hat)) == pytest.approx(1.0)
    assert report["percent"] == pytest.approx(100.0 * np.abs(phi_hat))


def test_efficiency_holds_for_shapley_methods(report):
    assert report["efficiency"]["holds"] is True
    assert report["efficiency"]["gap"] < 1e-9

    exact = run_pipeline(small_config(method="shapley_exact"))
    assert exact["efficiency"]["holds"] is True


def test_naive_method_reports_no_efficiency():
    naive = run_pipeline(small_config(method="naive_cf"))
    assert "efficiency" not in naive
    assert naive["phi"] == naive["phi_naive"]
    assert naive["config"]["m"] is None


def test_pipeline_is_deterministic(report):
    again = run_pipeline(small_config())
    assert json.dumps(strip_timings(report), sort_keys=True) == json.dumps(
        strip_timings(again), sort_keys=True
    )


def test_thread_count_does_not_change_results(report):
    # threads is accepted and checked, but replays run on one thread
    threaded = run_pipeline(small_config(threads=2))
    assert threaded["config"]["threads"] == 1
    assert json.dumps(strip_timings(report), sort_keys=True) == json.dumps(
        strip_timings(threaded), sort_keys=True
    )


def test_no_module_uses_threads():
    thread_apis = {"threading", "_thread", "concurrent"}
    for path in sorted(pathlib.Path(macie.__file__).parent.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module)
        assert not {name.split(".")[0] for name in imported} & thread_apis, path
        assert "MACIE_THREADS" not in source, path


def test_seed_changes_results(report):
    other = run_pipeline(small_config(seed=43))
    assert other["phi"] != report["phi"]


@pytest.mark.parametrize("env_name", ["gridworld", "traffic"])
def test_env_resim_edges_match_a_full_fit(env_name):
    from macie.core import OutcomeSpec
    from macie.counterfactual import CounterfactualEngine
    from macie.envs import make_env
    from macie.policies import default_policies
    from macie.rng import SeedTree
    from macie.scm import StructuralCausalModel

    config = small_config(env=env_name)
    out = run_pipeline(config)

    env = make_env(env_name)
    eng = CounterfactualEngine(
        SeedTree(config.seed),
        OutcomeSpec(),
        env=env,
        policies=default_policies(env.n_agents),
    )
    hist = eng.generate_history(config.episodes)
    full = StructuralCausalModel().fit(
        hist, OutcomeSpec(), rng=SeedTree(config.seed).stream("scm")
    )
    assert out["model"]["inter_agent_edges"] == [
        list(e) for e in full.inter_agent_edges()
    ]


def test_env_resim_needs_no_fitted_model():
    # five episodes are too few to fit the outcome node, which only
    # scm_rollout reads
    out = run_pipeline(small_config(episodes=5))
    assert out["n_episodes"] == 5
    assert np.all(np.isfinite(out["phi"]))
    with pytest.raises(MacieError, match="too few samples"):
        run_pipeline(small_config(episodes=5, mode="scm_rollout"))


# Canonical sha256 of one small report per env, recorded from the scalar
# per-episode rollouts that the batched ones replaced; any drift in the
# simulators, the replay batches or the stream draws changes them.
GOLDEN_REPORTS = {
    "additive": "b72c203f27c9d16e8ab70a2bb0cb94005d9aebfc3bf4928df52bc387301ce564",
    "coopnav": "a78b74d7fb004241c223025e0af999a4c5340060355f017df33e8cc485d76c31",
    "gridworld": "368edd360aa222ee6eb85873aa17523ffc131f5dd1f120e0644e31b5d6523908",
    "predatorprey": "86bab9a2704ed1a12500d39822b48d06d8a9c92a8cffa2fcb75264cd3d130078",
    "traffic": "566a3c7ccf7b9649cf218024573267550047796628f16a59cb38a373902848ff",
    # episodes that end early decide this outcome
    "gridworld/terminal_success_indicator": (
        "f0a54de4cff524f9f4ff8752489ee02d49dcdd08dbc21bc04024a8356087b519"
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_REPORTS))
def test_reports_match_golden_digests(case):
    env_name, _, outcome = case.partition("/")
    config = RunConfig(
        env=env_name, episodes=6, k=3, b=20, method="shapley_exact", seed=42
    )
    config.outcome = outcome or config.outcome
    report = run_pipeline(config)
    report.pop("timings_ns")
    blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == GOLDEN_REPORTS[case]


# Canonical sha256 of small scm_rollout reports, recorded from the
# per-episode structural-model replays that the batched ones replaced; any
# drift in the equations' predictions or the replay rows changes them.
GOLDEN_SCM_REPORTS = {
    "gridworld/tree_ensemble": (
        "6a24e470f6256fa4472b22669cdaac02f9aca35552b76e5f42569fa13e3f0d5b"
    ),
    "gridworld/linear": (
        "6396cb05aa9bfe50c7483c1bc6338ae8aac02500deb095ec46c416331ed99f68"
    ),
    "traffic/linear": (
        "238419ba9ac81151205b9a5c22b1bb7f83539254eb58bf8eba2290a9eecb5c8f"
    ),
    # a 14-episode gridworld log, written and read back
    "ingested/tree_ensemble": (
        "4363b2992dcbbb51ac2dd9476647e2f2729fc18fcac1496f31cfc75929cc224a"
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SCM_REPORTS))
def test_scm_reports_match_golden_digests(tmp_path, case):
    from macie.core import OutcomeSpec
    from macie.counterfactual import CounterfactualEngine
    from macie.envs import make_env
    from macie.policies import default_policies
    from macie.rng import SeedTree

    env_name, _, model = case.partition("/")
    history = None
    if env_name == "ingested":
        env_name = None
        eng = CounterfactualEngine(
            SeedTree(3), OutcomeSpec(), env=make_env("gridworld"),
            policies=default_policies(2),
        )
        path = tmp_path / "episodes.log"
        write_log(eng.generate_history(14), path)
        history = read_log(path)
    config = RunConfig(
        env=env_name or "gridworld", mode="scm_rollout", model=model,
        episodes=12, k=3, b=20, method="shapley_exact", seed=42,
    )
    report = run_pipeline(config, history=history)
    report.pop("timings_ns")
    blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SCM_REPORTS[case]


@pytest.mark.parametrize(
    "overrides",
    [
        dict(env="traffic", method="shapley_exact"),
        dict(env="gridworld", mode="scm_rollout", model="linear"),
    ],
    ids=["traffic_env_resim", "gridworld_scm_rollout"],
)
def test_pipeline_derives_each_stream_once(monkeypatch, overrides):
    # a stream is derived alone by derive_stream or as one row of a batch
    # drawn by uniform_streams; count the keys of both
    counts = collections.Counter()
    derive = macie.rng.derive_stream
    batch = macie.rng.uniform_streams

    def counting(seed_tree, tag, indices):
        counts[(tag, *indices)] += 1
        return derive(seed_tree, tag, indices)

    def counting_batch(seed_tree, tag, indices, n):
        for row in np.asarray(indices).tolist():
            counts[(tag, *row)] += 1
        return batch(seed_tree, tag, indices, n)

    monkeypatch.setattr(macie.rng, "derive_stream", counting)
    monkeypatch.setattr(macie.rng, "uniform_streams", counting_batch)
    report = run_pipeline(small_config(episodes=12, k=3, **overrides))
    assert max(counts.values()) == 1
    # each episode's start, and every agent's actions at every replicate
    assert sum(key[0] == "reset" for key in counts) == 12
    assert sum(key[0] == "act" for key in counts) == 12 * report["n_agents"] * 3


def test_counterfactual_stage_is_one_row_set(monkeypatch):
    # a default run replays every agent's interventions and every coalition
    # as one row set, in as few rollouts as the batch cap allows
    calls = []
    rollout_batch = macie.Environment.rollout_batch

    def counting(self, *args, **kwargs):
        calls.append(len(args[0]))
        return rollout_batch(self, *args, **kwargs)

    monkeypatch.setattr(macie.Environment, "rollout_batch", counting)
    report = run_pipeline(RunConfig(env="gridworld"))
    n, E, K = report["n_agents"], report["n_episodes"], report["config"]["k"]
    rows = n * E * K + 2**n * E
    cap = macie.counterfactual.REPLAY_CHUNK
    assert len(calls) == 1 + -(-rows // cap)
    # the factual episodes, then balanced batches of the row set
    assert calls[0] == E and sum(calls[1:]) == rows
    assert max(calls[1:]) - min(calls[1:]) <= 1


def test_one_row_set_equals_separate_replays(monkeypatch):
    def engine():
        env = macie.make_env("traffic")
        return macie.CounterfactualEngine(
            macie.SeedTree(3), macie.OutcomeSpec(), env=env,
            policies=macie.default_policies(env.n_agents),
        )

    E, K = 6, 3
    values = CoalitionValues(engine(), E)
    y_cf, traces = run_interventions(values.engine, E, K, values)

    def blocked(*args, **kwargs):
        raise AssertionError("coalition value replayed after the row set")

    # every coalition value was cached from the row set
    monkeypatch.setattr(values.engine, "_replay", blocked)
    for i in range(3):
        alone_y, alone_traces = engine().interventions(i, range(E), K)
        assert y_cf[i].tobytes() == alone_y.tobytes()
        assert traces[i].tobytes() == alone_traces.tobytes()
    for members in values.subsets():
        alone = engine().coalition_outcomes([(e, members) for e in range(E)])
        assert values.per_episode(members).tobytes() == alone.tobytes()


# -- ingested logs ------------------------------------------------------------------


def test_pipeline_on_ingested_log(tmp_path, report):
    from macie.core import OutcomeSpec
    from macie.counterfactual import CounterfactualEngine
    from macie.envs import make_env
    from macie.policies import default_policies
    from macie.rng import SeedTree

    env = make_env("gridworld")
    eng = CounterfactualEngine(
        SeedTree(3), OutcomeSpec(), env=env, policies=default_policies(2)
    )
    hist = eng.generate_history(16)
    path = tmp_path / "episodes.log"
    write_log(hist, path)
    loaded = read_log(path)

    config = RunConfig(mode="scm_rollout", episodes=12, k=2, b=20)
    out = run_pipeline(config, history=loaded)
    assert out["n_episodes"] == 12
    assert out["config"]["env"] is None
    assert len(out["phi"]) == 2
    assert np.all(np.isfinite(out["phi"]))

    with pytest.raises(ConfigError, match="scm_rollout"):
        run_pipeline(RunConfig(mode="env_resim"), history=loaded)
    with pytest.raises(ConfigError, match="the log has"):
        run_pipeline(
            RunConfig(mode="scm_rollout", episodes=50, b=20), history=loaded
        )


# -- artifacts ----------------------------------------------------------------------


def test_report_file_round_trip(tmp_path, report):
    path = tmp_path / "report.json"
    write_report(report, path)
    assert read_report(path) == report


def test_read_report_rejects_other_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "other", "version": 1}))
    with pytest.raises(MacieError, match="not an attribution report"):
        read_report(bad)

    versioned = tmp_path / "versioned.json"
    versioned.write_text(json.dumps({"format": REPORT_FORMAT, "version": 99}))
    with pytest.raises(MacieError, match="unsupported report version"):
        read_report(versioned)


def test_read_report_rejects_unknown_fields(tmp_path, report):
    path = tmp_path / "extra.json"
    extended = dict(report)
    extended["surprise"] = 1
    path.write_text(json.dumps(extended))
    with pytest.raises(MacieError, match="unknown fields: surprise"):
        read_report(path)


def test_csv_export(tmp_path, report):
    path = tmp_path / "report.csv"
    write_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "env,n_agents,n_episodes,horizon,method,model,seed,y_fact,si,cs,ii"
    summary = lines[1].split(",")
    assert summary[0] == "gridworld"
    assert float(summary[7]) == report["y_fact"]
    assert lines[3] == "agent,phi,phi_hat,ci_low,ci_high,rank"
    rows = lines[4:]
    assert len(rows) == report["n_agents"]
    first = rows[0].split(",")
    # repr round-trips the float exactly
    assert float(first[1]) == report["phi"][0]
    assert int(first[5]) == report["ranks"][0]


def test_plotdata_folds_collective_metrics_into_effects(tmp_path, report):
    path = tmp_path / "steps.csv"
    write_plotdata(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,label,ns"
    assert len(lines) == 8
    t = report["timings_ns"]
    by_step = {row.split(",")[0]: int(row.split(",")[2]) for row in lines[1:]}
    assert by_step["3"] == t["3"] + t["3.5"]
    assert by_step["2"] == t["2"]
    assert "3.5" not in by_step


def test_explanation_can_be_rebuilt_from_the_report(report):
    exp = explanation_from_report(report)
    assert exp.lines == report["explanation"]["lines"]
    assert exp.structured == report["explanation"]["structured"]

    summary = explanation_from_report(report, verbosity="summary")
    for line in summary.lines:
        assert any(other.startswith(line) for other in exp.lines)


# -- benchmarks ---------------------------------------------------------------------


def test_k_convergence_rows():
    rows = bench_k_convergence(ks=(2, 3), seed=0, b=20)
    assert [r["k"] for r in rows] == [2, 3]
    for r in rows:
        assert len(r["se"]) == 2
        assert r["mean_se"] == pytest.approx(float(np.mean(r["se"])))

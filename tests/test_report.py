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
from macie.attribution import CoalitionValues, run_interventions, shapley_coalitions
from macie.core import ConfigError, MacieError, read_log, write_log
from macie.counterfactual import leave_one_out
from macie.envs import list_envs
from macie.explain import VERBOSITY_LEVELS, build_explanation
from macie.report import (
    DEFAULT_EPISODES,
    KNOWN_REPORT_KEYS,
    METHODS,
    MODES,
    REPORT_FORMAT,
    REPORT_VERSION,
    RunConfig,
    bench_k_convergence,
    default_permutations,
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
        (dict(episodes=0), "episodes must be >= 2"),
        (dict(episodes=1), "episodes must be >= 2"),
        (dict(ii_bins=0), "ii_bins must be >= 1"),
        (dict(ii_bins=2**53 + 1), "ii_bins must be <= 2\\*\\*53"),
        (dict(ii_bins=2**63), "ii_bins must be <= 2\\*\\*53"),
        (dict(k=None), "k must be an integer, got None"),
        (dict(seed=None), "seed must be an integer, got None"),
        (dict(alphas={0: 1.5}), "must be in \\[0, 1\\]"),
        (dict(alphas={"a": 0.5}), "agent 'a' is not an integer"),
        (dict(alphas={1.0: 0.5}), "agent 1.0 is not an integer"),
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
    # two 3-step episodes give 4 transitions, too few to fit the model's
    # equations, which only scm_rollout reads
    out = run_pipeline(small_config(episodes=2, horizon=3))
    assert out["n_episodes"] == 2
    assert np.all(np.isfinite(out["phi"]))
    with pytest.raises(MacieError, match="too few samples"):
        run_pipeline(small_config(episodes=2, horizon=3, mode="scm_rollout"))


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


# sha256 of the file write_report writes for the gridworld report above,
# timings removed; unlike the sorted digests it also pins key order and layout
GOLDEN_REPORT_FILE = "553f3ba35fcc1e1fe5bf1294fd986a85eba6d585d78d0682c604480f31a4dab6"


def test_written_report_matches_golden_bytes(tmp_path):
    config = RunConfig(
        env="gridworld", episodes=6, k=3, b=20, method="shapley_exact", seed=42
    )
    report = run_pipeline(config)
    report.pop("timings_ns")
    path = tmp_path / "report.json"
    write_report(report, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_REPORT_FILE


# The other two methods, on the same small config: naive_cf reads its
# coalition values for the emergence metrics only, and m = 3 is a partial
# block of coopnav's 3! orderings, so Monte Carlo reads only their prefix sets.
GOLDEN_METHOD_REPORTS = {
    "coopnav/naive_cf": (
        "cae4c10d4922bfa0f7fa4f20a37706b901ac2fd3ffa91df77a67accb5fc8a00f"
    ),
    "coopnav/shapley_mc": (
        "29bc092e5b008644ee75cd6ff76e5694fe735ae6fea41b8ece0374a04d2c8033"
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_METHOD_REPORTS))
def test_method_reports_match_golden_digests(case):
    env_name, _, method = case.partition("/")
    config = RunConfig(
        env=env_name, episodes=6, k=3, b=20, method=method, seed=42,
        m=3 if method == "shapley_mc" else None,
    )
    report = run_pipeline(config)
    report.pop("timings_ns")
    blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_METHOD_REPORTS[case]


# Canonical sha256 of small scm_rollout reports, recorded once the fitted
# model replayed through the simulators' step loop, ending where its done
# node ends an episode; any drift in the equations' predictions or the
# replay rows changes them.
GOLDEN_SCM_REPORTS = {
    "gridworld/tree_ensemble": (
        "c194afdc0e92f5fe4a5c4ce598eadc8dc0d67c9c471da7b6686fda000d677ab4"
    ),
    "gridworld/linear": (
        "784f75ad185786b6bea7a5ca488161d61e15a4343c5949b334c270b1fc64e6b1"
    ),
    "traffic/linear": (
        "f942cce81fc301eb5eb4b5e8d3abe0fa7ccf1c94c2ae9ad63b9f96c3d76e0704"
    ),
    # a 14-episode gridworld log, written and read back
    "ingested/tree_ensemble": (
        "6759e72ae3c4ca33d6cdbaec04782ffd4f211a03c18c157a8971968ef98aaa69"
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
    "overrides,chunk",
    [
        pytest.param(
            dict(env="traffic", method="shapley_exact"), None, id="traffic_env_resim"
        ),
        pytest.param(
            dict(env="gridworld", mode="scm_rollout", model="linear"), None,
            id="gridworld_scm_rollout",
        ),
    ]
    + [
        pytest.param(overrides, 7, id="-".join(overrides.values()) + "-chunk7")
        for overrides in (
            dict(env="traffic", method="naive_cf"),
            dict(env="traffic", method="shapley_exact"),
            dict(env="coopnav", method="shapley_mc"),
            dict(env="gridworld", mode="scm_rollout", model="linear"),
        )
    ],
)
def test_pipeline_derives_each_stream_once(monkeypatch, overrides, chunk):
    # a stream is derived alone by derive_stream or as one row of a batch
    # drawn by uniform_streams; count the keys of both. Batches of 7 rows
    # split each row set, so a key that rows of two batches read would show
    # up twice.
    if chunk is not None:
        monkeypatch.setattr(macie.counterfactual, "REPLAY_CHUNK", chunk)
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


@pytest.mark.parametrize(
    "overrides",
    [dict(env=env, method=method) for env in macie.list_envs() for method in METHODS]
    + [dict(env="gridworld", mode="scm_rollout", model="linear")],
    ids=lambda o: "-".join(o.values()),
)
def test_counterfactual_stage_is_one_row_set(monkeypatch, overrides):
    # a default run replays every coalition that a later stage reads as one
    # row set, each row (S, e, k) once, in as few batches as the batch cap
    # allows, and nothing after stage 2 replays
    engine = macie.CounterfactualEngine
    calls, replays, reads, stage2 = [], [], set(), []

    def counting_rollout(world, S0, *args, **kwargs):
        calls.append(len(S0))
        return rollout(world, S0, *args, **kwargs)

    def counting_replay(self, *args, **kwargs):
        replays.append(args)
        return replay(self, *args, **kwargs)

    def blocked_after_stage2(self, *args, **kwargs):
        assert not stage2, "replayed after stage 2"
        return replay_outcomes(self, *args, **kwargs)

    def stage2_then_block(*args, **kwargs):
        out = run_interventions(*args, **kwargs)
        stage2.append(True)
        return out

    class Recording(dict):
        def __getitem__(self, members):
            reads.add(members)
            return super().__getitem__(members)

    def recording(statistic):
        # the coalition game reaches each statistic as its dict argument
        def read(*args):
            args = [Recording(a) if isinstance(a, dict) else a for a in args]
            return statistic(*args)

        return read

    rollout = macie.envs.kernels.rollout
    replay, replay_outcomes = engine.replay, engine._replay_outcomes
    # the one step loop, through the simulator or the fitted model
    monkeypatch.setattr(macie.envs.kernels, "rollout", counting_rollout)
    monkeypatch.setattr(engine, "replay", counting_replay)
    monkeypatch.setattr(engine, "_replay_outcomes", blocked_after_stage2)
    monkeypatch.setattr(macie.report, "run_interventions", stage2_then_block)
    for name in ("emergence_metrics", "shapley_exact", "shapley_mc", "efficiency_gap"):
        monkeypatch.setattr(macie.report, name, recording(getattr(macie.report, name)))
    report = run_pipeline(RunConfig(**overrides))

    n, E, K = report["n_agents"], report["n_episodes"], report["config"]["k"]
    assert len(replays) == 1
    # agent i's interventions are the rows of coalition N - {i}; every other
    # coalition read is replayed at k = 0, except that env_resim reads the
    # grand coalition off the factual run
    loo = {leave_one_out(n, i) for i in range(n)}
    others = reads - loo
    if report["config"]["mode"] == "env_resim":
        others.discard(tuple(range(n)))
    rows = n * E * K + len(others) * E
    if overrides == dict(env="gridworld", method="shapley_mc"):
        assert rows == 275
    cap = macie.counterfactual.REPLAY_CHUNK
    assert len(calls) == 1 + -(-rows // cap)
    # the factual episodes, then balanced batches of the row set
    assert calls[0] == E and sum(calls[1:]) == rows
    assert max(calls[1:]) - min(calls[1:]) <= 1


def test_exact_shapley_beyond_its_cap_fails_before_any_replay(monkeypatch):
    def blocked(*args, **kwargs):
        raise AssertionError("replayed before the cap was checked")

    monkeypatch.setattr(macie.attribution, "EXACT_SHAPLEY_LIMIT", 1)
    monkeypatch.setattr(macie.CounterfactualEngine, "_replay_outcomes", blocked)
    with pytest.raises(ConfigError, match="capped at n=1"):
        run_pipeline(small_config(method="shapley_exact"))


def test_one_row_set_equals_separate_replays(monkeypatch):
    env = macie.make_env("traffic")
    hist = macie.CounterfactualEngine(
        macie.SeedTree(3), macie.OutcomeSpec(), env=env,
        policies=macie.default_policies(env.n_agents),
    ).generate_history(12)
    scm = macie.StructuralCausalModel().fit(hist, macie.OutcomeSpec())
    E, K = 6, 3

    def blocked(*args, **kwargs):
        raise AssertionError("coalition value replayed after the row set")

    for mode in MODES:

        def engine():
            return macie.CounterfactualEngine(
                macie.SeedTree(3), macie.OutcomeSpec(), env=env,
                policies=macie.default_policies(env.n_agents),
                scm=scm if mode == "scm_rollout" else None,
            )

        values = CoalitionValues(engine(), E)
        every = shapley_coalitions(3)
        y_cf, traces = run_interventions(values.engine, E, K, values, every)
        # every coalition value was kept from the row set
        with monkeypatch.context() as m:
            m.setattr(values.engine, "_replay_outcomes", blocked)
            table = {S: values.table[S][:, 0] for S in every}
        for i in range(3):
            S = leave_one_out(3, i)
            alone_y, alone_traces = engine().replay(range(E), {S: K}, traced=[S])
            assert y_cf[i].tobytes() == alone_y[S].tobytes()
            assert traces[i].tobytes() == alone_traces[S].tobytes()
            assert values.table[S].tobytes() == y_cf[i].tobytes()
        for S, v in table.items():
            alone, _ = engine().replay(range(E), {S: 1})
            assert v.tobytes() == alone[S][:, 0].tobytes()


def test_pipeline_keeps_no_later_environment_replicates(monkeypatch):
    # the engine keeps only its factual run: the history and, beside it, the
    # replicate-0 draws of its episodes; a later replicate lives only while
    # its row set replays
    engines = []
    setup = macie.report._setup

    def keeping(*args, **kwargs):
        engines.append(setup(*args, **kwargs))
        return engines[-1]

    monkeypatch.setattr(macie.report, "_setup", keeping)
    report = run_pipeline(small_config(env="traffic", method="naive_cf"))
    engine = engines[0][0]
    E, T, n = report["n_episodes"], engine.horizon, report["n_agents"]
    act = [(e, j, 0) for e in range(E) for j in range(n)]
    act = engine.tree.uniforms("act", act, 2 * T).reshape(E, n, T, 2)
    env = engine.tree.uniforms("env", [(e, 0) for e in range(E)], T * n * 2)
    assert len(engine.history) == E
    assert engine._act_draws.tobytes() == act.transpose(0, 2, 1, 3).tobytes()
    assert engine._env_draws.tobytes() == env.tobytes()
    held = {k for k, v in vars(engine).items() if isinstance(v, (dict, np.ndarray))}
    assert held == {"_act_draws", "_env_draws"}


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


@pytest.mark.parametrize(
    "case",
    [f"{env}/{method}" for env in list_envs() for method in METHODS]
    + ["ingested/shapley_exact"],
)
def test_explanation_can_be_rebuilt_from_the_report(tmp_path, case):
    env_name, _, method = case.partition("/")
    history = None
    mode = "env_resim"
    if env_name == "ingested":
        from macie.core import OutcomeSpec
        from macie.counterfactual import CounterfactualEngine
        from macie.envs import make_env
        from macie.policies import default_policies
        from macie.rng import SeedTree

        env_name, mode = "gridworld", "scm_rollout"
        eng = CounterfactualEngine(
            SeedTree(3), OutcomeSpec(), env=make_env("gridworld"),
            policies=default_policies(2),
        )
        log = tmp_path / "episodes.log"
        write_log(eng.generate_history(6), log)
        history = read_log(log)
    runs = {
        level: run_pipeline(
            RunConfig(env=env_name, episodes=6, k=3, b=20, method=method,
                      mode=mode, seed=42, verbosity=level),
            history=history,
        )
        for level in VERBOSITY_LEVELS
    }
    path = tmp_path / "report.json"
    write_report(runs["detailed"], path)
    stored = read_report(path)
    for level, run in runs.items():
        exp = build_explanation(stored, verbosity=level)
        assert exp.lines == run["explanation"]["lines"]
        assert exp.structured == run["explanation"]["structured"]
        # and at the stored report's own verbosity
        write_report(run, path)
        exp = build_explanation(read_report(path))
        assert exp.lines == run["explanation"]["lines"]
        assert exp.structured == run["explanation"]["structured"]


# what the renderer reads of each field: None for the whole value
RENDERER_READS = {
    "phi": None,
    "y_fact": None,
    "y_cf": None,
    "critical_timesteps": None,
    "ci": ("lows", "highs", "alpha"),
    "emergence": ("si", "cs", "ii", "synergy"),
    "config": ("verbosity", "tau_synergy", "tau_si", "alpha"),
}


def test_renderer_reads_only_checked_fields(tmp_path):
    path = tmp_path / "report.json"
    write_report(run_pipeline(small_config(method="shapley_exact")), path)
    stored = read_report(path)
    sentinel = object()
    blanked = {
        key: (
            sentinel if key not in RENDERER_READS
            else value if RENDERER_READS[key] is None
            else {k: v if k in RENDERER_READS[key] else sentinel
                  for k, v in value.items()}
        )
        for key, value in stored.items()
    }
    assert blanked["efficiency"] is sentinel
    assert blanked["ci"]["se"] is sentinel
    assert blanked["emergence"]["ii_pairs"] is sentinel
    for level in VERBOSITY_LEVELS:
        exp = build_explanation(stored, verbosity=level)
        kept = build_explanation(blanked, verbosity=level)
        assert kept.lines == exp.lines
        assert kept.structured == exp.structured


# -- benchmarks ---------------------------------------------------------------------


def test_k_convergence_rows():
    rows = bench_k_convergence(ks=(2, 3), seed=0, b=20)
    assert [r["k"] for r in rows] == [2, 3]
    for r in rows:
        assert len(r["se"]) == 2
        assert r["mean_se"] == pytest.approx(float(np.mean(r["se"])))

"""Acceptance checks: one test per shipped guarantee, one verdict line each.

Each test prints ``[acceptance] <label>: PASS/FAIL`` so a plain ``pytest -v
tests/test_acceptance.py`` reads as a checklist. Tolerances and runtime
budgets are part of the guarantee and are asserted, not just reported.
"""

import json
import time

import numpy as np

from macie.attribution import (
    CoalitionValues,
    bootstrap_ci,
    bootstrap_indices,
    compare_agents,
    contribution_percentages,
    effects_from_interventions,
    run_interventions,
    sample_permutations,
    shapley_exact,
    shapley_mc,
)
from macie.collective import pairwise_conditional_mi, synergy_index
from macie.core import OutcomeSpec
from macie.counterfactual import CounterfactualEngine
from macie.envs import make_env
from macie.policies import SkillPolicy, default_alphas, default_policies
from macie.report import (
    RunConfig,
    default_permutations,
    run_pipeline,
    warmup,
)
from macie.rng import SeedTree
from macie.scm import StructuralCausalModel

from helpers import action_history, nav_history, rollout_one


def verdict(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {label}: {status}{suffix}")
    assert ok, f"{label}{suffix}"


def random_game(n, rng):
    table = {(): 0.0}
    for mask in range(1, 1 << n):
        members = tuple(j for j in range(n) if mask >> j & 1)
        table[members] = float(rng.normal())
    return table


def game(table):
    """The one-episode coalition game ``{S: [table[S]]}``."""
    return {S: np.array([table[S]]) for S in table}


# -- 1: Shapley axioms --------------------------------------------------------------


def test_c01_shapley_axioms():
    t0 = time.perf_counter()
    tol = 1e-9
    worst = 0.0
    for n in (2, 3, 4, 5):
        rng = np.random.default_rng(n)
        for _ in range(100):
            table = random_game(n, rng)
            phi, _ = shapley_exact(game(table))

            # efficiency
            grand = table[tuple(range(n))]
            worst = max(worst, abs(float(np.sum(phi)) - grand))

            # symmetry: make players 0 and 1 interchangeable by letting the
            # value depend only on how many of them joined
            sym = {
                m: table[tuple(range(len({0, 1} & set(m))))]
                + float(len([j for j in m if j > 1]))
                for m in table
            }
            phi_sym, _ = shapley_exact(game(sym))
            worst = max(worst, abs(phi_sym[0] - phi_sym[1]))

            # null player: agent n-1 never changes a coalition's value
            null = {m: table[tuple(j for j in m if j != n - 1)] for m in table}
            phi_null, _ = shapley_exact(game(null))
            worst = max(worst, abs(phi_null[n - 1]))

            # additivity
            other = random_game(n, rng)
            phi_other, _ = shapley_exact(game(other))
            combined = {m: table[m] + other[m] for m in table}
            phi_sum, _ = shapley_exact(game(combined))
            worst = max(worst, float(np.max(np.abs(phi_sum - phi - phi_other))))
    elapsed = time.perf_counter() - t0
    verdict(
        "shapley axioms on 400 random games",
        worst <= tol and elapsed < 5.0,
        f"max violation {worst:.2e}, {elapsed:.2f}s",
    )


# -- 2: Monte Carlo accuracy --------------------------------------------------------


def test_c02_monte_carlo_accuracy():
    t0 = time.perf_counter()
    budgets = {2: 15, 3: 12}
    rel = {2: [], 3: []}
    for seed in range(200):
        for n, m in budgets.items():
            table = random_game(n, np.random.default_rng(seed * 7 + n))
            g = game(table)
            exact, _ = shapley_exact(g)
            perms = sample_permutations(n, m, np.random.default_rng(10_000 + seed))
            mc, _ = shapley_mc(g, perms)
            spread = max(table.values()) - min(table.values())
            rel[n].append(float(np.mean(np.abs(mc - exact))) / spread)
    elapsed = time.perf_counter() - t0
    mean2 = float(np.mean(rel[2]))
    mean3 = float(np.mean(rel[3]))
    verdict(
        "monte carlo attribution error",
        mean2 < 0.05 and mean3 < 0.05 and elapsed < 10.0,
        f"mean relative error n=2 {mean2:.4f}, n=3 {mean3:.4f}, {elapsed:.2f}s",
    )


# -- 3: normalization arithmetic ----------------------------------------------------


def test_c03_normalization_arithmetic():
    cases = [
        ([4.867, 5.333], [47.7, 52.3]),
        ([-8.333, 3.333], [71.4, 28.6]),
        ([-6.604, -9.411, -10.461], [24.9, 35.5, 39.5]),
    ]
    worst = 0.0
    for phi, expected in cases:
        pct = contribution_percentages(phi)
        worst = max(worst, float(np.max(np.abs(pct - np.asarray(expected)))))
    verdict(
        "contribution percentages",
        worst <= 0.1,
        f"max deviation {worst:.3f} percentage points",
    )


# -- 4: synergy index arithmetic ----------------------------------------------------


def test_c04_synergy_index_arithmetic():
    interference = game({(): 0.0, (0,): 0.0, (1,): 8.333, (0, 1): 0.0})
    plain = game({(): 0.0, (0,): 2.0, (1,): 3.0, (0, 1): 10.0})
    si_neg = synergy_index(interference)
    si_pos = synergy_index(plain)
    verdict(
        "synergy index arithmetic",
        abs(si_neg - (-1.0)) <= 1e-6 and abs(si_pos - 0.5) <= 1e-9,
        f"(0, 8.333) -> {si_neg:.6f}, (10, 5) -> {si_pos:.3f}",
    )


# -- 5: skill-gap detection power ---------------------------------------------------


def test_c05_skill_gap_detection():
    t0 = time.perf_counter()
    hits = 0
    for seed in range(10):
        tree = SeedTree(seed)
        env = make_env("gridworld")
        engine = CounterfactualEngine(
            tree, OutcomeSpec(), env=env, policies=default_policies(2)
        )
        values = CoalitionValues(engine, n_episodes=25)
        values.precompute()
        v = {S: y[:, 0] for S, y in values.table.items()}
        perms = sample_permutations(2, default_permutations(2), tree.stream("perm"))
        phi, phi_pe = shapley_mc(v, perms)
        indices = bootstrap_indices(25, 100, tree.stream("bootstrap"))
        boot = bootstrap_ci(phi_pe, indices, alpha=0.05)
        diff, p = compare_agents(phi, boot.samples, 1, 0)
        if diff > 0 and p < 0.05:
            hits += 1
    elapsed = time.perf_counter() - t0
    verdict(
        "skill gap detected in >= 8/10 seeds",
        hits >= 8 and elapsed < 30.0,
        f"{hits}/10 seeds significant, {elapsed:.2f}s",
    )


# -- 6: emergence sign regimes ------------------------------------------------------


def test_c06_emergence_sign_regimes():
    t0 = time.perf_counter()

    def si_for(env_name, overrides):
        env = make_env(env_name, overrides)
        engine = CounterfactualEngine(
            SeedTree(42),
            OutcomeSpec(),
            env=env,
            policies=default_policies(env.n_agents),
        )
        values = CoalitionValues(engine, n_episodes=100).precompute()
        return synergy_index({S: y[:, 0] for S, y in values.table.items()})

    bonus = si_for("gridworld", {"team_bonus": 50.0})
    pursuit = si_for("predatorprey", {"collision_penalty": 4.0})
    additive = si_for("additive", None)
    elapsed = time.perf_counter() - t0
    verdict(
        "emergence sign regimes",
        bonus > 0.1 and pursuit < -0.1 and abs(additive) < 0.1 and elapsed < 60.0,
        f"bonus {bonus:.3f}, pursuit {pursuit:.3f}, additive {additive:.3f}, "
        f"{elapsed:.2f}s",
    )


# -- 7: pairwise synergy against a from-scratch oracle --------------------------------


def test_c07_synergy_matches_brute_force():
    seed, episodes, k_samples = 123, 12, 5
    config = RunConfig(env="gridworld", episodes=episodes, k=k_samples, seed=seed)
    sigma_pipeline = run_pipeline(config)["emergence"]["synergy"][0][1]

    # oracle: rebuild every rollout directly from the seeded streams and
    # average the four coalition outcomes and the naive per-agent effects
    env = make_env("gridworld")
    tree = SeedTree(seed)
    T = env.horizon
    alphas_full = default_alphas(2)

    def rollout_outcome(e, skilled, agent_reps, env_rep):
        s0 = env.initial_state(tree.stream("reset", e))
        act_u = np.empty((T, 2, 2))
        for j in range(2):
            act_u[:, j, :] = tree.stream("act", e, j, agent_reps[j]).random((T, 2))
        env_u = np.zeros((T, 2, 2))
        if env.uses_env_uniforms:
            env_u = tree.stream("env", e, env_rep).random((T, 2, 2))
        kinds = np.array([0 if j in skilled else 1 for j in range(2)], np.int64)
        alphas = np.array(
            [alphas_full[j] if j in skilled else 0.0 for j in range(2)]
        )
        consts = np.zeros(2, dtype=np.int64)
        _, _, _, team, length = rollout_one(
            env, s0, kinds, alphas, consts, act_u, env_u
        )
        return float(np.sum(team[:length]))

    grand = np.mean([rollout_outcome(e, {0, 1}, [0, 0], 0) for e in range(episodes)])
    empty = np.mean([rollout_outcome(e, set(), [0, 0], 0) for e in range(episodes)])
    phi = []
    for agent in range(2):
        effects = []
        for e in range(episodes):
            fact = rollout_outcome(e, {0, 1}, [0, 0], 0)
            cfs = [
                rollout_outcome(
                    e,
                    {1 - agent},
                    [k if j == agent else 0 for j in range(2)],
                    k,
                )
                for k in range(k_samples)
            ]
            effects.append(fact - float(np.mean(cfs)))
        phi.append(float(np.mean(effects)))
    sigma_oracle = float(grand - empty - phi[0] - phi[1])

    diff = abs(sigma_pipeline - sigma_oracle)
    verdict(
        "pairwise synergy equals brute force",
        diff <= 1e-9,
        f"pipeline {sigma_pipeline:.6f}, oracle {sigma_oracle:.6f}, diff {diff:.2e}",
    )


# -- 8: null intervention ------------------------------------------------------------


def test_c08_null_intervention_is_exactly_zero():
    env = make_env("gridworld")
    engine = CounterfactualEngine(
        SeedTree(7),
        OutcomeSpec(),
        env=env,
        policies=[SkillPolicy(0.0), SkillPolicy(0.0)],
    )
    effects = effects_from_interventions(
        engine, run_interventions(engine, n_episodes=10, n_samples=1)
    )
    worst = float(np.max(np.abs(effects.phi_pe)))
    verdict(
        "null intervention attribution",
        worst == 0.0,
        f"max |phi| {worst!r}",
    )


# -- 9: convergence in the replicate budget -------------------------------------------


def test_c09_attribution_se_falls_with_k():
    ks = (3, 5, 10, 20)
    inversions = 0
    endpoints_ok = True
    for seed in range(10):
        ses = []
        for k in ks:
            report = run_pipeline(
                RunConfig(
                    env="gridworld",
                    episodes=50,
                    k=k,
                    b=100,
                    seed=seed,
                    method="naive_cf",
                )
            )
            ses.append(float(np.mean(report["ci"]["se"])))
        inversions += sum(1 for a, b in zip(ses, ses[1:]) if b > a)
        endpoints_ok = endpoints_ok and ses[-1] < ses[0]
    verdict(
        "attribution SE falls as replicates grow",
        inversions <= 1 and endpoints_ok,
        f"{inversions} inversions across 10 seeds, k=20 below k=3 in all seeds: "
        f"{endpoints_ok}",
    )


# -- 10: model family ordering ---------------------------------------------------------


def test_c10_tree_model_beats_linear_on_nonlinear_histories():
    gaps = []
    faster = True
    for seed in (0, 1, 42):
        hist = nav_history(seed)

        t0 = time.perf_counter()
        tree_scm = StructuralCausalModel().fit(
            hist, OutcomeSpec(), model="tree_ensemble"
        )
        tree_time = time.perf_counter() - t0
        tree_r2 = float(np.mean(list(tree_scm.validate(hist, OutcomeSpec()).values())))

        t0 = time.perf_counter()
        linear_scm = StructuralCausalModel().fit(hist, OutcomeSpec(), model="linear")
        linear_time = time.perf_counter() - t0
        linear_r2 = float(
            np.mean(list(linear_scm.validate(hist, OutcomeSpec()).values()))
        )

        gaps.append(tree_r2 - linear_r2)
        faster = faster and linear_time < tree_time
    verdict(
        "tree model beats linear on fit, linear wins on speed",
        min(gaps) >= 0.05 and faster,
        f"R2 gaps {[round(g, 3) for g in gaps]}, linear faster: {faster}",
    )


# -- 11: runtime envelope --------------------------------------------------------------


def test_c11_pipeline_runtime_envelope():
    warmup()
    reports = {}
    t0 = time.perf_counter()
    for name in ("gridworld", "coopnav", "predatorprey", "traffic"):
        reports[name] = run_pipeline(RunConfig(env=name))
    elapsed = time.perf_counter() - t0

    step2_dominates = True
    for name, report in reports.items():
        t = report["timings_ns"]
        stages = {s: t[s] for s in ("1", "2", "3", "3.5", "4", "5", "6", "7")}
        step2_dominates = step2_dominates and max(stages, key=stages.get) == "2"
    verdict(
        "four-dataset runtime envelope",
        elapsed < 10.0 and step2_dominates,
        f"{elapsed:.2f}s, counterfactual stage largest in "
        f"all four: {step2_dominates}",
    )


# -- 12: determinism --------------------------------------------------------------------


def test_c12_reports_are_byte_identical():
    def canonical(report):
        out = json.loads(json.dumps(report))
        out.pop("timings_ns")
        return json.dumps(out, sort_keys=True).encode()

    ok = True
    for name in ("gridworld", "coopnav", "predatorprey", "traffic"):
        runs = [
            canonical(run_pipeline(RunConfig(env=name, episodes=12, b=50)))
            for _ in range(2)
        ]
        ok = ok and runs[0] == runs[1]
    verdict("byte-identical reports on repeat runs", ok, "4 environments")


# -- 13: information integration calibration ----------------------------------------------


def test_c13_information_integration_calibration():
    independent = pairwise_conditional_mi(action_history(seed=0, mode="independent"))
    copied = pairwise_conditional_mi(action_history(seed=0, mode="copy"))
    pairs = [(i, j) for i in range(3) for j in range(i + 1, 3)]
    indep_max = max(independent[i, j] for i, j in pairs)
    copy_err = max(abs(copied[i, j] - np.log(5)) for i, j in pairs)
    verdict(
        "information integration calibration",
        indep_max < 0.05 and copy_err < 0.05,
        f"independent max {indep_max:.4f} nats, copy deviation from ln 5 "
        f"{copy_err:.4f}",
    )

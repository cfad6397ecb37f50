"""End-to-end pipeline and report artifacts.

``run_pipeline`` wires the stages together: build the structural model,
replay counterfactuals, aggregate individual effects, compute collective
metrics, optionally replace the naive effects with Shapley values,
normalise and rank, bootstrap confidence intervals, and render the
explanation. In ``scm_rollout`` mode the model is fully fitted, since its
equations do the replays; in ``env_resim`` mode the simulator replays and
only the inter-agent graph is screened, for the report's edge list. Each
stage is timed in nanoseconds and the stage times are reported next to the
measured total.

The report is a versioned JSON document; readers reject unknown top-level
fields so stale tooling fails loudly instead of silently ignoring data.
Everything except the timing block is deterministic for a given config.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .attribution import (
    CoalitionValues,
    agent_ranks,
    bootstrap_ci,
    bootstrap_indices,
    contribution_percentages,
    effects_from_interventions,
    efficiency_gap,
    normalize_contributions,
    run_interventions,
    sample_permutations,
    shapley_coalitions,
    shapley_exact,
    shapley_mc,
)
from .collective import (
    DEFAULT_N_BINS,
    emergence_coalitions,
    emergence_metrics,
)
from .core import (
    CUMULATIVE_TEAM_REWARD,
    ConfigError,
    History,
    MacieError,
    OUTCOME_KINDS,
    OutcomeSpec,
    _is_finite,
    _is_real,
)
from .counterfactual import (
    DEFAULT_EPSILON_FRAC,
    MODES,
    CounterfactualEngine,
)
from .envs import kernels, list_envs, make_env
from .explain import (
    DEFAULT_TAU_SI,
    DEFAULT_TAU_SYNERGY,
    VERBOSITY_LEVELS,
    build_explanation,
)
from .policies import default_alphas, default_policies, policy_arrays
from .rng import SeedTree
from .scm import DEFAULT_CORR_THRESHOLD, MODEL_NAMES, StructuralCausalModel
from .trees import TreeEnsemble

REPORT_FORMAT = "macie-report"
REPORT_VERSION = 1
METHODS = ("naive_cf", "shapley_exact", "shapley_mc")
DEFAULT_EPISODES = {
    "gridworld": 25,
    "coopnav": 20,
    "predatorprey": 20,
    "traffic": 25,
    "additive": 25,
}

KNOWN_REPORT_KEYS = {
    "format",
    "version",
    "config",
    "n_agents",
    "n_episodes",
    "horizon",
    "outcome",
    "y_fact",
    "phi",
    "phi_naive",
    "phi_hat",
    "percent",
    "ranks",
    "y_cf",
    "critical_timesteps",
    "ci",
    "emergence",
    "efficiency",
    "model",
    "explanation",
    "timings_ns",
    "traces",
}
# present only for the Shapley methods
OPTIONAL_REPORT_KEYS = {"efficiency"}
# fields of the nested blocks that read_report checks
REPORT_BLOCK_KEYS = {
    "ci": ("lows", "highs", "se", "alpha"),
    "emergence": ("synergy", "si", "cs", "ii", "ii_pairs"),
    "config": ("verbosity", "tau_synergy", "tau_si", "alpha"),
}

PLOTDATA_LABELS = {
    # env_resim screens the inter-agent graph only; scm_rollout fits every equation
    "1": "screen_or_fit_scm",
    "2": "counterfactuals",
    "3": "individual_effects",
    "4": "shapley",
    "5": "normalize",
    "6": "bootstrap",
    "7": "explain",
}


def default_permutations(n_agents):
    """Default Monte Carlo permutation budget per team size."""
    if n_agents == 2:
        return 15
    if n_agents == 3:
        return 12
    if n_agents <= 7:
        return 2 * math.factorial(n_agents)
    return 200


# string fields and their choices; an env name is looked up when it is made
_STR_FIELDS = {
    "env": (),
    "method": METHODS,
    "model": MODEL_NAMES,
    "mode": MODES,
    "verbosity": VERBOSITY_LEVELS,
    "outcome": OUTCOME_KINDS,
}
_INT_FIELDS = ("episodes", "horizon", "k", "m", "b", "seed", "threads", "ii_bins")
_REQUIRED_INTS = ("k", "b", "seed", "ii_bins")  # the others may be None
_REAL_FIELDS = ("alpha", "epsilon_frac", "tau_synergy", "tau_si", "corr_threshold")


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class RunConfig:
    env: str = "gridworld"
    episodes: int | None = None
    horizon: int | None = None
    k: int = 5
    m: int | None = None
    b: int = 100
    alpha: float = 0.05
    method: str = "shapley_mc"
    model: str = "tree_ensemble"
    mode: str = "env_resim"
    seed: int = 42
    # checked but unused: replays run on one thread, and reports say 1
    threads: int | None = None
    verbosity: str = "detailed"
    outcome: str = CUMULATIVE_TEAM_REWARD
    alphas: dict[int, float] = field(default_factory=dict)
    env_config: dict = field(default_factory=dict)
    epsilon_frac: float = DEFAULT_EPSILON_FRAC
    tau_synergy: float = DEFAULT_TAU_SYNERGY
    tau_si: float = DEFAULT_TAU_SI
    ii_bins: int = DEFAULT_N_BINS
    corr_threshold: float = DEFAULT_CORR_THRESHOLD

    def validate(self):
        for name, choices in _STR_FIELDS.items():
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ConfigError(f"{name} must be a string, got {value!r}")
            if choices and value not in choices:
                raise ConfigError(
                    f"unknown {name} {value!r}; choose from {', '.join(choices)}"
                )
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not _is_int(value) and (value is not None or name in _REQUIRED_INTS):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if not _is_real(value):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if not _is_finite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if not 0 <= self.seed < 2**64:
            # streams key on the seed's 64 bits, so a wider seed would alias
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.m is not None and self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if self.b < 2:
            raise ConfigError(f"b must be >= 2, got {self.b}")
        if self.threads is not None and self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 <= self.corr_threshold <= 1.0:
            raise ConfigError(
                f"corr_threshold must be in [0, 1], got {self.corr_threshold}"
            )
        if self.episodes is not None and self.episodes < 2:
            # the confidence intervals resample episodes
            raise ConfigError(f"episodes must be >= 2, got {self.episodes}")
        if self.ii_bins < 1:
            raise ConfigError(f"ii_bins must be >= 1, got {self.ii_bins}")
        for i, a in self.alphas.items():
            if not _is_int(i):
                raise ConfigError(f"alpha override agent {i!r} is not an integer")
            if not _is_real(a) or not 0.0 <= a <= 1.0:
                raise ConfigError(f"alpha for agent {i} must be in [0, 1], got {a}")
        return self


def _setup(config, history):
    """Build engine and history; none of this is part of the timed run."""
    outcome = OutcomeSpec(config.outcome)
    tree = SeedTree(config.seed)
    if history is not None:
        if config.mode != "scm_rollout":
            raise ConfigError(
                "ingested histories have no simulator; use mode scm_rollout"
            )
        ignored = [
            name for name in ("alphas", "env_config", "horizon")
            if getattr(config, name) not in (None, {})
        ]
        if ignored:
            raise ConfigError(
                f"ingested histories take no simulator settings: {', '.join(ignored)}"
            )
        episodes = config.episodes or len(history)
        if episodes > len(history):
            raise ConfigError(
                f"asked for {episodes} episodes but the log has {len(history)}"
            )
        hist = history.take(slice(episodes))
        engine = CounterfactualEngine(
            tree,
            outcome,
            history=hist,
            mode="scm_rollout",
            epsilon_frac=config.epsilon_frac,
        )
        return engine, hist, episodes

    env = make_env(config.env, config.env_config, horizon=config.horizon)
    alphas = default_alphas(env.n_agents)
    for i, a in config.alphas.items():
        if not 0 <= i < env.n_agents:
            raise ConfigError(
                f"alpha override for agent {i} out of range "
                f"(env has {env.n_agents} agents)"
            )
        alphas[i] = a
    policies = default_policies(env.n_agents, alphas)
    episodes = config.episodes or DEFAULT_EPISODES.get(config.env, 20)
    engine = CounterfactualEngine(
        tree,
        outcome,
        env=env,
        policies=policies,
        mode=config.mode,
        epsilon_frac=config.epsilon_frac,
    )
    hist = engine.generate_history(episodes)
    return engine, hist, episodes


def run_pipeline(config: RunConfig, history: History | None = None):
    """Run the full analysis; returns the report as a plain dict."""
    config.validate()
    engine, hist, episodes = _setup(config, history)
    n = engine.n_agents
    tree = engine.tree

    # every coalition a later stage reads, so that stage 2 replays them all
    # as one row set and the later stages are arithmetic on the table
    m_used = perms = None
    if config.method == "shapley_mc":
        m_used = config.m or default_permutations(n)
        perms = sample_permutations(n, m_used, tree.stream("perm"))
    reads = emergence_coalitions(n)
    if config.method != "naive_cf":
        reads += shapley_coalitions(n, perms)

    timings = {}
    t_start = time.perf_counter_ns()

    t0 = time.perf_counter_ns()
    scm = StructuralCausalModel()
    if config.mode == "scm_rollout":
        engine.scm = scm.fit(
            hist,
            engine.outcome,
            model=config.model,
            corr_threshold=config.corr_threshold,
            rng=tree.stream("scm"),
        )
    else:
        # the simulator replays; only the screened edges are reported
        scm.screen(hist, config.corr_threshold)
    timings["1"] = time.perf_counter_ns() - t0

    t0 = time.perf_counter_ns()
    values = CoalitionValues(engine, episodes)
    replays = run_interventions(engine, episodes, config.k, values, reads)
    timings["2"] = time.perf_counter_ns() - t0
    # the coalition game every later statistic reads: v(S) per episode
    v = {S: y[:, 0] for S, y in values.table.items()}

    t0 = time.perf_counter_ns()
    effects = effects_from_interventions(engine, replays)
    timings["3"] = time.perf_counter_ns() - t0

    t0 = time.perf_counter_ns()
    emerg = emergence_metrics(hist, v, effects.phi, config.ii_bins)
    timings["3.5"] = time.perf_counter_ns() - t0

    t0 = time.perf_counter_ns()
    if config.method == "naive_cf":
        phi, phi_pe = effects.phi, effects.phi_pe
    elif config.method == "shapley_exact":
        phi, phi_pe = shapley_exact(v)
    else:
        phi, phi_pe = shapley_mc(v, perms)
    timings["4"] = time.perf_counter_ns() - t0

    t0 = time.perf_counter_ns()
    phi_hat = normalize_contributions(phi)
    percent = contribution_percentages(phi)
    ranks = agent_ranks(phi)
    timings["5"] = time.perf_counter_ns() - t0

    t0 = time.perf_counter_ns()
    indices = bootstrap_indices(episodes, config.b, tree.stream("bootstrap"))
    boot = bootstrap_ci(phi_pe, indices, config.alpha)
    timings["6"] = time.perf_counter_ns() - t0

    report = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        # RunConfig's fields in order, with the values this run resolved
        "config": {
            **asdict(config),
            "env": engine.env.name if engine.env is not None else None,
            "episodes": episodes,
            "horizon": engine.horizon,
            "m": m_used,
            "threads": 1,
            "alphas": {str(i): float(a) for i, a in sorted(config.alphas.items())},
        },
        "n_agents": n,
        "n_episodes": episodes,
        "horizon": engine.horizon,
        "outcome": config.outcome,
        "y_fact": float(effects.y_fact),
        "phi": [float(v) for v in phi],
        "phi_naive": [float(v) for v in effects.phi],
        "phi_hat": [float(v) for v in phi_hat],
        "percent": [float(v) for v in percent],
        "ranks": [int(v) for v in ranks],
        "y_cf": [float(v) for v in effects.y_cf],
        "critical_timesteps": [list(map(int, c)) for c in effects.critical],
        "ci": {
            "alpha": config.alpha,
            "lows": [float(v) for v in boot.lows],
            "highs": [float(v) for v in boot.highs],
            "se": [float(v) for v in boot.se],
        },
        "emergence": {
            "si": float(emerg.si),
            "cs": float(emerg.cs),
            "ii": float(emerg.ii),
            "synergy": [[float(v) for v in row] for row in emerg.synergy],
            "ii_pairs": [[float(v) for v in row] for row in emerg.ii_pairs],
        },
        "model": {
            "name": config.model,
            "inter_agent_edges": [list(e) for e in scm.inter_agent_edges()],
        },
        "explanation": None,  # rendered from this report below
        "timings_ns": None,
        "traces": {
            "factual": [float(v) for v in effects.fact_trace],
            "counterfactual": [
                [float(v) for v in row] for row in effects.cf_traces
            ],
        },
    }
    if config.method in ("shapley_exact", "shapley_mc"):
        gap, rel = efficiency_gap(phi, v)
        report["efficiency"] = {
            "gap": float(gap),
            "relative": float(rel),
            "holds": bool(rel <= 1e-6),
        }

    t0 = time.perf_counter_ns()
    explanation = build_explanation(report)
    timings["7"] = time.perf_counter_ns() - t0
    timings["total"] = time.perf_counter_ns() - t_start

    report["explanation"] = {
        "text": explanation.text,
        "lines": list(explanation.lines),
        "structured": explanation.structured,
    }
    report["timings_ns"] = {k: int(v) for k, v in timings.items()}
    return report


# -- artifacts ------------------------------------------------------------------


def write_report(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def read_report(path):
    """Load a stored report, checking every field an explanation reads."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise MacieError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or data.get("format") != REPORT_FORMAT:
        raise MacieError(f"{path} is not an attribution report")
    if data.get("version") != REPORT_VERSION:
        raise MacieError(f"unsupported report version {data.get('version')!r}")
    unknown = sorted(set(data) - KNOWN_REPORT_KEYS)
    if unknown:
        raise MacieError(
            f"report has unknown fields: {', '.join(unknown)}"
        )
    missing = sorted(KNOWN_REPORT_KEYS - OPTIONAL_REPORT_KEYS - set(data))
    if missing:
        raise MacieError(f"report lacks fields: {', '.join(missing)}")
    for block, keys in REPORT_BLOCK_KEYS.items():
        if not isinstance(data[block], dict):
            raise MacieError(f"report field {block} is not an object")
        lacking = [k for k in keys if k not in data[block]]
        if lacking:
            raise MacieError(f"report field {block} lacks: {', '.join(lacking)}")
    n = data["n_agents"]
    if not (_is_int(n) and n >= 1):
        raise MacieError("report field n_agents is not a positive integer")
    ci, em, cfg = data["ci"], data["emergence"], data["config"]
    number, vector, matrix = (
        "a number", f"a list of {n} numbers", f"{n} lists of {n} numbers"
    )
    for name, value, shape, kind, what in [
        ("y_fact", data["y_fact"], (), _is_real, number),
        ("phi", data["phi"], (n,), _is_real, vector),
        ("y_cf", data["y_cf"], (n,), _is_real, vector),
        ("critical_timesteps", data["critical_timesteps"], (n, None), _is_int,
         f"{n} lists of integers"),
        *((f"ci.{k}", ci[k], (n,), _is_real, vector) for k in ("lows", "highs", "se")),
        ("ci.alpha", ci["alpha"], (), _is_real, number),
        *((f"emergence.{k}", em[k], (), _is_real, number) for k in ("si", "cs", "ii")),
        *((f"emergence.{k}", em[k], (n, n), _is_real, matrix)
          for k in ("synergy", "ii_pairs")),
        *((f"config.{k}", cfg[k], (), _is_real, number)
          for k in ("tau_synergy", "tau_si", "alpha")),
    ]:
        if not _has_shape(value, shape, kind):
            raise MacieError(f"report field {name} is not {what}")
        if kind is _is_real and not _has_shape(value, shape, _is_finite):
            raise MacieError(f"report field {name} holds a non-finite number")
    for name, value in (("ci.alpha", ci["alpha"]), ("config.alpha", cfg["alpha"])):
        if not 0.0 < value < 1.0:
            raise MacieError(f"report field {name} is not in (0, 1)")
    if ci["alpha"] != cfg["alpha"]:
        raise MacieError("report field ci.alpha differs from config.alpha")
    if cfg["verbosity"] not in VERBOSITY_LEVELS:
        raise MacieError(
            "report field config.verbosity is not one of "
            + ", ".join(VERBOSITY_LEVELS)
        )
    return data


def _has_shape(value, shape, kind):
    """Whether ``value`` nests lists to ``shape`` (``None``: any length)
    around leaves that pass ``kind``."""
    if not shape:
        return kind(value)
    return (
        isinstance(value, list)
        and shape[0] in (None, len(value))
        and all(_has_shape(v, shape[1:], kind) for v in value)
    )


def write_csv(report, path):
    """Two tables: one-line dataset summary, then per-agent attributions."""
    lines = [
        "env,n_agents,n_episodes,horizon,method,model,seed,y_fact,si,cs,ii"
    ]
    cfg = report["config"]
    em = report["emergence"]
    lines.append(
        ",".join(
            str(v)
            for v in [
                cfg["env"],
                report["n_agents"],
                report["n_episodes"],
                report["horizon"],
                cfg["method"],
                cfg["model"],
                cfg["seed"],
                repr(report["y_fact"]),
                repr(em["si"]),
                repr(em["cs"]),
                repr(em["ii"]),
            ]
        )
    )
    lines.append("")
    lines.append("agent,phi,phi_hat,ci_low,ci_high,rank")
    ci = report["ci"]
    for i in range(report["n_agents"]):
        lines.append(
            ",".join(
                [
                    str(i + 1),
                    repr(report["phi"][i]),
                    repr(report["phi_hat"][i]),
                    repr(ci["lows"][i]),
                    repr(ci["highs"][i]),
                    str(report["ranks"][i]),
                ]
            )
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_plotdata(report, path):
    """Runtime breakdown, one row per displayed stage (collective metrics
    fold into the individual-effects row)."""
    t = report["timings_ns"]
    lines = ["step,label,ns"]
    for step in ("1", "2", "3", "4", "5", "6", "7"):
        ns = t[step] + (t["3.5"] if step == "3" else 0)
        lines.append(f"{step},{PLOTDATA_LABELS[step]},{ns}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# the benchmark's round-trip check calls the renderer by this name
explanation_from_report = build_explanation


# -- warmup and benchmarks -----------------------------------------------------------


def warmup(env_names=None):
    """Run each environment's rollout and a tiny tree fit once.

    A timed run then starts warm: first-call costs (lazy imports, numpy
    dispatch) are paid here.
    """
    rng = np.random.default_rng(0)
    for name in env_names or list_envs():
        env = make_env(name)
        s0 = env.initial_state(rng)
        policies = (p[None] for p in policy_arrays(default_policies(env.n_agents)))
        act_u = rng.random((1, 2, env.n_agents, 2))  # one row, two steps
        env_u = np.zeros(act_u.shape)
        if env.uses_env_uniforms:
            env_u = rng.random(act_u.shape)
        kernels.rollout(env, s0[None], *policies, act_u, env_u)
    X = rng.random((20, 3))
    TreeEnsemble(n_trees=2, max_depth=2).fit(X, rng.random(20), rng).predict(X)


def bench_k_convergence(ks=(3, 5, 10, 20), seed=42, env="gridworld", b=100):
    """Bootstrap standard error of the naive effects as K grows."""
    rows = []
    for k in ks:
        config = RunConfig(env=env, method="naive_cf", k=k, b=b, seed=seed)
        report = run_pipeline(config)
        se = report["ci"]["se"]
        rows.append({"k": k, "se": se, "mean_se": float(np.mean(se))})
    return rows

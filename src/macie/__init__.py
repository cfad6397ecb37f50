"""Causal attribution and emergence analysis for multi-agent episodes.

Turn episode histories (simulated or ingested) into per-agent causal
attributions, collective emergence metrics, and human-readable
explanations, backed by interventional counterfactual replays and Shapley
values over coalition outcomes.
"""

from .attribution import (
    BootstrapResult,
    CoalitionValues,
    EffectResult,
    GameValues,
    agent_ranks,
    bootstrap_ci,
    bootstrap_indices,
    compare_agents,
    contribution_percentages,
    efficiency_gap,
    normalize_contributions,
    rank_agents,
    sample_permutations,
    shapley_exact,
    shapley_mc,
)
from .collective import (
    EmergenceMetrics,
    coordination_score,
    emergence_metrics,
    pairwise_conditional_mi,
    synergy_index,
    synergy_matrix,
)
from .core import (
    CUMULATIVE_TEAM_REWARD,
    OUTCOME_KINDS,
    TERMINAL_SUCCESS,
    ConfigError,
    Episode,
    History,
    MacieError,
    OutcomeSpec,
    Step,
    read_log,
    rewards_outcome,
    rewards_trace,
    write_log,
)
from .counterfactual import CounterfactualEngine, critical_timesteps
from .envs import Environment, env_description, list_envs, make_env
from .explain import Explanation, build_explanation
from .policies import (
    BaselinePolicy,
    ConstantPolicy,
    SkillPolicy,
    default_alphas,
    default_policies,
)
from .report import (
    RunConfig,
    read_report,
    run_pipeline,
    warmup,
    write_csv,
    write_plotdata,
    write_report,
)
from .rng import SeedTree, derive_stream
from .scm import StructuralCausalModel
from .trees import TreeEnsemble

__version__ = "0.1.0"

__all__ = [
    "BaselinePolicy",
    "BootstrapResult",
    "CUMULATIVE_TEAM_REWARD",
    "CoalitionValues",
    "ConfigError",
    "ConstantPolicy",
    "CounterfactualEngine",
    "EffectResult",
    "EmergenceMetrics",
    "Environment",
    "Episode",
    "Explanation",
    "GameValues",
    "History",
    "MacieError",
    "OUTCOME_KINDS",
    "OutcomeSpec",
    "RunConfig",
    "SeedTree",
    "SkillPolicy",
    "Step",
    "StructuralCausalModel",
    "TERMINAL_SUCCESS",
    "TreeEnsemble",
    "agent_ranks",
    "bootstrap_ci",
    "bootstrap_indices",
    "build_explanation",
    "compare_agents",
    "contribution_percentages",
    "coordination_score",
    "critical_timesteps",
    "default_alphas",
    "default_policies",
    "derive_stream",
    "efficiency_gap",
    "emergence_metrics",
    "env_description",
    "list_envs",
    "make_env",
    "normalize_contributions",
    "pairwise_conditional_mi",
    "rank_agents",
    "read_log",
    "read_report",
    "rewards_outcome",
    "rewards_trace",
    "run_pipeline",
    "sample_permutations",
    "shapley_exact",
    "shapley_mc",
    "synergy_index",
    "synergy_matrix",
    "warmup",
    "write_csv",
    "write_log",
    "write_plotdata",
    "write_report",
]

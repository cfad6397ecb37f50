"""Agent policies used by the built-in simulators.

A policy is described to a rollout by three scalars per agent: a kind
(0 skill-mix, 1 uniform, 2 constant), a greedy probability, and a fixed
action. ``select_actions`` is the one statement of how those scalars and
two uniforms pick an action; rollouts apply it to whole batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError

KIND_SKILL = 0
KIND_UNIFORM = 1
KIND_CONSTANT = 2


@dataclass(frozen=True)
class SkillPolicy:
    """Greedy with probability ``alpha``, uniform random otherwise."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")

    kind = KIND_SKILL


@dataclass(frozen=True)
class BaselinePolicy:
    """Uniform random over the action space; the default intervention."""

    kind = KIND_UNIFORM


@dataclass(frozen=True)
class ConstantPolicy:
    """Always plays one fixed action; handy for deterministic checks."""

    action: int

    def __post_init__(self):
        if self.action < 0:
            raise ConfigError(f"action must be >= 0, got {self.action}")

    kind = KIND_CONSTANT


def default_alphas(n_agents):
    """Skill spread 0.70..0.80: agent i gets 0.70 + 0.10 * i / (n - 1)."""
    if n_agents < 1:
        raise ConfigError(f"n_agents must be >= 1, got {n_agents}")
    if n_agents == 1:
        return np.array([0.70])
    i = np.arange(n_agents, dtype=np.float64)
    return 0.70 + 0.10 * i / (n_agents - 1)


def default_policies(n_agents, alphas=None):
    if alphas is None:
        alphas = default_alphas(n_agents)
    if len(alphas) != n_agents:
        raise ConfigError(
            f"expected {n_agents} alphas, got {len(alphas)}"
        )
    return [SkillPolicy(float(a)) for a in alphas]


def policy_arrays(policies):
    """Pack policies into the (kinds, alphas, consts) arrays rollouts expect."""
    n = len(policies)
    kinds = np.zeros(n, dtype=np.int64)
    alphas = np.zeros(n)
    consts = np.zeros(n, dtype=np.int64)
    for i, p in enumerate(policies):
        kinds[i] = p.kind
        if p.kind == KIND_SKILL:
            alphas[i] = p.alpha
        elif p.kind == KIND_CONSTANT:
            consts[i] = p.action
    return kinds, alphas, consts


def select_actions(kinds, alphas, consts, greedy, u, n_actions):
    """Actions picked by policy specs from two uniforms each.

    Constant policies play ``consts``; skill policies play ``greedy`` when
    ``u[..., 0] < alphas``; every other case plays the uniform slot
    ``int(u[..., 1] * n_actions)``. All arguments share the leading shape
    of ``kinds``; ``u`` adds a last axis of two.
    """
    uniform = (u[..., 1] * n_actions).astype(np.int64)
    skilled = (kinds == KIND_SKILL) & (u[..., 0] < alphas)
    return np.where(
        kinds == KIND_CONSTANT, consts, np.where(skilled, greedy, uniform)
    )

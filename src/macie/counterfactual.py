"""Interventional rollouts against factual episodes.

Every simulation draws from named substreams of one master seed:

- ``reset``/episode: initial conditions, shared by factual, counterfactual,
  and coalition runs (interventions never change where an episode starts);
- ``env``/episode/replicate: environment noise;
- ``act``/episode/agent/replicate: that agent's action uniforms.

Replicate 0 is the factual draw. Counterfactual sample k for agent i swaps
in the baseline policy for i and moves only agent i's stream and the
environment stream to replicate k, so the other agents keep their factual
randomness (common random numbers). Because replicate 0 is shared, an
"intervention" that installs a policy identical to the factual one
reproduces the factual episode bit for bit, and the grand coalition
evaluates exactly to the factual outcome.

Two propagation modes: ``env_resim`` replays through the real simulator;
``scm_rollout`` replays through the fitted structural model, which also
works for ingested histories with no simulator attached.

A replay is a row ``(episode, baseline agents, agent reps, env rep)``. The
replays of each intervened agent form one list of rows over (episode,
sample), and the coalitions one over (episode, coalition); both modes run
such a list in chunks of ``REPLAY_CHUNK`` rows. ``env_resim`` simulates a
chunk as one batched rollout, the factual episodes too. ``scm_rollout``
steps a chunk through the structural model with one prediction per node
and step: each row starts from its factual episode's first state, the
baseline agents draw uniform actions and the model predicts the others.
Each stream is derived once per run: the ones several rows read are kept on
the engine, and a later replicate of one agent's actions, which only its
own replay reads, is drawn where it is used.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConfigError,
    Episode,
    History,
    MacieError,
    OutcomeSpec,
    Step,
    episode_outcome,
    padded_trace,
    rewards_outcome,
    rewards_trace,
)
from .policies import BaselinePolicy, policy_arrays
from .rng import SeedTree

MODES = ("env_resim", "scm_rollout")
DEFAULT_EPSILON_FRAC = 0.1
# Rows per replay rollout: wide enough that numpy's per-call cost spreads
# over many episodes, narrow enough that a chunk's recorded trajectories
# (about 0.5 MB for coopnav) add little to peak memory.
REPLAY_CHUNK = 128


def critical_timesteps(fact_trace, cf_trace, epsilon):
    """1-based steps where the counterfactual trace leaves the factual one."""
    diff = np.abs(np.asarray(cf_trace) - np.asarray(fact_trace))
    return [int(t) + 1 for t in np.nonzero(diff > epsilon)[0]]


@dataclass
class CFSample:
    """One counterfactual replay for one intervened agent."""

    agent: int
    k: int
    y_cf: float
    trace: np.ndarray
    critical: list[int] = field(default_factory=list)


@dataclass
class AgentCF:
    """Counterfactual summary for one agent on one episode."""

    agent: int
    y_fact: float
    y_cf_mean: float
    samples: list[CFSample]
    critical: list[int]


class CounterfactualEngine:
    """Simulates factual, intervened, and coalition episodes on demand."""

    def __init__(
        self,
        seed_tree: SeedTree,
        outcome: OutcomeSpec,
        env=None,
        policies=None,
        history: History | None = None,
        mode="env_resim",
        scm=None,
        baseline=None,
        epsilon_frac=DEFAULT_EPSILON_FRAC,
    ):
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}; choose from {', '.join(MODES)}")
        if env is None and history is None:
            raise ConfigError("need an environment or an ingested history")
        if env is None and mode == "env_resim":
            raise ConfigError(
                "env_resim mode needs an environment; ingested histories "
                "can only use scm_rollout"
            )
        if env is not None and policies is None:
            raise ConfigError("simulating an environment needs policies")
        if env is not None and policies is not None and len(policies) != env.n_agents:
            raise ConfigError(
                f"{env.name} has {env.n_agents} agents, got {len(policies)} policies"
            )
        if epsilon_frac <= 0:
            raise ConfigError(f"epsilon_frac must be > 0, got {epsilon_frac}")
        if history is not None and env is None:
            horizons = {ep.horizon for ep in history.episodes}
            if len(horizons) > 1:
                raise MacieError(
                    f"ingested episodes disagree on horizon: {sorted(horizons)}"
                )
        self.tree = seed_tree
        self.outcome = outcome
        self.env = env
        self.policies = list(policies) if policies is not None else None
        self.history = history
        self.mode = mode
        self.scm = scm
        self.baseline = baseline if baseline is not None else BaselinePolicy()
        self.epsilon_frac = epsilon_frac
        self._factual: dict[int, Episode] = {}
        self._coalitions: dict[tuple, float] = {}
        self._draws: dict[tuple, np.ndarray] = {}
        # replay batches of different agents may run on a thread pool
        self._draws_lock = threading.Lock()

    # -- basic dimensions ----------------------------------------------------

    @property
    def n_agents(self):
        if self.env is not None:
            return self.env.n_agents
        return self.history.n_agents

    @property
    def horizon(self):
        if self.env is not None:
            return self.env.horizon
        return self.history.episodes[0].horizon

    @property
    def n_actions(self):
        if self.env is not None:
            return self.env.n_actions
        return self.scm.n_actions

    # -- factual episodes ------------------------------------------------------

    def factual(self, e):
        return self.factuals([e])[0]

    def factuals(self, episodes):
        """Factual episodes by index; the uncached ones simulate as one batch."""
        missing = [e for e in dict.fromkeys(episodes) if e not in self._factual]
        if missing and self.history is not None:
            for e in missing:
                self._factual[e] = self.history.episodes[e]
        elif missing:
            n = self.n_agents
            rows = [(e, (), (0,) * n, 0) for e in missing]
            states, actions, rewards, team, length = self._replay(rows)
            for b, e in enumerate(missing):
                L = int(length[b])
                steps = [
                    Step(
                        state=states[b, t].copy(),
                        joint_action=actions[b, t].copy(),
                        rewards=rewards[b, t].copy(),
                        team_reward=float(team[b, t]),
                    )
                    for t in range(L)
                ]
                self._factual[e] = Episode(
                    steps=steps,
                    env_name=self.env.name,
                    seed=e,
                    horizon=self.env.horizon,
                    final_state=states[b, L].copy(),
                )
        return [self._factual[e] for e in episodes]

    def factual_outcome(self, e):
        return episode_outcome(self.factual(e), self.outcome)

    def generate_history(self, n_episodes):
        if self.env is None:
            raise MacieError("no environment attached; cannot generate episodes")
        eps = self.factuals(range(n_episodes))
        return History(
            episodes=eps, feature_names=list(self.env.feature_names)
        )

    # -- simulation --------------------------------------------------------------

    def _draw(self, draw, tag, *indices):
        """``draw(stream)`` for the stream keyed ``(tag, *indices)``, derived once."""
        key = (tag, *indices)
        with self._draws_lock:
            if key not in self._draws:
                self._draws[key] = draw(self.tree.stream(tag, *indices))
            return self._draws[key]

    def _act_draws(self, e, agent, rep):
        T = self.horizon
        if rep > 0:
            return self.tree.stream("act", e, agent, rep).random((T, 2))
        return self._draw(lambda g: g.random((T, 2)), "act", e, agent, rep)

    def _replay(self, rows):
        """Simulate rows of ``(episode, baseline agents, agent reps, env rep)``.

        Agents named in a row play the baseline policy, the others their
        factual policy; agent ``j`` draws from its replicate ``reps[j]`` and
        the environment from ``env_rep``. Returns the batched rollout.
        """
        env = self.env
        T, n, B = env.horizon, env.n_agents, len(rows)
        S0 = np.empty((B, env.state_dim))
        act_u = np.empty((B, T, n, 2))
        if env.uses_env_draws:
            env_u = np.empty((B, T, n, 2))
        else:
            env_u = np.broadcast_to(0.0, (B, T, n, 2))
        baseline = np.zeros((B, n), dtype=bool)
        for b, (e, swapped, reps, env_rep) in enumerate(rows):
            S0[b] = self._draw(env.initial_state, "reset", e)
            for j in range(n):
                act_u[b, :, j] = self._act_draws(e, j, reps[j])
            if env.uses_env_draws:
                env_u[b] = self._draw(lambda g: env.env_draws(g, T), "env", e, env_rep)
            baseline[b, list(swapped)] = True
        factual = policy_arrays(self.policies)
        swap = policy_arrays([self.baseline] * n)
        kinds, alphas, consts = (
            np.where(baseline, s, f) for f, s in zip(factual, swap)
        )
        return env.rollout_batch(S0, kinds, alphas, consts, act_u, env_u)

    def _replay_outcomes(self, rows):
        """``(trace, outcome)`` of each replayed row, without building steps."""
        out = []
        for start in range(0, len(rows), REPLAY_CHUNK):
            chunk = rows[start : start + REPLAY_CHUNK]
            if self.mode == "scm_rollout":
                out.extend(self._scm_outcomes(chunk))
                continue
            _, _, _, team, length = self._replay(chunk)
            for b in range(len(length)):
                rewards = team[b, : length[b]].tolist()
                out.append(
                    (
                        rewards_trace(rewards, self.horizon, self.outcome),
                        rewards_outcome(rewards, self.horizon, self.outcome),
                    )
                )
        return out

    def _scm_outcomes(self, rows):
        """``(trace, outcome)`` of rows replayed through the structural model.

        A row starts from its factual episode's first state and joint action
        and runs to the horizon. Agent ``j`` named in the row acts uniformly
        at random from its replicate ``reps[j]``; the model predicts every
        other action, the next state and the reward. The trace is the running
        reward sum and the outcome the model's ``y`` of the total.
        """
        scm = self.scm
        if scm is None:
            raise MacieError("scm_rollout mode needs a fitted structural model")
        T, n, B = self.horizon, self.n_agents, len(rows)
        facts = self.factuals([e for e, *_ in rows])
        S = np.array([f.steps[0].state for f in facts], dtype=np.float64)
        PA = np.array([f.steps[0].joint_action for f in facts], dtype=np.int64)
        uniform = np.zeros((B, n), dtype=bool)
        u = np.zeros((B, T, n))
        for b, (e, swapped, reps, _) in enumerate(rows):
            for j in swapped:
                uniform[b, j] = True
                u[b, :, j] = self._act_draws(e, j, reps[j])[:, 1]
        drawn = (u * scm.n_actions).astype(np.int64)
        rewards = np.empty((B, T))
        for t in range(T):
            A = drawn[:, t].copy()
            for j in range(n):
                free = ~uniform[:, j]
                if free.any():
                    A[free, j] = scm.predict_action(j, S[free], PA[free])
            NS = scm.predict_next_state(S, A)
            rewards[:, t] = scm.predict_reward(A, NS)
            S, PA = NS, A
        y = scm.predict_outcome([r.sum() for r in rewards])
        return [(np.cumsum(r), float(v)) for r, v in zip(rewards, y)]

    # -- counterfactuals -----------------------------------------------------------

    def epsilon(self, y_fact):
        return self.epsilon_frac * max(abs(y_fact), 1e-9)

    def intervene_and_rollout(self, e, agent, n_samples):
        """Replace one agent's policy with the baseline, K times."""
        return self.interventions(agent, [e], n_samples)[0]

    def interventions(self, agent, episodes, n_samples):
        """``intervene_and_rollout`` for each episode, as one replay batch."""
        if not 0 <= agent < self.n_agents:
            raise ConfigError(f"agent {agent} out of range (n={self.n_agents})")
        if n_samples < 1:
            raise ConfigError(f"need at least one sample, got {n_samples}")
        episodes = list(episodes)
        facts = self.factuals(episodes)
        rows = []
        for e in episodes:
            for k in range(n_samples):
                reps = [0] * self.n_agents
                reps[agent] = k
                rows.append((e, (agent,), reps, k))
        replays = self._replay_outcomes(rows)
        out = []
        for i, fact in enumerate(facts):
            y_fact = episode_outcome(fact, self.outcome)
            fact_trace = padded_trace(fact, self.outcome)
            eps = self.epsilon(y_fact)
            samples = [
                CFSample(
                    agent=agent,
                    k=k,
                    y_cf=y_cf,
                    trace=trace,
                    critical=critical_timesteps(fact_trace, trace, eps),
                )
                for k, (trace, y_cf) in enumerate(
                    replays[i * n_samples : (i + 1) * n_samples]
                )
            ]
            mean_trace = np.mean([s.trace for s in samples], axis=0)
            out.append(
                AgentCF(
                    agent=agent,
                    y_fact=y_fact,
                    y_cf_mean=float(np.mean([s.y_cf for s in samples])),
                    samples=samples,
                    critical=critical_timesteps(fact_trace, mean_trace, eps),
                )
            )
        return out

    # -- coalitions --------------------------------------------------------------

    def coalition_outcome(self, e, members):
        """Outcome with non-members swapped to the baseline policy."""
        return self.coalition_outcomes([(e, members)])[0]

    def coalition_outcomes(self, pairs):
        """``coalition_outcome`` of each (episode, members) pair.

        Pairs not yet cached replay as one list of rows.
        """
        keys = [(e, tuple(sorted(members))) for e, members in pairs]
        missing = [k for k in dict.fromkeys(keys) if k not in self._coalitions]
        for _, members in missing:
            bad = [i for i in members if not 0 <= i < self.n_agents]
            if bad:
                raise ConfigError(f"coalition members out of range: {bad}")
        n = self.n_agents
        rows = [
            (e, [j for j in range(n) if j not in members], (0,) * n, 0)
            for e, members in missing
        ]
        for key, (_, y) in zip(missing, self._replay_outcomes(rows)):
            self._coalitions[key] = y
        return [self._coalitions[k] for k in keys]

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

Factual episodes are rows of a :class:`macie.core.History`: an ingested
history is indexed, and simulated episodes are kept per engine as their
rows of the batched rollout, so each is simulated once. Factual outcomes,
traces, start states and first joint actions are read off those arrays.

A replay is a row: an episode, the agents swapped to the baseline policy,
each agent's replicate and the environment's replicate, held as arrays over
a row axis. The replays of each intervened agent form one set of rows over
(episode, sample), and the coalitions one over (episode, coalition); both
modes run such a set in chunks of ``REPLAY_CHUNK`` rows. ``env_resim``
simulates a chunk as one batched rollout, the factual episodes too.
``scm_rollout`` steps a chunk through the structural model with one
prediction per node and step: each row starts from its factual episode's
first state, the baseline agents draw uniform actions and the model
predicts the others.
Either mode reduces a chunk to arrays of traces and outcomes, and the
results stay arrays: :meth:`CounterfactualEngine.interventions` returns
``(y_cf[E, K], traces[E, K, T])`` for one agent over E episodes and K
samples, and ``intervene_and_rollout`` is its one-episode case.
``coalition_outcomes`` replays the pairs it is given and keeps nothing;
:class:`macie.attribution.CoalitionValues` is the one cache of coalition
values.

Each stream is derived once per run. What several rows read (an episode's
start, its replicate-0 action uniforms and its environment uniforms per
replicate) is kept on the engine, derived in one batch for the keys a chunk
first needs, and gathered into the chunk by indexing. A later replicate of
one agent's actions, which only its own replay reads, is drawn for the
whole chunk in one call of :func:`macie.rng.uniform_streams`.
"""

from __future__ import annotations

import numpy as np

from .core import (
    ConfigError,
    History,
    MacieError,
    OutcomeSpec,
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
        self.tree = seed_tree
        self.outcome = outcome
        self.env = env
        self.policies = list(policies) if policies is not None else None
        self.history = history
        self.mode = mode
        self.scm = scm
        self.baseline = baseline if baseline is not None else BaselinePolicy()
        self.epsilon_frac = epsilon_frac
        # simulated factual episodes: episode -> its rollout row
        # (states, actions, rewards, team, length)
        self._factual: dict[int, tuple] = {}
        # draws several rows read, by stream key: episode -> start state,
        # episode -> replicate-0 action uniforms [T, n, 2],
        # (episode, replicate) -> environment uniforms [T, n, 2]
        self._starts: dict[tuple, np.ndarray] = {}
        self._act0: dict[tuple, np.ndarray] = {}
        self._env_u: dict[tuple, np.ndarray] = {}

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
        return self.history.horizon

    @property
    def n_actions(self):
        if self.env is not None:
            return self.env.n_actions
        return self.scm.n_actions

    # -- factual episodes ------------------------------------------------------

    def factual(self, e):
        return self.factuals([e])

    def factuals(self, episodes):
        """Factual episodes by index, as the rows of a :class:`History`.

        An ingested history is indexed; simulated episodes are kept per
        engine, and the uncached ones simulate as one batch.
        """
        episodes = list(episodes)
        if self.history is not None:
            return self.history.take(episodes)
        missing = [e for e in dict.fromkeys(episodes) if e not in self._factual]
        if missing:
            n, B = self.n_agents, len(missing)
            run = self._replay(
                np.array(missing, dtype=np.int64),
                np.zeros((B, n), dtype=bool),
                np.zeros((B, n), dtype=np.int64),
                np.zeros(B, dtype=np.int64),
            )
            for b, e in enumerate(missing):
                self._factual[e] = [a[b] for a in run]
        rows = [self._factual[e] for e in episodes]
        return History(
            self.env.name,
            list(self.env.feature_names),
            *(np.array(a) for a in zip(*rows)),
            seeds=np.array(episodes, dtype=np.int64),
        )

    def factual_outcome(self, e):
        fact = self.factual(e)
        return float(rewards_outcome(fact.team, fact.length, self.outcome)[0])

    def generate_history(self, n_episodes):
        if self.env is None:
            raise MacieError("no environment attached; cannot generate episodes")
        if n_episodes < 1:
            raise ConfigError(f"need at least one episode, got {n_episodes}")
        return self.factuals(range(n_episodes))

    # -- simulation --------------------------------------------------------------

    def _gather(self, cache, keys, derive):
        """``cache[key]`` stacked for each row of ``keys[B, m]``.

        Keys not yet cached are derived together, ``derive(missing[M, m])``
        giving their ``M`` values, and kept.
        """
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        uniq = [tuple(k) for k in uniq.tolist()]
        missing = [k for k in uniq if k not in cache]
        if missing:
            cache.update(zip(missing, derive(np.array(missing, dtype=np.int64))))
        return np.stack([cache[k] for k in uniq])[inverse.reshape(-1)]

    def _act_uniforms(self, episodes, reps):
        """Action uniforms ``[B, T, n, 2]``: agent ``j`` of row ``b`` at ``reps[b, j]``.

        Replicate 0, which the factual run and most replays read, is kept per
        episode; the later replicates of a chunk are drawn in one call.
        """
        T, n = self.horizon, self.n_agents

        def replicate0(keys):
            streams = [(e, j, 0) for e in keys[:, 0] for j in range(n)]
            u = self.tree.uniforms("act", streams, 2 * T)
            return u.reshape(len(keys), n, T, 2).transpose(0, 2, 1, 3)

        act_u = self._gather(self._act0, episodes[:, None], replicate0)
        rows, agents = np.nonzero(reps)
        if len(rows):
            streams = np.stack([episodes[rows], agents, reps[rows, agents]], axis=1)
            u = self.tree.uniforms("act", streams, 2 * T)
            act_u[rows, :, agents] = u.reshape(-1, T, 2)
        return act_u

    def _replay(self, episodes, baseline, reps, env_rep):
        """Simulate rows: episode ``episodes[b]`` with ``baseline[b, j]`` swapped.

        Agents marked in ``baseline[B, n]`` play the baseline policy, the
        others their factual policy; agent ``j`` draws from its replicate
        ``reps[b, j]`` and the environment from ``env_rep[b]``. Returns the
        batched rollout.
        """
        env = self.env
        T, n, B = env.horizon, env.n_agents, len(episodes)

        def starts(keys):
            return [env.initial_state(self.tree.stream("reset", e)) for e in keys[:, 0]]

        def env_uniforms(keys):
            return self.tree.uniforms("env", keys, T * n * 2).reshape(-1, T, n, 2)

        S0 = self._gather(self._starts, episodes[:, None], starts)
        act_u = self._act_uniforms(episodes, reps)
        if env.uses_env_draws:
            keys = np.stack([episodes, env_rep], axis=1)
            env_u = self._gather(self._env_u, keys, env_uniforms)
        else:
            env_u = np.broadcast_to(0.0, (B, T, n, 2))
        factual = policy_arrays(self.policies)
        swap = policy_arrays([self.baseline] * n)
        kinds, alphas, consts = (
            np.where(baseline, s, f) for f, s in zip(factual, swap)
        )
        return env.rollout_batch(S0, kinds, alphas, consts, act_u, env_u)

    def _replay_outcomes(self, episodes, baseline, reps, env_rep):
        """``(traces[B, T], outcomes[B])`` of replayed rows (see :meth:`_replay`)."""
        traces, outcomes = [], []
        for start in range(0, len(episodes), REPLAY_CHUNK):
            chunk = [
                a[start : start + REPLAY_CHUNK]
                for a in (episodes, baseline, reps, env_rep)
            ]
            if self.mode == "scm_rollout":
                trace, y = self._scm_outcomes(*chunk[:3])
            else:
                _, _, _, team, length = self._replay(*chunk)
                trace = rewards_trace(team, length, self.outcome)
                y = rewards_outcome(team, length, self.outcome)
            traces.append(trace)
            outcomes.append(y)
        return np.concatenate(traces), np.concatenate(outcomes)

    def _scm_outcomes(self, episodes, baseline, reps):
        """``(traces[B, T], outcomes[B])`` of rows replayed through the model.

        A row starts from its factual episode's first state and joint action
        and runs to the horizon. Agent ``j`` swapped in the row acts uniformly
        at random from its replicate ``reps[b, j]``; the model predicts every
        other action, the next state and the reward. The trace is the running
        reward sum and the outcome the model's ``y`` of the total.
        """
        scm = self.scm
        if scm is None:
            raise MacieError("scm_rollout mode needs a fitted structural model")
        T, n, B = self.horizon, self.n_agents, len(episodes)
        facts = self.factuals(episodes.tolist())
        S, PA = facts.states[:, 0], facts.actions[:, 0]
        u = self._act_uniforms(episodes, reps)[..., 1]
        drawn = (u * scm.n_actions).astype(np.int64)
        rewards = np.empty((B, T))
        for t in range(T):
            A = drawn[:, t].copy()
            for j in range(n):
                free = ~baseline[:, j]
                if free.any():
                    A[free, j] = scm.predict_action(j, S[free], PA[free])
            NS = scm.predict_next_state(S, A)
            rewards[:, t] = scm.predict_reward(A, NS)
            S, PA = NS, A
        y = scm.predict_outcome([r.sum() for r in rewards])
        return np.cumsum(rewards, axis=1), np.asarray(y, dtype=np.float64)

    # -- counterfactuals -----------------------------------------------------------

    def epsilon(self, y_fact):
        return self.epsilon_frac * max(abs(y_fact), 1e-9)

    def intervene_and_rollout(self, e, agent, n_samples):
        """Replace one agent's policy with the baseline, K times.

        Returns ``(y_cf[K], traces[K, T])`` for episode ``e``.
        """
        y_cf, traces = self.interventions(agent, [e], n_samples)
        return y_cf[0], traces[0]

    def interventions(self, agent, episodes, n_samples):
        """``intervene_and_rollout`` for each episode, as one replay batch.

        Returns ``(y_cf[E, K], traces[E, K, T])``: sample ``k`` of episode
        ``episodes[i]`` swaps ``agent`` to the baseline at replicate ``k``.
        """
        if not 0 <= agent < self.n_agents:
            raise ConfigError(f"agent {agent} out of range (n={self.n_agents})")
        if n_samples < 1:
            raise ConfigError(f"need at least one sample, got {n_samples}")
        episodes = np.array(list(episodes), dtype=np.int64)
        n, E, K = self.n_agents, len(episodes), n_samples
        samples_k = np.tile(np.arange(K, dtype=np.int64), E)
        baseline = np.zeros((E * K, n), dtype=bool)
        baseline[:, agent] = True
        reps = np.zeros((E * K, n), dtype=np.int64)
        reps[:, agent] = samples_k
        traces, y_cf = self._replay_outcomes(
            np.repeat(episodes, K), baseline, reps, samples_k
        )
        return y_cf.reshape(E, K), traces.reshape(E, K, -1)

    # -- coalitions --------------------------------------------------------------

    def coalition_outcome(self, e, members):
        """Outcome with non-members swapped to the baseline policy."""
        return float(self.coalition_outcomes([(e, members)])[0])

    def coalition_outcomes(self, pairs):
        """``coalition_outcome`` of each (episode, members) pair, as one
        replay batch returning ``y[B]``;
        :class:`macie.attribution.CoalitionValues` keeps them.
        """
        n, B = self.n_agents, len(pairs)
        baseline = np.ones((B, n), dtype=bool)
        for b, (_, members) in enumerate(pairs):
            bad = [i for i in members if not 0 <= i < n]
            if bad:
                raise ConfigError(f"coalition members out of range: {bad}")
            baseline[b, list(members)] = False
        _, y = self._replay_outcomes(
            np.array([e for e, _ in pairs], dtype=np.int64),
            baseline,
            np.zeros((B, n), dtype=np.int64),
            np.zeros(B, dtype=np.int64),
        )
        return y

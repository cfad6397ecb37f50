"""Interventional rollouts against factual episodes.

Every simulation draws from named substreams of one master seed:
``reset``/episode gives the start state, shared by every run of an episode;
``env``/episode/replicate the environment noise; and
``act``/episode/agent/replicate one agent's action uniforms.

A replay is a row (S, e, k) of the coalition game: coalition S, the agents
that keep their policies, on episode e at replicate k. The agents outside S
play the baseline policy and draw from replicate k, and so does the
environment; the members draw from replicate 0, the factual draw (common
random numbers). Sample k of agent i's intervention is the row
(N minus i, e, k), and the value of S on episode e is (S, e, 0). So an
intervention that installs a policy identical to the factual one
reproduces the factual episode bit for bit, and the row (N, e, 0) is the
factual episode: with no model attached, the grand coalition is read off
the factual run instead of replayed.

:meth:`CounterfactualEngine.replay` is the one entry point: it replays the
rows of the coalitions it is given, each with its replicate count, as one
row set, builds each row once, and traces only the rows of the coalitions
it is asked to trace. ``intervene_and_rollout`` and ``coalition_outcome``
are its one-episode reads. The engine keeps no outcome;
:class:`macie.attribution.CoalitionValues` is the one table of them.

The engine holds its factual run as one :class:`macie.core.History`: an
ingested history, or the episodes 0..max it simulated as one batched
rollout of whole trajectories. Factual outcomes, traces, start states and
first joint actions are read off its arrays.

A row set replays through the engine's world: the fitted structural model
when one is attached (``scm_rollout``), the simulator otherwise
(``env_resim``). It runs in ceil(B / ``REPLAY_CHUNK``) batches of equal
size (give or take one row), each batch one run of
:func:`macie.envs.kernels.rollout` that records only the team reward and
the length, which is all an outcome and a trace read. The model has the
simulator's stepping interface, so it also serves ingested histories with
no simulator: each row starts from its factual episode's first state and
first joint action, the factual agents play the model's action nodes, the
baseline agents play the engine's baseline, and a row ends where the
model's ``done`` node ends it. Outcomes and traces are read off the
replayed rewards and lengths alike in both worlds. A row reads only its
own streams, so the split into batches never changes a result.

Each stream is derived once per run. Beside its history the engine keeps
only the replicate-0 uniforms that the factual run shares with every
replay, as ``[E, T, n, 2]`` arrays: the actions', and the environment's
where the simulator reads them. They grow with the factual run, one call
of :func:`macie.rng.uniform_streams` each, and only that run derives the
``reset`` streams, since a replay starts from the history's first state.
The environment's later replicates are drawn once per row set, in one call
for its distinct (episode, replicate) keys; an agent's later replicates,
which only its own row reads, are drawn for each batch in one call.
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
from .envs import kernels
from .policies import BaselinePolicy, ConstantPolicy, SkillPolicy, policy_arrays
from .rng import SeedTree

DEFAULT_EPSILON_FRAC = 0.1
# Most rows per replay batch. A replay step costs a few dozen numpy calls
# whatever the batch width, so wide batches spread that cost over many rows;
# a batch's working set (its action and environment uniforms, 0.3 MB for a
# three-agent team at 384 rows) bounds how wide they may be.
REPLAY_CHUNK = 384


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
        scm=None,
        baseline=None,
        epsilon_frac=DEFAULT_EPSILON_FRAC,
    ):
        if env is None and history is None:
            raise ConfigError("need an environment or an ingested history")
        if env is not None and policies is None:
            raise ConfigError("simulating an environment needs policies")
        if env is not None and policies is not None and len(policies) != env.n_agents:
            raise ConfigError(
                f"{env.name} has {env.n_agents} agents, got {len(policies)} policies"
            )
        if epsilon_frac <= 0:
            raise ConfigError(f"epsilon_frac must be > 0, got {epsilon_frac}")
        baseline = baseline if baseline is not None else BaselinePolicy()
        if env is not None:
            _check_constant_actions([*policies, baseline], env.n_actions, env.name)
        self.tree = seed_tree
        self.outcome = outcome
        self.env = env
        self.policies = list(policies) if policies is not None else None
        self.history = history
        self.scm = scm
        self.baseline = baseline
        self.epsilon_frac = epsilon_frac
        # the replicate-0 uniforms [E, T, n, 2] of the episodes the history
        # holds, which the factual run shares with every replay: the
        # actions', and the environment's where the simulator reads them
        T, n = self.horizon, self.n_agents
        self._act_draws = np.empty((0, T, n, 2))
        self._env_draws = np.empty((0, T, n, 2))

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

    # -- factual episodes ------------------------------------------------------

    def factuals(self, episodes):
        """Factual episodes by index, as rows of the engine's history.

        An engine with a simulator keeps what it simulates as its history;
        asked for an episode it has not simulated, it simulates episodes
        0..max as one batch. The replicate-0 draws grow to 0..max with it.
        """
        episodes = list(episodes)
        T, n = self.horizon, self.n_agents
        new = np.arange(len(self._act_draws), max(episodes) + 1)
        if len(new):
            keys = [(e, j, 0) for e in new for j in range(n)]
            u = self.tree.uniforms("act", keys, 2 * T)
            u = u.reshape(-1, n, T, 2).transpose(0, 2, 1, 3)
            self._act_draws = np.concatenate([self._act_draws, u])
        if self.env is not None and len(new):
            if self.env.uses_env_uniforms:
                keys = [(e, 0) for e in new]
                u = self.tree.uniforms("env", keys, T * n * 2).reshape(-1, T, n, 2)
                self._env_draws = np.concatenate([self._env_draws, u])
            S0 = [] if self.history is None else [*self.history.states[:, 0]]
            S0 += [self.env.initial_state(self.tree.stream("reset", e)) for e in new]
            # the factual run is the rows (N, e, 0), replayed whole
            rows = self._rows(np.arange(new[-1] + 1), {tuple(range(n)): 1})[:3]
            self.history = History(
                self.env.name,
                list(self.env.feature_names),
                *self._replay(self.env, np.array(S0), *rows, self._env_draws),
            )
        return self.history.take(episodes)

    def generate_history(self, n_episodes):
        if self.env is None:
            raise MacieError("no environment attached; cannot generate episodes")
        if n_episodes < 1:
            raise ConfigError(f"need at least one episode, got {n_episodes}")
        return self.factuals(range(n_episodes))

    # -- simulation --------------------------------------------------------------

    def _replay(self, world, S0, episodes, baseline, reps, env_u, trajectory=True):
        """Simulate rows: episode ``episodes[b]`` from ``S0[b]`` with
        ``baseline[b, j]`` swapped.

        ``world`` is the simulator or the fitted structural model. Agents
        marked in ``baseline[B, n]`` play the baseline policy, the others
        their factual policy, which in the model is its action node. Agent
        ``j`` draws from its replicate ``reps[b, j]``: replicate 0 is read
        off the kept draws, and the later ones of the batch are drawn in one
        call. A world that reads environment uniforms reads ``env_u[B, T, n,
        2]``. Returns the batched rollout, only ``(team, length)`` without
        ``trajectory``.
        """
        T, n, B = self.horizon, self.n_agents, len(episodes)
        act_u = self._act_draws[episodes]
        rows, agents = np.nonzero(reps)
        if len(rows):
            streams = np.stack([episodes[rows], agents, reps[rows, agents]], axis=1)
            u = self.tree.uniforms("act", streams, 2 * T)
            act_u[rows, :, agents] = u.reshape(-1, T, 2)
        if not world.uses_env_uniforms:
            env_u = np.broadcast_to(0.0, (B, T, n, 2))
        factual = self.policies if world is self.env else [SkillPolicy(1.0)] * n
        swap = policy_arrays([self.baseline] * n)
        kinds, alphas, consts = (
            np.where(baseline, s, f) for f, s in zip(policy_arrays(factual), swap)
        )
        return kernels.rollout(
            world, S0, kinds, alphas, consts, act_u, env_u, trajectory=trajectory
        )

    def _replay_outcomes(self, rows, traced):
        """``(traces[traced, T], outcomes[B])`` of the replay ``rows``.

        ``rows`` is ``(episodes, baseline, reps, env_rep)`` over B rows, as
        :meth:`_rows` gives them, and only the first ``traced`` rows get a
        trace. A row starts from its episode's factual first state, and in
        the model from its first joint action too. The rows run in
        ceil(B / ``REPLAY_CHUNK``) batches whose sizes differ by one at most.
        """
        world = self._world()
        episodes, baseline, reps, env_rep = rows
        T, n, B = self.horizon, self.n_agents, len(episodes)
        self.factuals([episodes.max()])  # the history then holds every row's episode
        S0 = self.history.states[:, 0]
        if world is not self.env:
            S0 = np.concatenate([S0, self.history.actions[:, 0]], axis=1)
        env_u = None
        if world.uses_env_uniforms:
            # each (episode, replicate) key once: replicate 0 is kept, and the
            # later ones are drawn for this row set alone
            keys, inverse = np.unique(
                np.stack([episodes, env_rep], axis=1), axis=0, return_inverse=True
            )
            inverse = inverse.ravel()  # numpy 2.0.0 shapes it [B, 1]
            table = self._env_draws[keys[:, 0]]
            later = keys[:, 1] > 0
            u = self.tree.uniforms("env", keys[later], T * n * 2)
            table[later] = u.reshape(-1, T, n, 2)
        n_batches = -(-B // REPLAY_CHUNK)
        bounds = [B * i // n_batches for i in range(n_batches + 1)]
        traces, outcomes = [], []
        for lo, hi in zip(bounds, bounds[1:]):
            e = episodes[lo:hi]
            if world.uses_env_uniforms:
                env_u = table[inverse[lo:hi]]
            m = min(max(traced - lo, 0), hi - lo)
            team, length = self._replay(
                world, S0[e], e, baseline[lo:hi], reps[lo:hi], env_u, trajectory=False
            )
            traces.append(rewards_trace(team[:m], length[:m], self.outcome))
            outcomes.append(rewards_outcome(team, length, self.outcome))
        return np.concatenate(traces), np.concatenate(outcomes)

    def _world(self):
        """What replays step: the attached structural model, once every
        constant policy's action is checked against its action space, or
        else the simulator."""
        if self.scm is not None:
            policies = [*(self.policies or []), self.baseline]
            _check_constant_actions(policies, self.scm.n_actions, "the fitted model")
            return self.scm
        if self.env is None:
            raise MacieError("an ingested history replays only through a fitted model")
        return self.env

    # -- counterfactuals -----------------------------------------------------------

    def epsilon(self, y_fact):
        return self.epsilon_frac * max(abs(y_fact), 1e-9)

    def replay(self, episodes, coalitions, traced=()):
        """Replay the rows (S, e, k) of ``coalitions`` on ``episodes`` as one
        row set.

        ``coalitions`` maps each coalition S, the agents that keep their
        policies, to its replicate count K_S; every row is built once.
        Returns ``(y, traces)``: ``y[S]`` is ``[E, K_S]`` and ``traces[S]``
        is ``[E, K_S, T]`` for each S in ``traced``, the only rows traced.
        With no model attached the row (N, e, 0) is the factual episode,
        bit for bit, so a grand coalition asked for at one replicate is read
        off the factual run instead of replayed.
        """
        episodes = np.array(list(episodes), dtype=np.int64)
        E, grand = len(episodes), tuple(range(self.n_agents))
        ys, traces = {}, {}
        if self.scm is None and coalitions.get(grand) == 1:
            facts = self.factuals(episodes)
            ys[grand] = rewards_outcome(facts.team, facts.length, self.outcome)[:, None]
            if grand in traced:
                trace = rewards_trace(facts.team, facts.length, self.outcome)
                traces[grand] = trace[:, None]
            coalitions = {S: K for S, K in coalitions.items() if S != grand}
        if not coalitions:
            return ys, traces
        # traced rows first, so that they are a prefix of the row set
        coalitions = dict(sorted(coalitions.items(), key=lambda c: c[0] not in traced))
        trace, y = self._replay_outcomes(
            self._rows(episodes, coalitions),
            E * sum(K for S, K in coalitions.items() if S in traced),
        )
        lo = 0
        for S, K in coalitions.items():
            ys[S] = y[lo : lo + E * K].reshape(E, K)
            if S in traced:
                traces[S] = trace[lo : lo + E * K].reshape(E, K, -1)
            lo += E * K
        return ys, traces

    def _rows(self, episodes, coalitions):
        """Replay rows (S, e, k) over ``coalitions`` ({S: K_S}) x ``episodes``
        x replicates ``k < K_S``, in that order: the agents outside S play
        the baseline and draw from replicate k, and so does the environment;
        the members draw from replicate 0."""
        n, E = self.n_agents, len(episodes)
        masks = np.ones((len(coalitions), n), dtype=bool)
        for c, (members, count) in enumerate(coalitions.items()):
            bad = [i for i in members if not 0 <= i < n]
            if bad:
                raise ConfigError(f"coalition members out of range: {bad}")
            if count < 1:
                raise ConfigError(f"need at least one sample, got {count}")
            masks[c, list(members)] = False
        counts = np.fromiter(coalitions.values(), dtype=np.int64)
        sizes = E * counts
        which = np.repeat(np.arange(len(counts)), sizes)
        K = counts[which]
        offset = np.arange(len(which)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        k = offset % K
        baseline = masks[which]
        return episodes[offset // K], baseline, np.where(baseline, k[:, None], 0), k

    def intervene_and_rollout(self, e, agent, n_samples):
        """Replace one agent's policy with the baseline, K times: the rows
        (N minus the agent, e, k).

        Returns ``(y_cf[K], traces[K, T])`` for episode ``e``.
        """
        S = leave_one_out(self.n_agents, agent)
        y, traces = self.replay([e], {S: n_samples}, traced=[S])
        return y[S][0], traces[S][0]

    def coalition_outcome(self, e, members):
        """Outcome with non-members swapped to the baseline policy: the row
        (members, e, 0)."""
        y, _ = self.replay([e], {tuple(members): 1})
        return float(y[tuple(members)][0, 0])


def _check_constant_actions(policies, n_actions, where):
    for p in policies:
        if isinstance(p, ConstantPolicy) and p.action >= n_actions:
            raise ConfigError(f"constant action {p.action} out of range for {where}")


def leave_one_out(n_agents, agent):
    """The coalition of every agent but ``agent``."""
    if not 0 <= agent < n_agents:
        raise ConfigError(f"agent {agent} out of range (n={n_agents})")
    return tuple(j for j in range(n_agents) if j != agent)

"""Per-agent credit assignment over episode histories.

Two estimators share one coalition-value abstraction: the naive
counterfactual effect (factual outcome minus the mean outcome with one
agent swapped to baseline) and Shapley values over the coalition game
v(S) = outcome when exactly the agents in S keep their policies.
:class:`CoalitionValues` is the one cache of coalition values: per
coalition, one vector over episodes, so Shapley enumeration, Monte Carlo
permutations, and bootstrap resampling all reuse the same simulations
instead of re-running them.

:func:`run_interventions` replays every agent's interventions, and when
asked every coalition, as one row set; it returns the replays as arrays,
``y_cf[N, E, K]`` and ``traces[N, E, K, T]``, and
:func:`effects_from_interventions` reduces them without a per-sample loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, floor

import numpy as np

from .core import ConfigError, MacieError, rewards_outcome, rewards_trace
from .counterfactual import critical_timesteps

EXACT_SHAPLEY_LIMIT = 12


class CoalitionValues:
    """Per-episode coalition outcomes from an engine, memoized."""

    def __init__(self, engine, n_episodes):
        if n_episodes < 1:
            raise ConfigError(f"need at least one episode, got {n_episodes}")
        self.engine = engine
        self.n_agents = engine.n_agents
        self.n_episodes = n_episodes
        self._cache = {}

    def per_episode(self, members):
        key = tuple(sorted(set(members)))
        if key not in self._cache:
            self._cache[key] = self.engine.coalition_outcomes(
                [(e, key) for e in range(self.n_episodes)]
            )
        return self._cache[key]

    def value(self, members):
        return float(np.mean(self.per_episode(members)))

    def subsets(self):
        """All 2**n coalitions, as sorted member tuples in bitmask order."""
        return [
            tuple(i for i in range(self.n_agents) if mask >> i & 1)
            for mask in range(2 ** self.n_agents)
        ]

    def fill(self, coalitions, y):
        """Cache ``y[C, E]``, the per-episode values of ``coalitions``."""
        self._cache.update(zip(coalitions, y))
        return self

    def precompute(self):
        """Evaluate every coalition of every episode up front.

        Runs the interventional rollouts behind all 2**n coalition values
        as one row set; afterwards Shapley computation is pure arithmetic
        on cached arrays. :func:`run_interventions` does the same in the
        row set of the naive replays.
        """
        subsets = self.subsets()
        y = self.engine.coalition_outcomes(
            [(e, key) for key in subsets for e in range(self.n_episodes)]
        )
        return self.fill(subsets, y.reshape(len(subsets), self.n_episodes))


class GameValues:
    """Adapter for synthetic games given as a plain value function."""

    def __init__(self, n_agents, fn):
        self.n_agents = n_agents
        self.n_episodes = 1
        self._fn = fn
        self._cache = {}

    def per_episode(self, members):
        key = tuple(sorted(set(members)))
        if key not in self._cache:
            self._cache[key] = np.array([float(self._fn(key))], dtype=np.float64)
        return self._cache[key]

    def value(self, members):
        return float(self.per_episode(members)[0])


@dataclass
class EffectResult:
    """Naive counterfactual effects plus the traces behind them."""

    phi: np.ndarray            # (N,)
    phi_pe: np.ndarray         # (N, E)
    y_fact: float
    y_fact_pe: np.ndarray      # (E,)
    y_cf: np.ndarray           # (N,)
    y_cf_pe: np.ndarray        # (N, E)
    fact_trace: np.ndarray     # (T,) mean factual cumulative trace
    cf_traces: np.ndarray      # (N, T) mean counterfactual traces
    critical: list[list[int]]  # per agent, 1-based


def run_interventions(engine, n_episodes, n_samples, values=None):
    """Counterfactual replays for every (agent, episode, sample).

    Returns ``(y_cf[N, E, K], traces[N, E, K, T])`` in agent order. Given a
    :class:`CoalitionValues`, every coalition value is replayed in the same
    row set and cached in it, as :meth:`CoalitionValues.precompute` would.
    """
    coalitions = values.subsets() if values is not None else []
    y_cf, traces, y_coalitions = engine.replay_table(
        range(n_episodes), n_samples, coalitions
    )
    if values is not None:
        values.fill(coalitions, y_coalitions)
    return y_cf, traces


def effects_from_interventions(engine, replays):
    """Reduce the replays of :func:`run_interventions` to naive effects and
    averaged traces.

    phi_i = Y_fact - mean_k Y_cf, averaged over episodes. Critical
    timesteps are read off the episode-averaged traces: a step counts when
    the mean counterfactual trace is further from the mean factual trace
    than the epsilon implied by the mean factual outcome.
    """
    y_cf, traces = replays
    n, n_episodes = y_cf.shape[:2]
    facts = engine.factuals(range(n_episodes))
    y_fact_pe = rewards_outcome(facts.team, facts.length, engine.outcome)
    fact_trace = np.mean(
        rewards_trace(facts.team, facts.length, engine.outcome), axis=0
    )
    y_cf_pe = y_cf.mean(axis=2)
    ep_traces = traces.mean(axis=2)
    # summed episode by episode: numpy's pairwise sum over a contiguous
    # axis (T = 1) would round differently
    cf_traces = np.zeros((n, len(fact_trace)))
    for e in range(n_episodes):
        cf_traces += ep_traces[:, e]
    cf_traces /= n_episodes
    phi_pe = y_fact_pe[None, :] - y_cf_pe
    y_fact = float(np.mean(y_fact_pe))
    eps = engine.epsilon(y_fact)
    critical = [
        critical_timesteps(fact_trace, cf_traces[i], eps) for i in range(n)
    ]
    return EffectResult(
        phi=phi_pe.mean(axis=1),
        phi_pe=phi_pe,
        y_fact=y_fact,
        y_fact_pe=y_fact_pe,
        y_cf=y_cf_pe.mean(axis=1),
        y_cf_pe=y_cf_pe,
        fact_trace=fact_trace,
        cf_traces=cf_traces,
        critical=critical,
    )


def causal_effects(engine, n_episodes, n_samples):
    """Naive counterfactual effects in one call; see the two halves above."""
    replays = run_interventions(engine, n_episodes, n_samples)
    return effects_from_interventions(engine, replays)


# -- Shapley ------------------------------------------------------------------


def shapley_exact(values, n_agents=None):
    """Exact Shapley values by full coalition enumeration.

    Returns (phi, phi_pe); phi_pe holds one Shapley vector per episode so
    callers can bootstrap over episodes.
    """
    n = values.n_agents if n_agents is None else n_agents
    if n > EXACT_SHAPLEY_LIMIT:
        raise ConfigError(
            f"exact Shapley enumerates 2^n coalitions and is capped at "
            f"n={EXACT_SHAPLEY_LIMIT}; got n={n}, use method shapley_mc"
        )
    E = values.n_episodes
    phi_pe = np.zeros((n, E))
    members_of = {
        mask: tuple(j for j in range(n) if mask >> j & 1)
        for mask in range(1 << n)
    }
    fact = [factorial(k) for k in range(n + 1)]
    denom = fact[n]
    for i in range(n):
        for mask in range(1 << n):
            if mask >> i & 1:
                continue
            s = bin(mask).count("1")
            w = fact[s] * fact[n - 1 - s] / denom
            gain = values.per_episode(members_of[mask | (1 << i)]) - (
                values.per_episode(members_of[mask])
            )
            phi_pe[i] += w * gain
    return phi_pe.mean(axis=1), phi_pe


def sample_permutations(n_agents, n_permutations, rng):
    """Permutation schedule for Monte Carlo Shapley.

    For small n the schedule is drawn as shuffled full blocks of all n!
    permutations (plus a shuffled partial block), so every agent ordering
    appears as evenly as possible; beyond that block sampling is pointless
    and permutations are drawn independently. Either way each row is
    uniform over orderings, so the estimator stays unbiased.
    """
    if n_permutations < 1:
        raise ConfigError(f"need at least one permutation, got {n_permutations}")
    out = np.empty((n_permutations, n_agents), dtype=np.int64)
    if n_agents <= 7:
        block = np.array(
            list(itertools.permutations(range(n_agents))), dtype=np.int64
        )
        filled = 0
        while filled < n_permutations:
            take = min(n_permutations - filled, len(block))
            shuffled = block[rng.permutation(len(block))]
            out[filled : filled + take] = shuffled[:take]
            filled += take
    else:
        for m in range(n_permutations):
            out[m] = rng.permutation(n_agents)
    return out


def shapley_mc(values, permutations):
    """Monte Carlo Shapley from an explicit permutation schedule."""
    perms = np.asarray(permutations)
    m, n = perms.shape
    E = values.n_episodes
    phi_pe = np.zeros((n, E))
    for row in perms:
        prev = values.per_episode(())
        members = []
        for agent in row:
            members.append(int(agent))
            cur = values.per_episode(tuple(sorted(members)))
            phi_pe[agent] += cur - prev
            prev = cur
    phi_pe /= m
    return phi_pe.mean(axis=1), phi_pe


def efficiency_gap(phi, values):
    """|sum(phi) - (v(all) - v(empty))| and its relative size."""
    n = values.n_agents
    span = values.value(tuple(range(n))) - values.value(())
    gap = abs(float(np.sum(phi)) - span)
    return gap, gap / max(abs(span), 1e-9)


# -- normalisation and ranking ---------------------------------------------------


def normalize_contributions(phi):
    """phi / sum|phi|; all-zero attributions fall back to equal shares."""
    phi = np.asarray(phi, dtype=np.float64)
    z = float(np.sum(np.abs(phi)))
    if z > 0.0:
        return phi / z
    return np.full(len(phi), 1.0 / len(phi))


def contribution_percentages(phi):
    return 100.0 * np.abs(normalize_contributions(phi))


def rank_agents(phi):
    """Agents ordered by |phi| descending, ties to the lower index."""
    phi = np.asarray(phi, dtype=np.float64)
    return sorted(range(len(phi)), key=lambda i: (-abs(phi[i]), i))


def agent_ranks(phi):
    """1-based rank per agent under ``rank_agents`` ordering."""
    ranks = np.zeros(len(phi), dtype=np.int64)
    for pos, agent in enumerate(rank_agents(phi)):
        ranks[agent] = pos + 1
    return ranks


# -- bootstrap ---------------------------------------------------------------------


@dataclass
class BootstrapResult:
    lows: np.ndarray     # (N,)
    highs: np.ndarray    # (N,)
    samples: np.ndarray  # (B, N) resampled means
    se: np.ndarray       # (N,)
    alpha: float


def bootstrap_indices(n_episodes, n_resamples, rng):
    """Shared episode-resampling schedule: one (B, E) index matrix."""
    if n_episodes < 2:
        raise MacieError(
            f"bootstrap needs at least 2 episodes, got {n_episodes}"
        )
    if n_resamples < 2:
        raise ConfigError(f"need at least 2 resamples, got {n_resamples}")
    return rng.integers(0, n_episodes, size=(n_resamples, n_episodes))


def bootstrap_ci(phi_pe, indices, alpha=0.05):
    """Percentile intervals for per-agent means under episode resampling."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    phi_pe = np.asarray(phi_pe, dtype=np.float64)
    if phi_pe.shape[1] != indices.shape[1]:
        raise MacieError(
            f"resample indices cover {indices.shape[1]} episodes but "
            f"attributions have {phi_pe.shape[1]}"
        )
    samples = phi_pe[:, indices].mean(axis=2).T  # (B, N)
    lows = _linear_quantile(samples, alpha / 2.0)
    highs = _linear_quantile(samples, 1.0 - alpha / 2.0)
    return BootstrapResult(
        lows=lows,
        highs=highs,
        samples=samples,
        se=samples.std(axis=0, ddof=1),
        alpha=alpha,
    )


def _linear_quantile(samples, q):
    """``np.quantile(samples, q, axis=0)`` for ``0 < q < 1``, by numpy's
    default (linear) rule and arithmetic, so bit for bit the same.

    numpy's own first call imports ``numpy.ma`` (about 10 ms), about as
    long as all the replays of a default gridworld run take.
    """
    s = np.sort(samples, axis=0)
    v = (len(s) - 1) * q
    i = floor(v)
    t = v - i
    a, b = s[i], s[min(i + 1, len(s) - 1)]
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def compare_agents(phi, samples, i, j):
    """Bootstrap sign test for phi_i - phi_j; returns (difference, p)."""
    diff = float(phi[i] - phi[j])
    if diff == 0.0:
        return 0.0, 1.0
    d = samples[:, i] - samples[:, j]
    opposite = float(np.mean(np.sign(d) == -np.sign(diff)))
    return diff, min(1.0, 2.0 * opposite)

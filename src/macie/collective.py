"""Collective behaviour metrics: synergy, coordination, and integration.

These quantify what attribution to individual agents misses. Pairwise
synergy compares the grand coalition against dropping a pair and their solo
credits; the synergy index compares the team outcome against the sum of
solo outcomes on a bounded scale; coordination correlates consecutive
joint actions; information integration totals the conditional mutual
information between agents' actions given a discretized state. The synergy
metrics read the coalition game ``v = {S: y_S[E]}``, whose means are the
coalition values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import log

import numpy as np

from .attribution import game_size
from .core import ConfigError

DEFAULT_N_BINS = 4
SI_BOUND = 2.0


def emergence_coalitions(n_agents):
    """The coalitions the emergence metrics read: N and the singletons
    (synergy index), and N minus each pair (synergy matrix)."""
    grand = tuple(range(n_agents))
    rests = [tuple(k for k in grand if k not in p) for p in combinations(grand, 2)]
    return [grand, *((i,) for i in grand), *rests]


def synergy_matrix(v, phi):
    """sigma_ij = v(all) - v(all minus {i, j}) - phi_i - phi_j, zero diagonal."""
    n = game_size(v)
    phi = np.asarray(phi, dtype=np.float64)
    if len(phi) != n:
        raise ConfigError(f"expected {n} attributions, got {len(phi)}")
    grand = float(np.mean(v[tuple(range(n))]))
    sigma = np.zeros((n, n))
    for i, j in combinations(range(n), 2):
        rest = tuple(k for k in range(n) if k not in (i, j))
        rest_value = float(np.mean(v[rest]))
        sigma[i, j] = sigma[j, i] = grand - rest_value - phi[i] - phi[j]
    return sigma


def synergy_index(v):
    """Bounded gap between the team outcome and the sum of solo outcomes.

    Positive means the team achieves what no sum of individuals would;
    negative means agents get in each other's way. Clipped to [-2, 2].
    """
    n = game_size(v)
    grand = float(np.mean(v[tuple(range(n))]))
    solo_sum = float(sum(float(np.mean(v[(i,)])) for i in range(n)))
    denom = max(abs(grand), abs(solo_sum), 1e-9)
    return float(np.clip((grand - solo_sum) / denom, -SI_BOUND, SI_BOUND))


def _step_correlations(acts):
    """Correlation of each joint action ``acts[..., t, :]`` with the next.

    ``acts[..., T, n]`` gives ``[..., T - 1]``. A constant row carries no
    spread to correlate: the pair counts as fully coordinated (1.0) only
    when the two rows are identical, else 0.0.
    """
    x, y = acts[..., :-1, :], acts[..., 1:, :]
    sx, sy = np.std(x, axis=-1), np.std(y, axis=-1)
    cov = np.mean(
        (x - np.mean(x, axis=-1, keepdims=True))
        * (y - np.mean(y, axis=-1, keepdims=True)),
        axis=-1,
    )
    flat = (sx < 1e-12) | (sy < 1e-12)
    same = np.all(x == y, axis=-1).astype(np.float64)
    return np.where(flat, same, cov / np.where(flat, 1.0, sx * sy))


def coordination_score(history):
    """Mean correlation between consecutive joint-action vectors.

    Each episode of two or more steps scores the mean over its own steps;
    the score is the mean over those episodes.
    """
    corr = _step_correlations(history.actions.astype(np.float64))
    per_episode = [
        float(np.mean(c[: L - 1]))
        for c, L in zip(corr, history.length.tolist())
        if L >= 2
    ]
    if not per_episode:
        return 0.0
    return float(np.mean(per_episode))


def discretize_states(states, n_bins=DEFAULT_N_BINS):
    """Equal-width bin signature per row, one symbol id per distinct cell."""
    if n_bins < 1:
        raise ConfigError(f"n_bins must be >= 1, got {n_bins}")
    S = np.asarray(states, dtype=np.float64)
    lo = S.min(axis=0)
    span = S.max(axis=0) - lo
    bins = np.zeros(S.shape, dtype=np.int64)
    for f in range(S.shape[1]):
        if span[f] < 1e-12:
            continue
        bins[:, f] = np.clip(
            ((S[:, f] - lo[f]) / span[f] * n_bins).astype(np.int64),
            0,
            n_bins - 1,
        )
    _, ids = np.unique(bins, axis=0, return_inverse=True)
    return ids


def _conditional_mi(sig, x, y):
    """Plug-in I(x; y | sig) in nats."""
    n = len(sig)
    c_sxy = Counter(zip(sig, x, y))
    c_sx = Counter(zip(sig, x))
    c_sy = Counter(zip(sig, y))
    c_s = Counter(sig)
    total = 0.0
    for (s, xv, yv), c in c_sxy.items():
        total += (c / n) * log(c * c_s[s] / (c_sx[(s, xv)] * c_sy[(s, yv)]))
    return max(0.0, total)


def pairwise_conditional_mi(history, n_bins=DEFAULT_N_BINS):
    """I(a_i; a_j | discretized state) for every agent pair, in nats."""
    ran = np.arange(history.horizon) < history.length[:, None]
    if not ran.any():
        raise ConfigError("history has no steps")
    sig = discretize_states(history.states[:, :-1][ran], n_bins)
    A = history.actions[ran]
    n = history.n_agents
    out = np.zeros((n, n))
    sig_t = [int(v) for v in sig]
    cols = [[int(v) for v in A[:, i]] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mi = _conditional_mi(sig_t, cols[i], cols[j])
            out[i, j] = mi
            out[j, i] = mi
    return out


@dataclass
class EmergenceMetrics:
    synergy: np.ndarray   # (N, N)
    si: float
    cs: float
    ii: float
    ii_pairs: np.ndarray  # (N, N)


def emergence_metrics(history, v, phi, n_bins=DEFAULT_N_BINS):
    pairs = pairwise_conditional_mi(history, n_bins)
    return EmergenceMetrics(
        synergy=synergy_matrix(v, phi),
        si=synergy_index(v),
        cs=coordination_score(history),
        ii=float(pairs.sum()),
        ii_pairs=pairs,
    )

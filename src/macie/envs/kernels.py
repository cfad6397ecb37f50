"""Batched episode rollouts for the built-in environments.

One rollout serves every environment: it steps B episodes at once over a
leading batch axis, asking the environment for its greedy actions and its
transition (both batched, see ``worlds``). Row ``b`` depends only on its own
inputs, so an episode gives the same trajectory alone or inside any batch,
and no random state lives inside a rollout.

Shared conventions:

- actions: ``0=up(+y)  1=down(-y)  2=left(-x)  3=right(+x)  4=stay``
  (traffic uses ``0=NS-green 1=EW-green``);
- per-agent policy spec: ``kinds[b, i]`` 0 skill-mix, 1 uniform,
  2 constant, with ``alphas[b, i]`` the greedy probability and
  ``consts[b, i]`` the fixed action (see ``policies.select_actions``);
- ``act_u[b, t, i]`` holds two uniforms per agent per step: the first
  decides greedy-vs-random for skill policies, the second picks the random
  action. Every policy kind is budgeted the same two draws, so swapping the
  policy on a fixed stream never shifts another agent's draws;
- ``env_u[b, t, i]`` holds two uniforms of environment noise per agent per
  step (only traffic reads them);
- a rollout returns ``(states[B, T+1, D], actions[B, T, n],
  rewards[B, T, n], team[B, T], length[B])``, with ``length`` the number
  of executed steps, or only ``(team, length)`` when no trajectory is
  asked for. Entries after a row's last step stay zero.

The dynamics keep the arithmetic of the scalar definitions they replaced,
so reports stay bit-identical: powers go through ``np.float_power`` (C
``pow``, as Python's ``**``; ``np.sqrt`` and ``x * x`` round differently on
some inputs), rewards are summed in agent order, and ties go to the lowest
action or landmark index.
"""

from __future__ import annotations

import numpy as np

from ..policies import select_actions


def grid_moves(x, y, step, hi):
    """Positions after each of the five actions, on a new last axis.

    ``x`` and ``y`` are arrays of coordinates clipped to ``[0, hi]``; the
    result holds ``(xs, ys)``, each of shape ``x.shape + (5,)``.
    """
    up = np.minimum(y + step, hi)
    down = np.maximum(y - step, 0.0)
    left = np.maximum(x - step, 0.0)
    right = np.minimum(x + step, hi)
    xs = np.stack([x, x, left, right, x], axis=-1)
    ys = np.stack([up, down, y, y, y], axis=-1)
    return xs, ys


def take(options, index):
    """``options[..., index[...]]``: one entry of the last axis per element."""
    return np.take_along_axis(options, index[..., None], axis=-1)[..., 0]


def rollout(env, S0, kinds, alphas, consts, act_u, env_u, trajectory=True):
    """Simulate B episodes of ``env`` for ``act_u.shape[1]`` steps at most.

    Each step picks every agent's action by the policy rule from the
    environment's greedy actions, then applies the environment's
    transition. A row stops counting at the first step its transition
    reports as terminal; the rows still running keep the batch going.
    Without ``trajectory`` only ``(team, length)`` is recorded and
    returned, which is all a replay's outcome and trace read.
    """
    B, T, n = act_u.shape[:3]
    s = np.array(S0, dtype=np.float64)
    team = np.zeros((B, T))
    length = np.full(B, T, dtype=np.int64)
    alive = np.ones(B, dtype=bool)
    if trajectory:
        states = np.zeros((B, T + 1, s.shape[1]))
        actions = np.zeros((B, T, n), dtype=np.int64)
        rewards = np.zeros((B, T, n))
        states[:, 0] = s
    for t in range(T):
        greedy = env.greedy_actions(s)
        a = select_actions(kinds, alphas, consts, greedy, act_u[:, t], env.n_actions)
        r, tr, done = env.transition(s, a, env_u[:, t])
        team[:, t] = tr
        if trajectory:
            actions[:, t] = a
            rewards[:, t] = r
            states[:, t + 1] = s
        length[alive & done] = t + 1
        alive &= ~done
        if not alive.any():
            break
    # rows that ended early kept moving with the batch; blank their tails
    after = np.arange(T) >= length[:, None]
    team[after] = 0.0
    if not trajectory:
        return team, length
    actions[after] = 0
    rewards[after] = 0.0
    states[np.arange(T + 1) > length[:, None]] = 0.0
    return states, actions, rewards, team, length

"""Hand-built histories with known structure, shared across the tests."""

import numpy as np

from macie import History
from macie.core import _EPISODE_ARRAYS
from macie.envs import kernels

DIRS = np.array([[0.0, 1.0], [0.0, -1.0], [-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])


def full_history(env_name, feature_names, states, actions, team, rewards=None):
    """History of episodes that all run the whole horizon ``actions.shape[1]``.

    ``states[E, T+1, D]`` includes each final state; per-agent rewards
    default to zero.
    """
    E, T, n = actions.shape
    return History(
        env_name=env_name,
        feature_names=feature_names,
        states=np.asarray(states, dtype=np.float64),
        actions=np.asarray(actions, dtype=np.int64),
        rewards=np.zeros((E, T, n)) if rewards is None else rewards,
        team=np.asarray(team, dtype=np.float64),
        length=np.full(E, T, dtype=np.int64),
    )


def same_arrays(a, b):
    """Whether two histories hold the same per-episode arrays, bit for bit."""
    return all(
        (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        for x, y in ((getattr(a, f), getattr(b, f)) for f in _EPISODE_ARRAYS)
    )


def step(env, state, actions, rng=None):
    """One joint action applied to one state through ``env.transition``.

    Environment uniforms come from ``rng`` (zeros without one). Returns
    ``(next_state, rewards, team, done)``.
    """
    shape = (1, env.n_agents, 2)
    env_u = np.zeros(shape) if rng is None else rng.random(shape)
    s = np.array(state, dtype=np.float64)[None]
    a = np.asarray(actions, dtype=np.int64)[None]
    rewards, team, done = env.transition(s, a, env_u)
    return s[0], rewards[0], float(team[0]), bool(done[0])


def rollout_one(env, state0, kinds, alphas, consts, act_u, env_u):
    """One episode through ``kernels.rollout``, as a batch of one row.

    ``act_u`` and ``env_u`` are ``[T, n, 2]``. Returns ``(states, actions,
    rewards, team, length)`` of that row, ``length`` an int.
    """
    args = (state0, kinds, alphas, consts, act_u, env_u)
    out = kernels.rollout(env, *(np.asarray(x)[None] for x in args))
    states, actions, rewards, team, length = (x[0] for x in out)
    return states, actions, rewards, team, int(length)


def nav_history(seed, episodes=30, horizon=15):
    """Three agents drift toward the nearest of three random landmarks.

    Next positions contract toward the center and shift by a direction
    looked up from the action index, and the reward is a nearest-agent
    coverage cost over the landmarks. Both maps are nonlinear in the raw
    regression inputs, which is the point: tree models should beat linear
    ones on these transitions.
    """
    rng = np.random.default_rng(seed)
    alphas = (0.70, 0.75, 0.80)
    names = [f"p{i}{c}" for i in range(3) for c in "xy"]
    states = np.zeros((episodes, horizon + 1, 6))
    actions = np.zeros((episodes, horizon, 3), dtype=np.int64)
    team = np.zeros((episodes, horizon))
    for e in range(episodes):
        lm = rng.random((3, 2))
        pos = rng.random((3, 2))
        for t in range(horizon):
            acts = np.zeros(3, dtype=np.int64)
            for i in range(3):
                near = lm[np.argmin(np.abs(lm - pos[i]).sum(axis=1))]
                delta = near - pos[i]
                greedy = min(
                    (-(DIRS[a] * np.sign(delta)).sum(), a) for a in range(5)
                )[1]
                if rng.random() < alphas[i]:
                    acts[i] = greedy
                else:
                    acts[i] = rng.integers(0, 5)
            new = 0.5 + 0.3 * (pos - 0.5) + 0.25 * DIRS[acts]
            r = -sum(float(np.abs(new - l).sum(axis=1).min()) for l in lm)
            states[e, t] = pos.reshape(-1)
            actions[e, t] = acts
            team[e, t] = r
            pos = new
        states[e, horizon] = pos.reshape(-1)
    rewards = np.repeat(team[..., None] / 3.0, 3, axis=2)
    return full_history("navsynth", names, states, actions, team, rewards)


def action_history(seed, mode, episodes=50, horizon=20):
    """Three agents acting on a frozen state, with known action coupling.

    ``independent`` draws each agent separately; ``copy`` fills one uniform
    draw into all three agents, so every pair shares exactly ln(5) nats.
    """
    rng = np.random.default_rng(seed)
    actions = np.zeros((episodes, horizon, 3), dtype=np.int64)
    for e in range(episodes):
        for t in range(horizon):
            if mode == "independent":
                actions[e, t] = rng.integers(0, 5, size=3)
            else:
                actions[e, t] = rng.integers(0, 5)
    states = np.zeros((episodes, horizon + 1, 2))
    return full_history(
        "synthetic", ["f0", "f1"], states, actions, np.zeros((episodes, horizon))
    )

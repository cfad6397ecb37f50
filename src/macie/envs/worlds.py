"""Built-in multi-agent environments.

Every environment exposes the same surface: a fixed agent count and action
space, named state features, and its dynamics written once over a batch
axis: ``greedy_actions`` (every agent's greedy action in every row) and
``transition`` (apply one joint action to every row).
:func:`kernels.rollout` simulates whole batches of episodes from pre-drawn
uniforms with them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from functools import reduce
from typing import Any

import numpy as np

from ..core import ConfigError, _is_finite
from .kernels import grid_moves, move, take


class Environment:
    """Common interface for the built-in simulators."""

    name: str
    n_agents: int
    n_actions: int
    state_dim: int
    feature_names: list[str]
    # whether ``transition`` reads ``env_u``; replays pass zeros otherwise
    uses_env_uniforms = False

    def __init__(self, horizon):
        if horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {horizon}")
        self.horizon = int(horizon)

    def initial_state(self, rng):
        raise NotImplementedError

    def greedy_actions(self, S):
        """Greedy action of every agent in every row of ``S[B, D]``: ``[B, n]``."""
        raise NotImplementedError

    def transition(self, s, a, env_u):
        """Apply joint actions ``a[B, n]`` to the states ``s[B, D]`` in place.

        ``env_u[B, n, 2]`` holds this step's environment uniforms. Returns
        ``(rewards[B, n], team[B], done[B])``.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class GridWorldConfig:
    width: int = 5
    step_cost: float = 0.01
    goal_reward: float = 1.0
    team_bonus: float = 5.0
    horizon: int = 18


class GridWorld(Environment):
    """Two agents walk a square grid to their own goals.

    Start/goal placements are drawn from a fixed family: agent 0 starts on a
    corner (or a cell next to the opposite corner) with its goal at the other
    end, and agent 1 gets the point-reflected copy. Every placement has the
    same optimal path length of ``2 * width - 3``, which keeps episode
    difficulty constant across seeds.

    Each agent earns ``goal_reward`` on first arrival at its own goal and
    pays ``step_cost`` per step; when both agents occupy their goals at the
    same step the team earns ``team_bonus`` and the episode ends.
    """

    name = "gridworld"
    n_agents = 2
    n_actions = 5
    state_dim = 10
    feature_names = [
        "agent0_x",
        "agent0_y",
        "agent1_x",
        "agent1_y",
        "goal0_x",
        "goal0_y",
        "goal1_x",
        "goal1_y",
        "reached0",
        "reached1",
    ]

    def __init__(self, config: GridWorldConfig):
        super().__init__(config.horizon)
        if config.width < 3:
            raise ConfigError(f"gridworld width must be >= 3, got {config.width}")
        self.config = config
        self.width = int(config.width)
        self._placements = self._build_placements(self.width)

    @staticmethod
    def _build_placements(width):
        w = width - 1
        corners = [(0, 0), (0, w), (w, 0), (w, w)]
        pairs = []
        for cx, cy in corners:
            ox, oy = w - cx, w - cy
            nbrs = [
                ((ox - 1) if ox > 0 else (ox + 1), oy),
                (ox, (oy - 1) if oy > 0 else (oy + 1)),
            ]
            for n in nbrs:
                pairs.append(((cx, cy), n))
                pairs.append((n, (cx, cy)))
        return pairs

    def initial_state(self, rng):
        idx = int(rng.integers(0, len(self._placements)))
        (ax, ay), (gx, gy) = self._placements[idx]
        w = self.width - 1
        return np.array(
            [ax, ay, w - ax, w - ay, gx, gy, w - gx, w - gy, 0.0, 0.0],
            dtype=np.float64,
        )

    def greedy_actions(self, S):
        # the move that ends nearest (L1) to the agent's own goal
        xs, ys = grid_moves(S[:, 0:4:2], S[:, 1:4:2], 1.0, self.width - 1.0)
        d = np.abs(xs - S[:, 4:8:2, None]) + np.abs(ys - S[:, 5:8:2, None])
        return d.argmin(axis=-1)

    def transition(self, s, a, env_u):
        c = self.config
        hi = self.width - 1.0
        s[:, 0:4:2], s[:, 1:4:2] = move(s[:, 0:4:2], s[:, 1:4:2], a, 1.0, hi)
        on_goal = (s[:, 0:4:2] == s[:, 4:8:2]) & (s[:, 1:4:2] == s[:, 5:8:2])
        first = on_goal & (s[:, 8:10] == 0.0)
        s[:, 8:10][first] = 1.0
        rewards = np.where(first, -c.step_cost + c.goal_reward, -c.step_cost)
        done = on_goal.all(axis=1)
        team = rewards[:, 0] + rewards[:, 1]
        return rewards, np.where(done, team + c.team_bonus, team), done


def _pow_hypot(dx, dy):
    """``(dx ** 2 + dy ** 2) ** 0.5`` with C ``pow``, as Python's ``**`` rounds.

    The one definition of a distance value: every reported distance is
    computed here. Decisions that only compare distances use the filtered
    forms below, which agree with comparing these values.
    """
    return np.float_power(np.float_power(dx, 2) + np.float_power(dy, 2), 0.5)


# Relative guard band of the filtered decisions. C ``pow`` and ``x * x``
# differ by at most an ulp or so (about 1e-16 relative); outside this band
# the squared distance orders the same way the powers do.
_GUARD = 1e-12


def _below(q, r):
    """``np.float_power(q, 0.5) < r``, deciding on ``q`` against ``r * r``.

    Only a ``q`` within the guard band around ``r * r`` takes C ``pow``.
    """
    r2 = r * r
    out = q < r2 * (1.0 - _GUARD)
    band = ~out & (q <= r2 * (1.0 + _GUARD))
    if band.any():
        out[band] = np.float_power(q[band], 0.5) < r
    return out


def _columns(x):
    """The last axis of ``x`` as a list of arrays.

    numpy reduces over a short last axis several times slower than it runs
    one elementwise op per entry, so the filters fold the entries instead.
    """
    return [x[..., k] for k in range(x.shape[-1])]


def _argmin_hypot(dx, dy):
    """``_pow_hypot(dx, dy).argmin(axis=-1)``, deciding on squared distances.

    A row whose runner-up lies within the guard band of its minimum (a tie
    or a near tie), or that holds a NaN, falls back to ``_pow_hypot`` for
    that row alone, so ties still go to the lowest index the powers give.
    ``dx`` and ``dy`` share one shape.
    """
    q = dx * dx + dy * dy
    index = q.argmin(axis=-1)
    least = reduce(np.minimum, _columns(q))
    bound = least * (1.0 + _GUARD)
    near = sum(c <= bound for c in _columns(q)) != 1
    if near.any():
        index[near] = _pow_hypot(dx[near], dy[near]).argmin(axis=-1)
    return index


@dataclass(frozen=True)
class CoopNavConfig:
    horizon: int = 18


class CoopNav(Environment):
    """Three agents cover three landmarks on the unit square.

    The team pays the summed distance from each landmark to its closest
    agent, plus 1 per colliding agent pair (centers closer than 0.1), every
    step; the per-agent reward is the team reward split three ways. Moves
    are 0.1 long and positions are clipped to the square.
    """

    name = "coopnav"
    n_agents = 3
    n_actions = 5
    state_dim = 12
    feature_names = [
        "agent0_x",
        "agent0_y",
        "agent1_x",
        "agent1_y",
        "agent2_x",
        "agent2_y",
        "landmark0_x",
        "landmark0_y",
        "landmark1_x",
        "landmark1_y",
        "landmark2_x",
        "landmark2_y",
    ]

    def __init__(self, config: CoopNavConfig):
        super().__init__(config.horizon)
        self.config = config

    def initial_state(self, rng):
        return rng.random(12)

    @staticmethod
    def _offsets(S):
        """Agent-minus-landmark ``(dx, dy)``, each ``[B, agent, landmark]``."""
        return (
            S[:, 0:6:2, None] - S[:, None, 6:12:2],
            S[:, 1:6:2, None] - S[:, None, 7:12:2],
        )

    def greedy_actions(self, S):
        # head for the nearest landmark no other agent covers (within 0.1),
        # or the nearest landmark at all when every one is covered
        dx, dy = self._offsets(S)
        covers = _below(dx * dx + dy * dy, 0.1)
        # another agent covers a landmark when more agents cover it than this one
        by_other = sum(covers[:, i] for i in range(3))[:, None] > covers
        # an infinite offset rules a landmark out, unless none is free
        skip = by_other & ~reduce(np.logical_and, _columns(by_other))[..., None]
        target = _argmin_hypot(np.where(skip, np.inf, dx), dy)
        tx = take(S[:, None, 6:12:2], target)
        ty = take(S[:, None, 7:12:2], target)
        xs, ys = grid_moves(S[:, 0:6:2], S[:, 1:6:2], 0.1, 1.0)
        return _argmin_hypot(xs - tx[..., None], ys - ty[..., None])

    def transition(self, s, a, env_u):
        s[:, 0:6:2], s[:, 1:6:2] = move(s[:, 0:6:2], s[:, 1:6:2], a, 0.1, 1.0)
        # each landmark's closest agent, and the distance to it
        dx = s[:, None, 0:6:2] - s[:, 6:12:2, None]
        dy = s[:, None, 1:6:2] - s[:, 7:12:2, None]
        agent = _argmin_hypot(dx, dy)
        closest = _pow_hypot(take(dx, agent), take(dy, agent))
        cost = 0.0
        for landmark in range(3):
            cost = cost + closest[:, landmark]
        collisions = 0
        for i, j in ((0, 1), (0, 2), (1, 2)):
            dx = s[:, 2 * i] - s[:, 2 * j]
            dy = s[:, 2 * i + 1] - s[:, 2 * j + 1]
            collisions = collisions + _below(dx * dx + dy * dy, 0.1)
        team = -cost - 1.0 * collisions
        rewards = np.repeat((team / 3.0)[:, None], 3, axis=1)
        return rewards, team, np.zeros(len(s), dtype=bool)


@dataclass(frozen=True)
class PredatorPreyConfig:
    width: int = 7
    step_cost: float = 0.05
    capture_reward: float = 10.0
    collision_penalty: float = 0.0
    horizon: int = 18


class PredatorPrey(Environment):
    """Two predators chase a scripted, evading prey on a grid.

    Predators start on opposite corners, the prey starts on a random inner
    cell. Each step the prey moves first, maximising its minimum distance
    to the predators (ties broken by lowest action index); the predators
    then move, and landing on the prey captures it (both earn
    ``capture_reward`` and the episode ends). Predators pay ``step_cost``
    per step and ``collision_penalty`` each while crowding (within L1
    distance 2 of each other). A lone pursuer can never capture: the prey
    regains distance before the pursuer moves, so capture takes both
    predators boxing it in.
    """

    name = "predatorprey"
    n_agents = 2
    n_actions = 5
    state_dim = 6
    feature_names = ["pred0_x", "pred0_y", "pred1_x", "pred1_y", "prey_x", "prey_y"]

    def __init__(self, config: PredatorPreyConfig):
        super().__init__(config.horizon)
        if config.width < 5:
            raise ConfigError(
                f"predatorprey width must be >= 5, got {config.width}"
            )
        self.config = config
        self.width = int(config.width)

    def initial_state(self, rng):
        w = self.width - 1
        px = float(rng.integers(2, self.width - 2))
        py = float(rng.integers(2, self.width - 2))
        return np.array([0.0, 0.0, w, w, px, py], dtype=np.float64)

    def greedy_actions(self, S):
        # the move that ends nearest (L1) to the prey
        xs, ys = grid_moves(S[:, 0:4:2], S[:, 1:4:2], 1.0, self.width - 1.0)
        d = np.abs(xs - S[:, 4, None, None]) + np.abs(ys - S[:, 5, None, None])
        return d.argmin(axis=-1)

    def transition(self, s, a, env_u):
        c = self.config
        hi = self.width - 1.0
        # prey evades first: maximise the minimum distance to the predators
        qx, qy = grid_moves(s[:, 4], s[:, 5], 1.0, hi)
        d0 = np.abs(qx - s[:, 0, None]) + np.abs(qy - s[:, 1, None])
        d1 = np.abs(qx - s[:, 2, None]) + np.abs(qy - s[:, 3, None])
        flee = np.minimum(d0, d1).argmax(axis=-1)
        s[:, 4] = take(qx, flee)
        s[:, 5] = take(qy, flee)
        # predators move after the prey; capture means landing on it
        s[:, 0:4:2], s[:, 1:4:2] = move(s[:, 0:4:2], s[:, 1:4:2], a, 1.0, hi)
        captured = ((s[:, 0] == s[:, 4]) & (s[:, 1] == s[:, 5])) | (
            (s[:, 2] == s[:, 4]) & (s[:, 3] == s[:, 5])
        )
        # crowding: predators within L1 distance 2 get in each other's
        # way, so each pays the collision penalty
        crowded = np.abs(s[:, 0] - s[:, 2]) + np.abs(s[:, 1] - s[:, 3]) <= 2.0
        r = np.full(len(s), -c.step_cost)
        r = np.where(crowded, r - c.collision_penalty, r)
        r = np.where(captured, r + c.capture_reward, r)
        return np.stack([r, r], axis=1), r + r, captured


@dataclass(frozen=True)
class TrafficConfig:
    arrival_p: float = 0.3
    service: int = 2
    max_init_queue: int = 4
    horizon: int = 18


class Traffic(Environment):
    """Three signalised intersections, each holding NS and EW queues.

    Action 0 gives NS the green, 1 gives EW the green; the green queue
    releases up to ``service`` cars, then the agent is charged a tenth of
    the cars still queued at its intersection, then Bernoulli arrivals join
    both queues. Arrival noise is pre-drawn, so rollouts are reproducible.
    """

    name = "traffic"
    n_agents = 3
    n_actions = 2
    state_dim = 6
    feature_names = [
        "ns_queue0",
        "ew_queue0",
        "ns_queue1",
        "ew_queue1",
        "ns_queue2",
        "ew_queue2",
    ]
    uses_env_uniforms = True

    def __init__(self, config: TrafficConfig):
        super().__init__(config.horizon)
        if not 0.0 <= config.arrival_p <= 1.0:
            raise ConfigError(
                f"arrival_p must be in [0, 1], got {config.arrival_p}"
            )
        self.config = config

    def initial_state(self, rng):
        return rng.integers(0, self.config.max_init_queue + 1, 6).astype(np.float64)

    def greedy_actions(self, S):
        # green for the longer queue, NS on ties
        return np.where(S[:, 0::2] >= S[:, 1::2], 0, 1)

    def transition(self, s, a, env_u):
        c = self.config
        queues = s.reshape(len(s), 3, 2)  # a view: rollouts pass contiguous s
        green = take(queues, a)
        departed = np.where(green < c.service, green, c.service)
        np.put_along_axis(queues, a[..., None], (green - departed)[..., None], -1)
        rewards = -(queues[:, :, 0] + queues[:, :, 1]) / 10.0
        team = 0.0
        for i in range(3):
            team = team + rewards[:, i]
        for lane in range(2):
            arrive = env_u[:, :, lane] < c.arrival_p
            queues[:, :, lane] = np.where(
                arrive, queues[:, :, lane] + 1.0, queues[:, :, lane]
            )
        return rewards, team, np.zeros(len(s), dtype=bool)


@dataclass(frozen=True)
class AdditiveConfig:
    limit: int = 12
    horizon: int = 18


class AdditiveLine(Environment):
    """Two agents on a line whose rewards depend only on their own action.

    Moving right earns +1, moving left earns -1, anything else earns 0, so
    the team outcome decomposes exactly across agents. Useful as a control:
    any interaction or synergy a method reports here is an artifact.
    """

    name = "additive"
    n_agents = 2
    n_actions = 5
    state_dim = 2
    feature_names = ["agent0_pos", "agent1_pos"]

    def __init__(self, config: AdditiveConfig):
        super().__init__(config.horizon)
        self.config = config
        self.limit = int(config.limit)

    def initial_state(self, rng):
        return rng.integers(0, self.limit + 1, 2).astype(np.float64)

    def greedy_actions(self, S):
        # always move right
        return np.full((len(S), 2), 3, dtype=np.int64)

    def transition(self, s, a, env_u):
        right = a == 3
        left = a == 2
        rewards = np.where(right, 1.0, np.where(left, -1.0, 0.0))
        s[:] = np.where(
            right,
            np.minimum(s + 1.0, self.limit),
            np.where(left, np.maximum(s - 1.0, 0.0), s),
        )
        team = 0.0
        for i in range(2):
            team = team + rewards[:, i]
        return rewards, team, np.zeros(len(s), dtype=bool)


# config fields that count cars or cells, so cannot be negative
_NON_NEGATIVE = ("service", "max_init_queue", "limit")

_REGISTRY = {
    "gridworld": (GridWorld, GridWorldConfig),
    "coopnav": (CoopNav, CoopNavConfig),
    "predatorprey": (PredatorPrey, PredatorPreyConfig),
    "traffic": (Traffic, TrafficConfig),
    "additive": (AdditiveLine, AdditiveConfig),
}


def list_envs():
    """Names of the built-in environments, sorted."""
    return sorted(_REGISTRY)


def env_description(name):
    cls, _ = _lookup(name)
    return (cls.__doc__ or "").strip().splitlines()[0]


def _lookup(name):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown environment {name!r}; choose from {', '.join(list_envs())}"
        ) from None


def make_env(name, overrides: dict[str, Any] | None = None, horizon=None):
    """Build a registered environment, applying config overrides by name."""
    cls, config_cls = _lookup(name)
    kwargs = dict(overrides or {})
    if horizon is not None:
        kwargs["horizon"] = horizon
    defaults = {f.name: f.default for f in fields(config_cls)}
    unknown = sorted(set(kwargs) - set(defaults))
    if unknown:
        raise ConfigError(
            f"unknown {name} config keys: {', '.join(unknown)} "
            f"(valid: {', '.join(sorted(defaults))})"
        )
    for key, value in kwargs.items():
        # every config field is an int or a float
        if isinstance(defaults[key], int):
            want, noun = numbers.Integral, "an integer"
        else:
            want, noun = numbers.Real, "a number"
        if isinstance(value, bool) or not isinstance(value, want):
            raise ConfigError(f"{name} config {key} must be {noun}, got {value!r}")
        if not _is_finite(value):
            raise ConfigError(f"{name} config {key} must be finite, got {value!r}")
        if key in _NON_NEGATIVE and value < 0:
            raise ConfigError(f"{name} config {key} must be >= 0, got {value!r}")
    return cls(config_cls(**kwargs))

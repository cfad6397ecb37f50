"""Episode histories, outcome definitions and the episode log format.

A :class:`History` holds the episodes recorded from one environment under
one joint policy as arrays with one row per episode, the layout a batched
rollout returns, over a horizon ``T`` shared by every episode:

- ``states[E, T+1, D]``: the state before each step; the state reached
  after the last step sits at ``states[e, length[e]]``;
- ``actions[E, T, n]``, ``rewards[E, T, n]``, ``team[E, T]``: each step's
  joint action, per-agent rewards and team reward;
- ``length[E]``: the steps an episode ran, at most ``T``;
- ``seeds[E]``: each episode's seed index, and ``has_final[E]``: whether its
  final state is known (a log may leave it out).

Entries after an episode's last step (and its final state) are zero, so
consumers index or mask the arrays. :attr:`History.episodes` offers a
per-episode view for callers that want objects.

The team outcome ``Y`` of an episode is defined by an :class:`OutcomeSpec`:
either the cumulative team reward or a terminal success indicator;
:func:`rewards_outcome` and :func:`rewards_trace` compute it and its trace
from ``team`` and ``length``.

Logs are line-delimited text: one header line naming the environment, agent
count, horizon and state-feature layout, then per-episode blocks of records
``t <TAB> state_csv <TAB> action_csv <TAB> reward_csv``, each block opened
by ``#episode <TAB> index <TAB> seed`` and closed by an optional
``#final <TAB> state_csv``.  Floats are written with ``repr`` so a
write/read round trip is bit-exact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np


class MacieError(Exception):
    """Base error for pipeline failures."""


class ConfigError(MacieError):
    """Invalid configuration or arguments."""


def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value):
    """A real number that is a finite float (huge integers are not)."""
    try:
        return _is_real(value) and math.isfinite(value)
    except OverflowError:
        return False


CUMULATIVE_TEAM_REWARD = "cumulative_team_reward"
TERMINAL_SUCCESS = "terminal_success_indicator"
OUTCOME_KINDS = (CUMULATIVE_TEAM_REWARD, TERMINAL_SUCCESS)


@dataclass(frozen=True)
class OutcomeSpec:
    """Definition of the scalar team outcome of an episode."""

    kind: str = CUMULATIVE_TEAM_REWARD

    def __post_init__(self):
        if self.kind not in OUTCOME_KINDS:
            raise ConfigError(
                f"unknown outcome kind {self.kind!r}; valid: {list(OUTCOME_KINDS)}"
            )


class Step(NamedTuple):
    """One step of an episode view: state, joint action, rewards received."""

    state: np.ndarray
    joint_action: np.ndarray
    rewards: np.ndarray
    team_reward: float


class Episode(NamedTuple):
    """Read-only view of one episode of a :class:`History`."""

    seed: int
    steps: tuple
    final_state: np.ndarray | None


# per-episode arrays of a History, indexed alike by episode
_EPISODE_ARRAYS = (
    "states", "actions", "rewards", "team", "length", "seeds", "has_final"
)


@dataclass
class History:
    """Episodes recorded from one environment under one joint policy.

    Arrays as a batched rollout returns them, one row per episode; see the
    module docstring. ``seeds`` defaults to the row index and ``has_final``
    to all True.
    """

    env_name: str
    feature_names: list | None
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    team: np.ndarray
    length: np.ndarray
    seeds: np.ndarray | None = None
    has_final: np.ndarray | None = None

    def __post_init__(self):
        if self.seeds is None:
            self.seeds = np.arange(len(self.length), dtype=np.int64)
        if self.has_final is None:
            self.has_final = np.ones(len(self.length), dtype=bool)

    def __len__(self) -> int:
        return len(self.length)

    @property
    def n_agents(self) -> int:
        return self.actions.shape[2]

    @property
    def horizon(self) -> int:
        return self.actions.shape[1]

    def take(self, rows) -> History:
        """The episodes at ``rows`` (indices or a slice), as a history."""
        return replace(self, **{f: getattr(self, f)[rows] for f in _EPISODE_ARRAYS})

    @property
    def episodes(self) -> tuple:
        """One :class:`Episode` view per row, built on each access."""
        views = []
        for e, L in enumerate(self.length.tolist()):
            steps = tuple(
                Step(
                    self.states[e, t],
                    self.actions[e, t],
                    self.rewards[e, t],
                    float(self.team[e, t]),
                )
                for t in range(L)
            )
            final = self.states[e, L] if self.has_final[e] else None
            views.append(Episode(int(self.seeds[e]), steps, final))
        return tuple(views)


def rewards_outcome(team, length, spec: OutcomeSpec = OutcomeSpec()) -> np.ndarray:
    """Outcomes ``[B]`` of episodes from their team rewards.

    ``team[B, H]`` holds each episode's team reward per step over the
    horizon ``H``; only the first ``length[b]`` steps of row ``b`` ran.
    """
    team = np.asarray(team, dtype=np.float64)
    length = np.asarray(length, dtype=np.int64)
    if spec.kind == CUMULATIVE_TEAM_REWARD:
        total = np.cumsum(team, axis=1)[np.arange(len(length)), length - 1]
        # a sum from 0, as Python's, turns a run of negative zeros into 0.0
        return total + 0.0
    return np.where(length < team.shape[1], 1.0, 0.0)


def rewards_trace(team, length, spec: OutcomeSpec = OutcomeSpec()) -> np.ndarray:
    """Outcome traces ``[B, H]`` of episodes; arguments as :func:`rewards_outcome`.

    Episodes that terminate early hold their terminal cumulative value for
    the remaining steps so traces of different episodes align.  Under the
    success-indicator outcome the trace is 0 until the (early) final step.
    """
    team = np.asarray(team, dtype=np.float64)
    length = np.asarray(length, dtype=np.int64)
    last = length[:, None] - 1
    steps = np.arange(team.shape[1])
    if spec.kind == CUMULATIVE_TEAM_REWARD:
        held = np.minimum(steps, last)
        return np.take_along_axis(np.cumsum(team, axis=1), held, axis=1)
    return np.where(steps >= last, rewards_outcome(team, length, spec)[:, None], 0.0)


# ---------------------------------------------------------------------------
# Episode log format (version 1)

_LOG_MAGIC = "#macie-log"
_LOG_VERSION = "v1"


def _fmt_floats(values) -> str:
    return ",".join(map(repr, values))


def write_log(history: History, path) -> None:
    """Write a history in the line-delimited episode log format."""
    if not len(history):
        raise MacieError("refusing to write an empty history")
    feat = history.feature_names or [f"x{i}" for i in range(history.states.shape[2])]
    lines = [
        f"{_LOG_MAGIC} {_LOG_VERSION}\tenv={history.env_name}"
        f"\tn_agents={history.n_agents}\thorizon={history.horizon}"
        f"\tfeatures={','.join(feat)}"
    ]
    # one reward row per step: each agent's reward, then the team reward
    rewards = np.concatenate([history.rewards, history.team[..., None]], axis=2)
    for e, (seed, L, final) in enumerate(
        zip(history.seeds.tolist(), history.length.tolist(), history.has_final)
    ):
        states, actions = history.states[e].tolist(), history.actions[e].tolist()
        lines.append(f"#episode\t{e}\t{seed}")
        lines.extend(
            f"{t + 1}\t{_fmt_floats(states[t])}\t{','.join(map(str, actions[t]))}"
            f"\t{_fmt_floats(r)}"
            for t, r in enumerate(rewards[e, :L].tolist())
        )
        if final:
            lines.append(f"#final\t{_fmt_floats(states[L])}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class _Block:
    """One episode of a log being read."""

    seed: int
    line: int | None  # of its ``#episode`` line; None before the first one
    steps: int = 0
    final: list | None = None


def read_log(path) -> History:
    """Read a history written by :func:`write_log`; round trip is bit-exact.

    A malformed log raises :class:`MacieError` naming the offending line;
    records of an episode must be numbered 1, 2, ... in order.
    Records before the first ``#episode`` line form an episode of seed 0.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = [(no, ln.rstrip("\n")) for no, ln in enumerate(fh, 1) if ln.strip()]
        except UnicodeDecodeError as exc:
            raise MacieError(f"{path} is not UTF-8 text: {exc}") from None
    if not raw or not raw[0][1].startswith(_LOG_MAGIC):
        raise MacieError(f"not an episode log: {path}")
    header_no, header_line = raw[0]
    header = header_line.split("\t")
    try:
        version = header[0].split()[1]
        if version != _LOG_VERSION:
            raise MacieError(f"unsupported log version {version!r}")
        meta = dict(kv.split("=", 1) for kv in header[1:])
        env_name = meta["env"]
        n_agents = int(meta["n_agents"])
        horizon = int(meta["horizon"])
        feature_names = meta["features"].split(",")
    except KeyError as exc:
        raise MacieError(
            f"{path}, line {header_no}: log header lacks {exc.args[0]}="
        ) from None
    except (IndexError, ValueError) as exc:
        raise MacieError(
            f"{path}, line {header_no}: malformed log header ({exc})"
        ) from None
    if horizon < 1:
        raise MacieError(
            f"{path}, line {header_no}: log horizon must be >= 1, got {horizon}"
        )
    D = len(feature_names)

    def floats(field, no, count, what):
        values = [float(v) for v in field.split(",")]
        if len(values) != count:
            raise MacieError(
                f"{path}, line {no}: {what} has {len(values)} fields, "
                f"the header implies {count}"
            )
        if not all(map(math.isfinite, values)):
            raise MacieError(f"{path}, line {no}: {what} is not finite")
        return values

    blocks = []
    block = _Block(seed=0, line=None)
    states, actions, rewards = [], [], []

    def close(block):
        if block.steps:
            blocks.append(block)
        elif block.line is not None:
            raise MacieError(f"{path}, line {block.line}: episode has no records")

    for no, line in raw[1:]:
        parts = line.split("\t")
        try:
            if parts[0] == "#episode":
                close(block)
                block = _Block(seed=np.int64(int(parts[2])), line=no)
                continue
            if parts[0] == "#final":
                if not block.steps:
                    raise MacieError(
                        f"{path}, line {no}: #final before any record of its episode"
                    )
                if block.final is not None:
                    raise MacieError(f"{path}, line {no}: second #final in one episode")
                block.final = floats(parts[1], no, D, "state")
                continue
            state = floats(parts[1], no, D, "state")
            acts = np.array([int(v) for v in parts[2].split(",")], dtype=np.int64)
            rew = floats(parts[3], no, n_agents + 1, "rewards")
        except (IndexError, ValueError, OverflowError) as exc:
            raise MacieError(f"{path}, line {no}: malformed record ({exc})") from None
        if block.final is not None:
            raise MacieError(f"{path}, line {no}: record after the episode's #final")
        if block.steps == horizon:
            raise MacieError(
                f"{path}, line {no}: episode runs past its horizon of {horizon} steps"
            )
        if parts[0] != str(block.steps + 1):
            raise MacieError(
                f"{path}, line {no}: record numbered {parts[0]!r}, "
                f"expected step {block.steps + 1} of its episode"
            )
        if len(acts) != n_agents:
            raise MacieError(
                f"{path}, line {no}: record disagrees with header agent count"
            )
        if (acts < 0).any():
            raise MacieError(f"{path}, line {no}: negative action")
        block.steps += 1
        states.append(state)
        actions.append(acts)
        rewards.append(rew)
    close(block)
    if not blocks:
        raise MacieError(f"log contains no episodes: {path}")

    E = len(blocks)
    length = np.array([b.steps for b in blocks], dtype=np.int64)
    # the (episode, step) of each record, in file order
    ep = np.repeat(np.arange(E), length)
    t = np.arange(len(ep)) - np.repeat(np.cumsum(length) - length, length)
    has_final = np.array([b.final is not None for b in blocks])
    S = np.zeros((E, horizon + 1, D))
    S[ep, t] = states
    finals = [b.final for b in blocks if b.final is not None]
    S[has_final, length[has_final]] = np.reshape(finals, (-1, D))
    A = np.zeros((E, horizon, n_agents), dtype=np.int64)
    A[ep, t] = actions
    R = np.zeros((E, horizon, n_agents + 1))
    R[ep, t] = rewards
    return History(
        env_name=env_name,
        feature_names=feature_names,
        states=S,
        actions=A,
        rewards=R[..., :-1].copy(),
        team=R[..., -1].copy(),
        length=length,
        seeds=np.array([b.seed for b in blocks], dtype=np.int64),
        has_final=has_final,
    )

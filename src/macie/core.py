"""Episode containers, outcome definitions and the episode log format.

A :class:`History` is an ordered list of :class:`Episode` objects recorded
from one environment under one joint policy.  Each episode stores the full
step sequence (state, joint action, per-agent rewards, team reward) plus the
state reached after the final step, which downstream model fitting uses.

The team outcome ``Y`` of an episode is defined by an :class:`OutcomeSpec`:
either the cumulative team reward or a terminal success indicator.  For a
history, ``Y`` is the mean over its episodes.

Logs are line-delimited text: one header line naming the environment, agent
count, horizon and state-feature layout, then per-episode blocks of records
``t <TAB> state_csv <TAB> action_csv <TAB> reward_csv``.  Floats are written
with ``repr`` so a write/read round trip is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MacieError(Exception):
    """Base error for pipeline failures."""


class ConfigError(MacieError):
    """Invalid configuration or arguments."""


CUMULATIVE_TEAM_REWARD = "cumulative_team_reward"
TERMINAL_SUCCESS = "terminal_success_indicator"
OUTCOME_KINDS = (CUMULATIVE_TEAM_REWARD, TERMINAL_SUCCESS)
_OUTCOME_KINDS = OUTCOME_KINDS


@dataclass(frozen=True)
class OutcomeSpec:
    """Definition of the scalar team outcome of an episode."""

    kind: str = CUMULATIVE_TEAM_REWARD

    def __post_init__(self):
        if self.kind not in _OUTCOME_KINDS:
            raise ConfigError(
                f"unknown outcome kind {self.kind!r}; valid: {list(_OUTCOME_KINDS)}"
            )


@dataclass(frozen=True)
class Step:
    """One timestep: state observed, joint action taken, rewards received."""

    state: np.ndarray
    joint_action: np.ndarray
    rewards: np.ndarray
    team_reward: float


@dataclass
class Episode:
    """One rollout of at most ``horizon`` steps."""

    steps: list
    env_name: str
    seed: int
    horizon: int
    final_state: np.ndarray | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("episode horizon must be >= 1")
        if len(self.steps) > self.horizon:
            raise MacieError("episode longer than its horizon")

    @property
    def n_agents(self) -> int:
        if not self.steps:
            raise MacieError("episode has no steps")
        return len(self.steps[0].joint_action)

    @property
    def length(self) -> int:
        return len(self.steps)


@dataclass
class History:
    """Episodes recorded from one environment under one joint policy."""

    episodes: list = field(default_factory=list)
    feature_names: list | None = None

    def __post_init__(self):
        names = {e.env_name for e in self.episodes}
        if len(names) > 1:
            raise MacieError(f"mixed environments in history: {sorted(names)}")
        counts = {e.n_agents for e in self.episodes}
        if len(counts) > 1:
            raise MacieError("episodes disagree on agent count")

    def __len__(self) -> int:
        return len(self.episodes)

    @property
    def n_agents(self) -> int:
        if not self.episodes:
            raise MacieError("empty history")
        return self.episodes[0].n_agents

    @property
    def env_name(self) -> str:
        if not self.episodes:
            raise MacieError("empty history")
        return self.episodes[0].env_name


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


def _episode_rewards(episode: Episode):
    """``team[1, horizon]`` and ``length[1]`` of one episode."""
    if not episode.steps:
        raise MacieError("episode has no steps")
    team = np.zeros((1, episode.horizon))
    team[0, : episode.length] = [s.team_reward for s in episode.steps]
    return team, [episode.length]


def episode_outcome(episode: Episode, spec: OutcomeSpec = OutcomeSpec()) -> float:
    """Scalar team outcome of one episode."""
    return float(rewards_outcome(*_episode_rewards(episode), spec)[0])


def outcome(history_or_episode, spec: OutcomeSpec = OutcomeSpec()) -> float:
    """Outcome of an episode, or the mean outcome over a history's episodes."""
    if isinstance(history_or_episode, Episode):
        return episode_outcome(history_or_episode, spec)
    hist = history_or_episode
    if not hist.episodes:
        raise MacieError("cannot compute outcome of an empty history")
    return float(np.mean([episode_outcome(e, spec) for e in hist.episodes]))


def cumulative_trace(episode: Episode) -> np.ndarray:
    """Running cumulative team reward; entry t is the partial outcome after step t+1.

    The last entry equals the episode's cumulative outcome.
    """
    if not episode.steps:
        raise MacieError("episode has no steps")
    return np.cumsum([s.team_reward for s in episode.steps])


def padded_trace(episode: Episode, spec: OutcomeSpec = OutcomeSpec()) -> np.ndarray:
    """Outcome trace padded to the episode horizon; see :func:`rewards_trace`."""
    return rewards_trace(*_episode_rewards(episode), spec)[0]


def mean_trace(history: History, spec: OutcomeSpec = OutcomeSpec()) -> np.ndarray:
    """Mean padded trace over a history; last entry equals ``outcome(history)``."""
    if not history.episodes:
        raise MacieError("cannot compute trace of an empty history")
    return np.mean([padded_trace(e, spec) for e in history.episodes], axis=0)


# ---------------------------------------------------------------------------
# Episode log format (version 1)

_LOG_MAGIC = "#macie-log"
_LOG_VERSION = "v1"


def _fmt_floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _fmt_ints(values) -> str:
    return ",".join(str(int(v)) for v in values)


def write_log(history: History, path) -> None:
    """Write a history in the line-delimited episode log format."""
    if not history.episodes:
        raise MacieError("refusing to write an empty history")
    first = history.episodes[0]
    n = history.n_agents
    feat = history.feature_names or [
        f"x{i}" for i in range(len(first.steps[0].state))
    ]
    lines = [
        f"{_LOG_MAGIC} {_LOG_VERSION}\tenv={history.env_name}"
        f"\tn_agents={n}\thorizon={first.horizon}\tfeatures={','.join(feat)}"
    ]
    for idx, ep in enumerate(history.episodes):
        lines.append(f"#episode\t{idx}\t{ep.seed}")
        for t, step in enumerate(ep.steps, start=1):
            lines.append(
                f"{t}\t{_fmt_floats(step.state)}\t{_fmt_ints(step.joint_action)}"
                f"\t{_fmt_floats(list(step.rewards) + [step.team_reward])}"
            )
        if ep.final_state is not None:
            lines.append(f"#final\t{_fmt_floats(ep.final_state)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_log(path) -> History:
    """Read a history written by :func:`write_log`; round trip is bit-exact.

    A malformed log raises :class:`MacieError` naming the offending line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = [(no, ln.rstrip("\n")) for no, ln in enumerate(fh, 1) if ln.strip()]
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

    episodes: list[Episode] = []
    steps: list[Step] = []
    final_state = None
    seed = 0

    def flush():
        if steps:
            episodes.append(
                Episode(
                    steps=list(steps),
                    env_name=env_name,
                    seed=seed,
                    horizon=horizon,
                    final_state=final_state,
                )
            )

    def floats(field, no, count, what):
        values = np.array([float(v) for v in field.split(",")])
        if len(values) != count:
            raise MacieError(
                f"{path}, line {no}: {what} has {len(values)} fields, "
                f"the header implies {count}"
            )
        if not np.isfinite(values).all():
            raise MacieError(f"{path}, line {no}: {what} is not finite")
        return values

    for no, line in raw[1:]:
        parts = line.split("\t")
        try:
            if parts[0] == "#episode":
                flush()
                steps, final_state = [], None
                seed = int(parts[2])
                continue
            if parts[0] == "#final":
                final_state = floats(parts[1], no, len(feature_names), "state")
                continue
            state = floats(parts[1], no, len(feature_names), "state")
            actions = np.array([int(v) for v in parts[2].split(",")], dtype=np.int64)
            rew = floats(parts[3], no, n_agents + 1, "rewards")
        except (IndexError, ValueError) as exc:
            raise MacieError(f"{path}, line {no}: malformed record ({exc})") from None
        if len(actions) != n_agents:
            raise MacieError(
                f"{path}, line {no}: record disagrees with header agent count"
            )
        if (actions < 0).any():
            raise MacieError(f"{path}, line {no}: negative action")
        steps.append(
            Step(
                state=state,
                joint_action=actions,
                rewards=rew[:-1],
                team_reward=float(rew[-1]),
            )
        )
    flush()
    if not episodes:
        raise MacieError(f"log contains no episodes: {path}")
    return History(episodes=episodes, feature_names=feature_names)

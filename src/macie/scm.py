"""Structural model of one timestep of a multi-agent system.

The model is a fixed template. The state features ``S`` and the previous
joint action ``PA`` are exogenous, and the equations are:

- ``a{j}`` on ``S`` and ``PA[:, reads[j]]``: each agent's action reads the
  state and the previous actions of the agents in ``reads[j]``;
- ``ns{f}`` on ``S`` and the joint action ``A``, for each dynamic state
  feature ``f``;
- the team reward ``r`` and the termination ``done`` on ``A`` and the next
  state ``NS``.

``reads[j]`` keeps each other agent ``i`` whose previous action correlates
with ``a{j}`` (the inter-agent edge ``prev_a{i} -> a{j}``) and drops the
weakly correlated ones. State features that never change within the
training transitions (goal or landmark coordinates, for example) are
static: they get no equation and are copied through unchanged.

Action nodes are discrete and are fitted as one score regression per
action value with argmax prediction (ties to the lowest action). ``done``
is fitted like ``r``, on the 0/1 target "this transition ended the episode
before the horizon", and a transition ends its episode where it predicts
above 0.5. Equations that share their inputs are fitted as one model: a
run of consecutive agents with equal ``reads``, the dynamic next-state
features, and ``r`` with ``done``. A tree model grows all of a model's
trees in one grower call, after drawing every bootstrap in node, value,
tree order, and walks them down together.

A fitted model steps like a simulator through
:func:`macie.envs.kernels.rollout`: its state is the state features
followed by the previous joint action, ``greedy_actions`` predicts every
action node and ``transition`` predicts the next state, the team reward
and termination. So a replay through the model runs the simulator's step
loop, and its outcome is read off the replayed team rewards and length as
a simulator's is.

Prediction works on row batches (states ``S[B,D]``, joint actions
``A[B,n]``), and each row gets the same value alone as in any batch, so a
batched replay reproduces replays made one episode at a time.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .core import ConfigError, MacieError, OutcomeSpec, rewards_outcome
from .trees import TreeEnsemble

MIN_SAMPLES = 10
DEFAULT_CORR_THRESHOLD = 0.1


def _pearson(x, y):
    sx = float(np.std(x))
    sy = float(np.std(y))
    if sx < 1e-12 or sy < 1e-12:
        return 0.0
    return float(np.mean((x - np.mean(x)) * (y - np.mean(y))) / (sx * sy))


class ConstantMean:
    def fit(self, X, y, rng):
        self.mean = float(np.mean(y))
        return self

    def predict(self, X):
        return np.full(X.shape[0], self.mean)


class Linear:
    def fit(self, X, y, rng):
        A = np.column_stack([np.ones(X.shape[0]), X])
        self.coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
        return self

    def predict(self, X):
        A = np.column_stack([np.ones(X.shape[0]), X])
        # B one-row products, not one (B, k) @ (k,) product: the latter may
        # sum a row in another order, so a row would predict differently
        # alone than in a batch
        return (A[:, None, :] @ self.coef)[:, 0]


MODELS = {
    "constant_mean": ConstantMean,
    "linear": Linear,
    "tree_ensemble": TreeEnsemble,
}
MODEL_NAMES = tuple(MODELS)


def _check_model_name(name):
    if name not in MODELS:
        raise ConfigError(
            f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}"
        )


class _PerTarget:
    """Single-target models, one per target row, that predict ``[M, B]``."""

    def __init__(self, models):
        self.models = models

    def predict(self, X):
        return np.stack([m.predict(X) for m in self.models])


def _fit_targets(name, X, Y, rng):
    """A model of every target row of ``Y[M, n]`` on the inputs ``X``, whose
    ``predict`` gives ``[M, B]``; tree ensembles grow all M in one call."""
    _check_model_name(name)
    if name == "tree_ensemble":
        return TreeEnsemble().fit(X, Y, rng)
    return _PerTarget([MODELS[name]().fit(X, y, rng) for y in Y])


def _assemble_rows(history):
    """Pool (state, prev action, action, next state, reward, done) rows over
    episodes.

    Step ``t`` of an episode gives a row when it has a previous step and a
    known next state: ``1 <= t < length - 1``, or ``t = length - 1`` too
    where the final state is known. ``done`` is 1.0 on the last step of an
    episode that ended before the horizon. Rows run episode by episode.
    """
    t = np.arange(history.horizon)
    usable = (t >= 1) & (t + 1 < (history.length + history.has_final)[:, None])
    e, t = np.nonzero(usable)
    if not len(e):
        raise MacieError("history has no usable transitions (episodes too short)")
    length = history.length[e]
    return (
        history.states[e, t],
        history.actions[e, t - 1],
        history.actions[e, t],
        history.states[e, t + 1],
        history.team[e, t],
        ((t + 1 == length) & (length < history.horizon)).astype(np.float64),
    )


class StructuralCausalModel:
    uses_env_uniforms = False

    def __init__(self):
        self.fitted = False
        self.model_name = None
        self.n_agents = 0
        self.n_features = 0
        self.n_actions = 0
        self.outcome = None
        self.static_features = []
        self.dynamic_features = []
        # reads[j]: the agents whose previous action a{j} reads
        self.reads = []

    # -- graph -------------------------------------------------------------

    def inter_agent_edges(self):
        """Retained (source agent, target agent) influence pairs."""
        return sorted((i, j) for j, reads in enumerate(self.reads) for i in reads)

    def _runs(self):
        """Runs of consecutive agents with equal ``reads``, whose action
        nodes share their inputs and one model."""
        agents = range(self.n_agents)
        return [list(run) for _, run in groupby(agents, self.reads.__getitem__)]

    # -- fitting -----------------------------------------------------------

    def screen(self, history, corr_threshold=DEFAULT_CORR_THRESHOLD):
        """Build the graph from a history without fitting any equation.

        Pools the transition rows, splits the state features into static
        and dynamic ones, and keeps each ``prev_a{i} -> a{j}`` edge whose
        Pearson correlation reaches ``corr_threshold`` in absolute value.
        :meth:`inter_agent_edges` is usable afterwards; the model is not
        fitted. Returns the pooled rows ``(S, PA, A, NS, R, D)``.
        """
        rows = _assemble_rows(history)
        S, PA, A, NS = rows[:4]
        self.fitted = False
        self.n_agents = n = history.n_agents
        self.n_features = S.shape[1]
        self.n_actions = int(A.max()) + 1
        static = np.all(NS == S, axis=0)
        self.static_features = np.flatnonzero(static).tolist()
        self.dynamic_features = np.flatnonzero(~static).tolist()

        def kept(i, j):
            return i != j and abs(_pearson(PA[:, i], A[:, j])) >= corr_threshold

        self.reads = [[i for i in range(n) if kept(i, j)] for j in range(n)]
        return rows

    def fit(
        self,
        history,
        outcome: OutcomeSpec,
        model="tree_ensemble",
        corr_threshold=DEFAULT_CORR_THRESHOLD,
        rng=None,
    ):
        """Screen the graph with :meth:`screen`, then fit every equation.

        The rng feeds the tree bootstraps and is consumed in a fixed node
        order (actions, next states, reward, termination), so a given rng
        state always yields the same fit. ``outcome`` is what
        :meth:`predict_outcome` reads off a replay.
        """
        _check_model_name(model)
        if rng is None:
            rng = np.random.default_rng(0)
        rows = self.screen(history, corr_threshold)
        self.model_name = model
        self.outcome = outcome
        n = rows[0].shape[0]
        if n < MIN_SAMPLES:
            raise MacieError(f"too few samples to fit the model: {n} < {MIN_SAMPLES}")
        # each action node fits one regression per action value
        if self.n_actions > n:
            raise MacieError(
                f"action index {self.n_actions - 1} is not below the {n} pooled "
                f"transitions; the model would fit {self.n_actions} regressions "
                f"per agent"
            )
        models = [_fit_targets(model, X, Y, rng) for _, X, Y in self._equations(*rows)]
        runs = self._runs()
        self._action_models = list(zip(runs, models))
        self._next_state_model = models[len(runs)] if self.dynamic_features else None
        self._reward_model = models[-1]
        self.fitted = True
        return self

    def _equations(self, S, PA, A, NS, R, D):
        """The model's equations on the pooled rows, in fitting order, as
        ``(nodes, X, Y)``: the nodes, their shared inputs ``X`` and their
        targets ``Y[M, rows]``, the same number of target rows per node.

        An action node's targets are one 0/1 score row per action value.
        """
        for run in self._runs():
            X = _columns(S, PA[:, self.reads[run[0]]])
            Y = [A[:, j] == v for j in run for v in range(self.n_actions)]
            yield [f"a{j}" for j in run], X, np.array(Y, dtype=np.float64)
        dynamic = self.dynamic_features
        if dynamic:
            Y = np.ascontiguousarray(NS[:, dynamic].T)
            yield [f"ns{f}" for f in dynamic], _columns(S, A), Y
        yield ["r", "done"], _columns(A, NS), np.array([R, D])

    # -- validation ----------------------------------------------------------

    def validate(self, history, outcome: OutcomeSpec, n_folds=3, rng=None):
        """Out-of-fold R-squared per fitted node, via k-fold refits.

        Each node is refitted alone, fold by fold, in fitting order. Action
        nodes are scored on the predicted action index. A constant target
        scores 1.0 when predicted exactly and 0.0 otherwise. No node
        depends on ``outcome``; it is taken as :meth:`fit` takes it.
        """
        if not self.fitted:
            raise MacieError("fit the model before validating it")
        if n_folds < 2:
            raise ConfigError(f"n_folds must be >= 2, got {n_folds}")
        if rng is None:
            rng = np.random.default_rng(0)
        rows = _assemble_rows(history)
        n = rows[0].shape[0]
        if n < n_folds:
            raise MacieError(f"{n} transitions cannot fill {n_folds} folds")
        if rows[2].max() >= self.n_actions:  # an action target is read off its scores
            raise MacieError(f"the fitted model has no action {rows[2].max()}")

        folds = np.array_split(np.arange(n), n_folds)
        scores = {}
        for nodes, X, Y in self._equations(*rows):
            width = len(Y) // len(nodes)
            for k, node in enumerate(nodes):
                Y_node = Y[k * width : (k + 1) * width]
                pred = np.zeros(n)
                for test_idx in folds:
                    train = np.ones(n, dtype=bool)
                    train[test_idx] = False
                    model = _fit_targets(
                        self.model_name, X[train], Y_node[:, train], rng
                    )
                    pred[test_idx] = _read(node, model.predict(X[test_idx]))
                scores[node] = _r_squared(_read(node, Y_node), pred)
        return scores

    # -- prediction -----------------------------------------------------------

    def _actions(self, S, PA):
        """Every action node's prediction ``[B, n]`` in the states ``S[B, D]``
        that follow the joint actions ``PA[B, n]``: the highest-scoring
        action value, ties to the lowest."""
        out = np.empty((len(S), self.n_agents), dtype=np.int64)
        for run, model in self._action_models:
            scores = model.predict(_columns(S, PA[:, self.reads[run[0]]]))
            out[:, run] = scores.reshape(len(run), self.n_actions, -1).argmax(1).T
        return out

    def predict_action(self, agent, S, PA):
        """Action of ``agent`` in each row of states ``S[B,D]`` that follow
        the joint actions ``PA[B,n]``; an int array ``[B]``."""
        self._require_fitted()
        return self._actions(S, PA)[:, agent]

    def predict_next_state(self, S, A):
        """Next states ``[B,D]`` from states ``S[B,D]`` and joint actions
        ``A[B,n]``; static features are copied through."""
        self._require_fitted()
        out = np.array(S, dtype=np.float64)
        if self.dynamic_features:
            pred = self._next_state_model.predict(_columns(S, A))
            out[:, self.dynamic_features] = pred.T
        return out

    def predict_reward(self, A, NS):
        """Team reward ``[B]`` of joint actions ``A[B,n]`` that lead to next
        states ``NS[B,D]``."""
        self._require_fitted()
        return self._reward_model.predict(_columns(A, NS))[0]

    def predict_outcome(self, team, length):
        """Outcome ``[B]`` of replayed episodes, under the fitted outcome,
        from their team rewards ``team[B, T]`` and lengths ``length[B]``."""
        self._require_fitted()
        return rewards_outcome(team, length, self.outcome)

    def _require_fitted(self):
        if not self.fitted:
            raise MacieError("structural model is not fitted")

    # -- stepping, as a simulator ----------------------------------------------

    def greedy_actions(self, S):
        """Every action node's prediction ``[B, n]`` in the model states
        ``S[B, D + n]``: the state features, then the previous joint action."""
        D = self.n_features
        return self._actions(S[:, :D], S[:, D:])

    def transition(self, s, a, env_u):
        """Apply joint actions ``a[B, n]`` to the model states ``s[B, D + n]``
        in place, as :meth:`macie.envs.Environment.transition` does.

        The model predicts no per-agent reward, so those are NaN, and it
        reads no environment noise. Returns ``(rewards, team, done)``.
        """
        D = self.n_features
        NS = self.predict_next_state(s[:, :D], a)
        team, done = self._reward_model.predict(_columns(a, NS))
        s[:, :D] = NS
        s[:, D:] = a
        return np.full((len(s), self.n_agents), np.nan), team, done > 0.5


def _columns(*blocks):
    """Input rows that hold the blocks' columns side by side."""
    return np.concatenate(blocks, axis=1, dtype=np.float64)


def _read(node, out):
    """A node's values from its rows of a model's output (or of its
    targets): an action node's highest-scoring action value, any other
    node's one row."""
    if node.startswith("a"):
        return np.argmax(out, axis=0).astype(np.float64)
    return out[0]


def _r_squared(target, pred):
    sse = float(np.sum((target - pred) ** 2))
    sst = float(np.sum((target - np.mean(target)) ** 2))
    if sst < 1e-12:
        return 1.0 if sse < 1e-12 else 0.0
    return 1.0 - sse / sst

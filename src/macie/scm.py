"""Structural model of one timestep of a multi-agent system.

The graph is a fixed template over named nodes: state features ``s{f}``,
previous actions ``prev_a{i}``, current actions ``a{i}``, next state
features ``ns{f}``, per-step team reward ``r``, and termination ``done``.
States and previous actions are exogenous. Candidate edges
``prev_a{i} -> a{j}`` (i != j) carry inter-agent influence and are pruned
when the observed correlation is weak; all other edges are structural:
states drive actions, states and actions drive the next state, and actions
and the next state drive the reward and termination. State features that
never change within the training transitions (goal or landmark
coordinates, for example) are treated as episode constants: they get no
transition equation and are copied through unchanged.

Each non-exogenous node gets its own fitted equation. Action nodes are
discrete and are fitted as one score regression per action value with
argmax prediction (ties to the lowest action). ``done`` is fitted like
``r``, on the 0/1 target "this transition ended the episode before the
horizon", and a transition ends its episode where it predicts above 0.5.
Consecutive nodes with one parent list share their input rows, so their
regressions are fitted as one model: an action node's value regressions,
the dynamic next-state features, and ``r`` with ``done``. A tree model
grows all of a run's trees in one grower call, after drawing every
bootstrap in node, value, tree order, and walks them down together.

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
        self.corr_threshold = DEFAULT_CORR_THRESHOLD
        self.static_features = []
        self.parents = {}
        self.equations = {}

    # -- graph -------------------------------------------------------------

    def inter_agent_edges(self):
        """Retained (source agent, target agent) influence pairs."""
        out = []
        for j in range(self.n_agents):
            for name in self.parents.get(f"a{j}", []):
                if name.startswith("prev_a"):
                    out.append((int(name[len("prev_a"):]), j))
        return sorted(out)

    def _build_parents(self, retained):
        s_nodes = [f"s{f}" for f in range(self.n_features)]
        a_nodes = [f"a{i}" for i in range(self.n_agents)]
        ns_nodes = [f"ns{f}" for f in range(self.n_features)]
        parents = {}
        for j in range(self.n_agents):
            parents[f"a{j}"] = s_nodes + [f"prev_a{i}" for i in retained[j]]
        for f in range(self.n_features):
            if f not in self.static_features:
                parents[f"ns{f}"] = s_nodes + a_nodes
        parents["r"] = a_nodes + ns_nodes
        parents["done"] = a_nodes + ns_nodes
        return parents

    # -- fitting -----------------------------------------------------------

    def screen(self, history, corr_threshold=DEFAULT_CORR_THRESHOLD):
        """Build the graph from a history without fitting any equation.

        Pools the transition rows, marks the static state features, keeps
        each ``prev_a{i} -> a{j}`` edge whose Pearson correlation reaches
        ``corr_threshold`` in absolute value, and sets the parents of every
        node. :meth:`inter_agent_edges` is usable afterwards; the model is
        not fitted. Returns the pooled rows ``(S, PA, A, NS, R, D)``.
        """
        rows = _assemble_rows(history)
        S, PA, A, NS = rows[:4]
        self.fitted = False
        self.equations = {}
        self.n_agents = history.n_agents
        self.n_features = S.shape[1]
        self.n_actions = int(A.max()) + 1
        self.corr_threshold = float(corr_threshold)
        self.static_features = [
            f for f in range(self.n_features) if np.all(NS[:, f] == S[:, f])
        ]

        retained = []
        for j in range(self.n_agents):
            keep = []
            for i in range(self.n_agents):
                if i == j:
                    continue
                if abs(_pearson(PA[:, i], A[:, j])) >= self.corr_threshold:
                    keep.append(i)
            retained.append(keep)
        self.parents = self._build_parents(retained)
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
        S, PA, A, NS, R, D = self.screen(history, corr_threshold)
        self.model_name = model
        self.outcome = outcome
        blocks = {"s": S, "prev_a": PA, "a": A, "ns": NS}
        n = S.shape[0]
        if n < MIN_SAMPLES:
            raise MacieError(f"too few samples to fit the model: {n} < {MIN_SAMPLES}")
        # each action node fits one regression per action value
        if self.n_actions > n:
            raise MacieError(
                f"action index {self.n_actions - 1} is not below the {n} pooled "
                f"transitions; the model would fit {self.n_actions} regressions "
                f"per agent"
            )
        targets = self._targets(A, NS, R, D)
        # consecutive nodes with one parent list share a design and one fit
        runs = []
        for node in targets:
            if runs and self.parents[runs[-1][0]] == self.parents[node]:
                runs[-1].append(node)
            else:
                runs.append([node])
        for run in runs:
            X = self._design(run[0], blocks)
            self.equations.update(self._fit_run(run, X, targets, rng))
        self.fitted = True
        return self

    def _targets(self, A, NS, R, D):
        """Training target of each fitted node, in fitting order."""
        targets = {f"a{j}": A[:, j].astype(np.float64) for j in range(self.n_agents)}
        targets.update(
            {
                f"ns{f}": NS[:, f]
                for f in range(self.n_features)
                if f not in self.static_features
            }
        )
        targets["r"] = R
        targets["done"] = D
        return targets

    def _fit_run(self, nodes, X, targets, rng):
        """Equations of ``nodes``, which share the input rows ``X``, fitted
        as one model: an action node gets one score regression per action
        value, any other node one regression.

        Returns ``{node: (model, rows)}``, ``rows`` indexing the node's
        targets in the model's output.
        """
        Y, rows = [], {}
        for node in nodes:
            target = targets[node]
            if node.startswith("a"):
                rows[node] = slice(len(Y), len(Y) + self.n_actions)
                Y += [(target == v).astype(np.float64) for v in range(self.n_actions)]
            else:
                rows[node] = len(Y)
                Y.append(target)
        model = _fit_targets(self.model_name, X, np.array(Y), rng)
        return {node: (model, rows[node]) for node in nodes}

    def _predict(self, nodes, blocks):
        """Each of ``nodes``' predictions on the parent ``blocks``, one model
        call per fitted run: an action node gives its argmax action (ties to
        the lowest), any other node its regression."""
        out = {}
        for node in nodes:
            if node in out:
                continue
            model = self.equations[node][0]
            pred = model.predict(self._design(node, blocks))
            for other, (fitted, rows) in self.equations.items():
                if fitted is model:
                    out[other] = _read(other, pred[rows])
        return [out[node] for node in nodes]

    def _design(self, node, blocks):
        """Input rows of ``node``'s equation: one column per parent.

        ``blocks`` maps a node prefix (``s``, ``prev_a``, ``a``, ``ns``) to
        a ``[B, width]`` array whose column ``k`` holds node ``{prefix}{k}``.
        Fitting, validation and prediction all build their inputs here.
        """
        feats = self.parents[node]
        B = next(iter(blocks.values())).shape[0]
        X = np.empty((B, len(feats)))
        for k, name in enumerate(feats):
            prefix = name.rstrip("0123456789")
            X[:, k] = blocks[prefix][:, int(name[len(prefix):])]
        return X

    # -- validation ----------------------------------------------------------

    def validate(self, history, outcome: OutcomeSpec, n_folds=3, rng=None):
        """Out-of-fold R-squared per fitted node, via k-fold refits.

        Action nodes are scored on the predicted action index. A constant
        target scores 1.0 when predicted exactly and 0.0 otherwise. No node
        depends on ``outcome``; it is taken as :meth:`fit` takes it.
        """
        if not self.fitted:
            raise MacieError("fit the model before validating it")
        if n_folds < 2:
            raise ConfigError(f"n_folds must be >= 2, got {n_folds}")
        if rng is None:
            rng = np.random.default_rng(0)
        S, PA, A, NS, R, D = _assemble_rows(history)
        n = S.shape[0]
        if n < n_folds:
            raise MacieError(f"{n} transitions cannot fill {n_folds} folds")
        blocks = {"s": S, "prev_a": PA, "a": A, "ns": NS}

        folds = np.array_split(np.arange(n), n_folds)
        scores = {}
        for node, target in self._targets(A, NS, R, D).items():
            X = self._design(node, blocks)
            pred = np.zeros(n)
            for test_idx in folds:
                train = np.ones(n, dtype=bool)
                train[test_idx] = False
                model, rows = self._fit_run(
                    [node], X[train], {node: target[train]}, rng
                )[node]
                pred[test_idx] = _read(node, model.predict(X[test_idx])[rows])
            scores[node] = _r_squared(target, pred)
        return scores

    # -- prediction -----------------------------------------------------------

    def predict_action(self, agent, S, PA):
        """Action of ``agent`` in each row of states ``S[B,D]`` that follow
        the joint actions ``PA[B,n]``; an int array ``[B]``."""
        self._require_fitted()
        (a,) = self._predict([f"a{agent}"], {"s": S, "prev_a": PA})
        return a.astype(np.int64)

    def predict_next_state(self, S, A):
        """Next states ``[B,D]`` from states ``S[B,D]`` and joint actions
        ``A[B,n]``; static features are copied through."""
        self._require_fitted()
        out = np.array(S, dtype=np.float64)
        dynamic = [f for f in range(self.n_features) if f not in self.static_features]
        pred = self._predict([f"ns{f}" for f in dynamic], {"s": S, "a": A})
        for f, values in zip(dynamic, pred):
            out[:, f] = values
        return out

    def predict_reward(self, A, NS):
        """Team reward ``[B]`` of joint actions ``A[B,n]`` that lead to next
        states ``NS[B,D]``."""
        self._require_fitted()
        return self._predict(["r"], {"a": A, "ns": NS})[0]

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
        nodes = [f"a{j}" for j in range(self.n_agents)]
        acts = self._predict(nodes, {"s": S[:, :D], "prev_a": S[:, D:]})
        return np.stack(acts, axis=1).astype(np.int64)

    def transition(self, s, a, env_u):
        """Apply joint actions ``a[B, n]`` to the model states ``s[B, D + n]``
        in place, as :meth:`macie.envs.Environment.transition` does.

        The model predicts no per-agent reward, so those are NaN, and it
        reads no environment noise. Returns ``(rewards, team, done)``.
        """
        D = self.n_features
        NS = self.predict_next_state(s[:, :D], a)
        team, done = self._predict(["r", "done"], {"a": a, "ns": NS})
        done = done > 0.5
        s[:, :D] = NS
        s[:, D:] = a
        return np.full((len(s), self.n_agents), np.nan), team, done


def _read(node, out):
    """A node's prediction from its rows of its model's output."""
    if node.startswith("a"):
        return np.argmax(out, axis=0).astype(np.float64)
    return out


def _r_squared(target, pred):
    sse = float(np.sum((target - pred) ** 2))
    sst = float(np.sum((target - np.mean(target)) ** 2))
    if sst < 1e-12:
        return 1.0 if sse < 1e-12 else 0.0
    return 1.0 - sse / sst

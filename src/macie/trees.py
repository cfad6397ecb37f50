"""Bagged regression trees used as structural-equation models.

Trees are grown breadth-first into flat arrays. Bootstrap resampling enters
as integer row weights, and columns are presorted once per fit, so each
split is a single weighted scan per feature. Splits minimise weighted
squared error; ties go to the first (feature, boundary) encountered,
thresholds sit midway between adjacent distinct values, which keeps fits
reproducible across runs. Prediction walks every row of a batch down the
tree at once, one level per step, so a row predicts the same alone as in
any batch.
"""

from __future__ import annotations

import numpy as np

from .core import ConfigError


def grow_tree(X, order, y, w, max_depth, min_leaf):
    n, d = X.shape
    max_nodes = 2 ** (max_depth + 1) - 1
    feat = np.full(max_nodes, -1, np.int64)
    thr = np.zeros(max_nodes)
    left = np.full(max_nodes, -1, np.int64)
    right = np.full(max_nodes, -1, np.int64)
    value = np.zeros(max_nodes)
    depth_of = np.zeros(max_nodes, np.int64)
    node_of = np.full(n, -1, np.int64)
    for i in range(n):
        if w[i] > 0.0:
            node_of[i] = 0
    n_nodes = 1
    node = 0
    while node < n_nodes:
        tw = 0.0
        twy = 0.0
        twyy = 0.0
        for i in range(n):
            if node_of[i] == node:
                wi = w[i]
                tw += wi
                twy += wi * y[i]
                twyy += wi * y[i] * y[i]
        value[node] = twy / tw
        sse_total = twyy - twy * twy / tw
        if depth_of[node] >= max_depth or sse_total <= 1e-12 or tw < 2.0 * min_leaf:
            node += 1
            continue
        best_sse = sse_total
        best_f = -1
        best_thr = 0.0
        for f in range(d):
            lw = 0.0
            lwy = 0.0
            lwyy = 0.0
            prev_x = 0.0
            have_prev = False
            for k in range(n):
                i = order[k, f]
                if node_of[i] != node:
                    continue
                xi = X[i, f]
                if have_prev and xi != prev_x:
                    rw = tw - lw
                    if lw >= min_leaf and rw >= min_leaf:
                        sse = (lwyy - lwy * lwy / lw) + (
                            (twyy - lwyy) - (twy - lwy) * (twy - lwy) / rw
                        )
                        if sse < best_sse - 1e-12:
                            best_sse = sse
                            best_f = f
                            # the midpoint of adjacent doubles can round up
                            # to xi; clamp so the right child stays nonempty
                            cand = 0.5 * (prev_x + xi)
                            if cand >= xi:
                                cand = prev_x
                            best_thr = cand
                wi = w[i]
                lw += wi
                lwy += wi * y[i]
                lwyy += wi * y[i] * y[i]
                prev_x = xi
                have_prev = True
        if best_f < 0:
            node += 1
            continue
        li = n_nodes
        ri = n_nodes + 1
        n_nodes += 2
        feat[node] = best_f
        thr[node] = best_thr
        left[node] = li
        right[node] = ri
        depth_of[li] = depth_of[node] + 1
        depth_of[ri] = depth_of[node] + 1
        for i in range(n):
            if node_of[i] == node:
                if X[i, best_f] <= best_thr:
                    node_of[i] = li
                else:
                    node_of[i] = ri
        node += 1
    return (
        feat[:n_nodes],
        thr[:n_nodes],
        left[:n_nodes],
        right[:n_nodes],
        value[:n_nodes],
    )


def tree_predict(X, feat, thr, left, right, value):
    node = np.zeros(X.shape[0], np.int64)
    while True:
        f = feat[node]
        inner = np.nonzero(f >= 0)[0]
        if inner.size == 0:
            return value[node]
        at = node[inner]
        go_left = X[inner, f[inner]] <= thr[at]
        node[inner] = np.where(go_left, left[at], right[at])


class TreeEnsemble:
    """Mean of ``n_trees`` bagged regression trees."""

    def __init__(self, n_trees=10, max_depth=5, min_leaf=1):
        if n_trees < 1 or max_depth < 1 or min_leaf < 1:
            raise ConfigError(
                f"invalid tree settings: n_trees={n_trees} "
                f"max_depth={max_depth} min_leaf={min_leaf}"
            )
        self.n_trees = int(n_trees)
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)
        self.trees = []

    def fit(self, X, y, rng):
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        n = X.shape[0]
        if n < 1:
            raise ConfigError("cannot fit a tree ensemble on zero rows")
        order = np.ascontiguousarray(
            np.argsort(X, axis=0, kind="stable").astype(np.int64)
        )
        self.trees = []
        for _ in range(self.n_trees):
            counts = np.bincount(rng.integers(0, n, n), minlength=n)
            w = counts.astype(np.float64)
            self.trees.append(
                grow_tree(X, order, y, w, self.max_depth, float(self.min_leaf))
            )
        return self

    def predict(self, X):
        X = np.ascontiguousarray(X, dtype=np.float64)
        if not self.trees:
            raise ConfigError("tree ensemble is not fitted")
        total = np.zeros(X.shape[0])
        for feat, thr, left, right, value in self.trees:
            total += tree_predict(X, feat, thr, left, right, value)
        return total / len(self.trees)

    def to_dict(self):
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "trees": [
                {
                    "feature": feat.tolist(),
                    "threshold": thr.tolist(),
                    "left": left.tolist(),
                    "right": right.tolist(),
                    "value": value.tolist(),
                }
                for feat, thr, left, right, value in self.trees
            ],
        }

    @classmethod
    def from_dict(cls, data):
        model = cls(data["n_trees"], data["max_depth"], data["min_leaf"])
        model.trees = [
            (
                np.asarray(t["feature"], dtype=np.int64),
                np.asarray(t["threshold"], dtype=np.float64),
                np.asarray(t["left"], dtype=np.int64),
                np.asarray(t["right"], dtype=np.int64),
                np.asarray(t["value"], dtype=np.float64),
            )
            for t in data["trees"]
        ]
        return model

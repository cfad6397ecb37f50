"""Bagged regression trees used as structural-equation models.

Trees are grown breadth-first into flat arrays. Bootstrap resampling enters
as integer row weights, and columns are presorted once per fit. Every tree
fitted on one design matrix grows in one grower call, one depth level per
step, as level-wise boosting libraries grow theirs (Chen & Guestrin, KDD
2016): each node keeps its rows sorted by every feature, as an index matrix
that a split partitions stably, and a step pads the nodes of a level to a
common length so numpy prefix sums of the weights score every feature and
boundary of every node at once. Each node's sums run from its first row in
the order a row-by-row scan forms them, which keeps fits bit-for-bit
reproducible. Splits minimise weighted squared error; ties go to the first
(feature, boundary) encountered, thresholds sit midway between adjacent
distinct values. Fitted trees are stacked into one child table, and
prediction walks every (tree, row) pair down at once, one level per step,
so a row predicts the same alone as in any batch.
"""

from __future__ import annotations

import numpy as np

from .core import ConfigError

# padded (node, feature, row) elements one grower step holds; it also sets
# the trees grown per pass, so a fit's memory stays flat in its tree count
_PASS_ELEMS = 1 << 15
# (tree, row) pairs one prediction walk steps together
_WALK_ELEMS = 1 << 13


def _running_sums(a):
    # sums as the loop ``s = 0.0; s += a[0]; s += a[1]; ...`` forms them:
    # cumsum is sequential too but starts from a[0], and adding 0.0 turns
    # the -0.0 of an all-(-0.0) prefix into the loop's 0.0
    return np.cumsum(a, axis=-1) + 0.0


def _last_record(sse, start):
    """Index of the split that the scan "take the first sse below
    best - 1e-12, then raise the bar to it" ends on, or -1.

    This is not the argmin: a later split less than 1e-12 better than the
    current best does not replace it.
    """
    # a record lies below every earlier candidate, so only the strict
    # running minima need the scan
    strict = np.ones(sse.size, bool)
    strict[1:] = sse[1:] < np.minimum.accumulate(sse)[:-1]
    best, at = start, -1
    for c in np.flatnonzero(strict).tolist():
        if sse[c] < best - 1e-12:
            best, at = sse[c], c
    return at


def _choose_splits(sse, node, start):
    """:func:`_last_record` of each node's candidates, from its ``start``.

    ``sse`` runs node by node (``node`` is nondecreasing), each node's in
    (feature, boundary) order. Returns, per node, the index in ``sse`` of
    its split, or -1. Where a node's first argmin beats its start and
    every earlier candidate by more than 1e-12, the scan ends on it; where
    even the minimum misses the start's bar, it takes none; only nodes in
    between run the scan.
    """
    best = np.full(len(start), -1)
    bounds = np.searchsorted(node, np.arange(len(start) + 1))
    count = bounds[1:] - bounds[:-1]
    owner = np.flatnonzero(count)
    if not owner.size:
        return best
    first, count = bounds[owner], count[owner]
    low = np.minimum.reduceat(sse, first)
    pos = np.arange(sse.size)
    at = np.where(sse == np.repeat(low, count), pos, sse.size)
    at = np.minimum.reduceat(at, first)
    earlier = np.where(pos < np.repeat(at, count), sse, np.inf)
    bar = np.minimum(np.minimum.reduceat(earlier, first), start[owner]) - 1e-12
    took = low < bar
    best[owner[took]] = at[took]
    for s in np.flatnonzero(~took & (low < start[owner] - 1e-12)).tolist():
        lo = first[s]
        at = _last_record(sse[lo:lo + count[s]], start[owner[s]])
        best[owner[s]] = lo + at if at >= 0 else -1
    return best


def grow_tree(X, order, Y, W, max_depth, min_leaf):
    """One tree for each target row of ``Y[q, n]`` with row weights
    ``W[q, n]``, all on the inputs ``X[n, d]`` whose columns ``order``
    sorts; a list of ``(feature, threshold, left, right, value)`` arrays.

    Trees grow in passes of a few at a time, so the memory a call holds
    beyond ``Y``, ``W`` and the trees does not grow with ``q``.
    """
    n, d = X.shape
    per_pass = max(1, _PASS_ELEMS // (n * d))
    xt = np.ascontiguousarray(X.T)
    trees = []
    for lo in range(0, len(Y), per_pass):
        hi = lo + per_pass
        trees += _grow_pass(xt, order, Y[lo:hi], W[lo:hi], max_depth, min_leaf)
    return trees


def _grow_pass(xt, order, Y, W, max_depth, min_leaf):
    """The trees of one pass, grown together one depth level per step."""
    d, n = xt.shape
    P = len(Y)
    # the weights and the weighted first and second moments of each row;
    # tree p's row i sits at p * n + i
    stats = np.stack([W, W * Y, W * Y * Y]).reshape(3, P * n)
    keep = W > 0.0
    # the level's nodes: tree, number in the tree, and where their rows sit:
    # ``rows[off:off + size]`` in index order (the order totals are summed
    # in), ``idx[d * off:d * (off + size)]`` as a [d, size] block whose row
    # f is sorted by feature f
    tree = np.arange(P)
    nid = np.zeros(P, np.int64)
    size = np.count_nonzero(keep, axis=1)
    off = np.cumsum(size) - size
    rows = np.flatnonzero(keep)
    idx = (order.T + n * tree[:, None, None])[keep[:, order.T]]
    # which side of its node's split each row goes to
    goes = np.zeros(P * n, bool)
    n_nodes = np.ones(P, np.int64)
    levels = []
    for depth in range(max_depth + 1):
        N = len(size)
        feat = np.full(N, -1, np.int64)
        thr = np.zeros(N)
        value = np.empty(N)
        kids = []
        by_size = np.argsort(-size, kind="stable")
        lo = 0
        while lo < N:
            # the largest nodes first, so a step pads its nodes little
            c = by_size[lo:lo + max(1, _PASS_ELEMS // (d * int(size[by_size[lo]])))]
            lo += len(c)
            kids += _grow_step(
                xt, stats, rows, idx, goes, c, tree[c] * n, off[c], size[c],
                depth < max_depth, min_leaf, feat, thr, value,
            )
        split = np.flatnonzero(feat >= 0)
        t = tree[split]
        # children are numbered after every node so far, in parent order
        left = np.full(N, -1, np.int64)
        left[split] = n_nodes[t] + 2 * (np.arange(split.size) - np.searchsorted(t, t))
        right = np.where(left >= 0, left + 1, -1)
        n_nodes += 2 * np.bincount(t, minlength=P)
        levels.append((tree, nid, feat, thr, left, right, value))
        if not kids:
            break
        parent, side, size, rows, idx = (np.concatenate(part) for part in zip(*kids))
        off = np.cumsum(size) - size
        tree, nid = tree[parent], left[parent] + side
        ordered = np.lexsort((nid, tree))
        tree, nid, size, off = tree[ordered], nid[ordered], size[ordered], off[ordered]
    tree, nid, *arrays = (np.concatenate(part) for part in zip(*levels))
    ordered = np.lexsort((nid, tree))
    cuts = np.cumsum(n_nodes)[:-1]
    return list(zip(*(np.split(a[ordered], cuts) for a in arrays)))


def _prefix_sums(stat, g, at):
    """Prefix sums of ``stat`` over each row of ``g``, read at the flat
    positions ``at``.

    They skip the + 0.0 of :func:`_running_sums`: a weight or second moment
    is never -0.0, and a first moment's sign of zero changes no split score.
    """
    sums = np.take(stat, g)
    np.cumsum(sums, axis=-1, out=sums)
    return sums.reshape(-1)[at]


def _grow_step(xt, stats, rows, idx, goes, c, base, off, size, deeper,
               min_leaf, feat, thr, value):
    """Score and split the level's nodes ``c``, largest first.

    Rows are numbered ``tree * n + i`` as in ``stats``; ``base`` is each
    node's ``tree * n``. Writes each node's value, and the feature and
    threshold of each node it splits, into the level's arrays; returns the
    children as a list of one ``(parent, side, size, rows, idx)`` tuple, or
    an empty list.
    """
    d, n = xt.shape
    L = int(size[0])
    # a node is padded to L columns with its last row, so the padding adds
    # nothing to a prefix and opens no boundary
    pos = np.minimum(np.arange(L), size[:, None] - 1)
    tw, twy, twyy = _running_sums(
        np.take(stats, rows[off[:, None] + pos], axis=1)
    )[:, np.arange(len(c)), size - 1]
    value[c] = twy / tw
    sse_total = twyy - twy * twy / tw
    go = np.flatnonzero(
        deeper & (size > 1) & (sse_total > 1e-12) & (tw >= 2.0 * min_leaf)
    )
    if not go.size:
        return []
    c, base, off, size, pos = c[go], base[go], off[go], size[go], pos[go]
    tw, twy, twyy, sse_total = tw[go], twy[go], twyy[go], sse_total[go]
    L = int(size[0])
    pos = pos[:, :L]
    # g[node, f] holds the node's rows sorted by feature f; candidate
    # (f, k) puts rows 0..k of g[node, f] on the left, where a boundary
    # between distinct values of feature f falls after row k
    blocks = (d * off + size * np.arange(d)[:, None]).T
    g = idx[blocks[:, :, None] + pos[:, None, :]]
    xs = xt.reshape(-1)[g + (n * np.arange(d) - base[:, None])[:, :, None]]
    at = np.flatnonzero(xs[..., 1:] != xs[..., :-1])
    del xs  # before the prefix sums, which hold as much again
    at += at // (L - 1)  # the same positions in g
    # with min_leaf weight on each side
    lw = _prefix_sums(stats[0], g, at)
    node = at // (d * L)
    fit = (lw >= min_leaf) & (tw[node] - lw >= min_leaf)
    at, lw, node = at[fit], lw[fit], node[fit]
    lwy = _prefix_sums(stats[1], g, at)
    lwyy = _prefix_sums(stats[2], g, at)
    rest = twy[node] - lwy
    sse = (lwyy - lwy * lwy / lw) + (
        (twyy[node] - lwyy) - rest * rest / (tw[node] - lw)
    )
    best = _choose_splits(sse, node, sse_total)
    ok = np.flatnonzero(best >= 0)
    if not ok.size:
        return []
    at = at[best[ok]]
    bf = at // L % d
    base = base[ok]
    prev_x = xt[bf, g.reshape(-1)[at] - base]
    xi = xt[bf, g.reshape(-1)[at + 1] - base]
    # the midpoint of adjacent doubles can round up to xi; clamp so the
    # right child stays nonempty
    bt = 0.5 * (prev_x + xi)
    bt = np.where(bt >= xi, prev_x, bt)
    c, off, size = c[ok], off[ok], size[ok]
    feat[c] = bf
    thr[c] = bt
    # part each node's rows stably: the left children's blocks, then the
    # right children's, each in node order
    real = np.arange(L) < size[:, None]
    r = rows[off[:, None] + pos[ok]]
    left = xt[bf[:, None], r - base[:, None]] <= bt[:, None]
    goes[r] = left
    right = ~left & real
    left &= real
    g = g[ok]
    left_g = goes[g]
    real = real[:, None, :]
    return [(
        np.concatenate([c, c]),
        np.repeat(np.array([0, 1]), ok.size),
        np.concatenate([np.count_nonzero(left, axis=1), np.count_nonzero(right, axis=1)]),
        np.concatenate([r[left], r[right]]),
        np.concatenate([g[left_g & real], g[~left_g & real]]),
    )]


def walk_table(trees):
    """The child table that :func:`tree_predict` walks for a list of trees.

    Returns ``(feat, thr, kids, value, roots, levels)``: node arrays with
    each tree's indices offset, ``kids[2k]`` and ``kids[2k + 1]`` node k's
    right and left child, the root of each tree and the depth of the
    deepest. A leaf routes every row back to itself, through feature 0 and
    an infinite threshold, so rows walk in step without sorting out the
    ones that have landed.
    """
    sizes = [tree[0].size for tree in trees]
    roots = np.cumsum([0] + sizes[:-1], dtype=np.int64)
    feat, thr, left, right, value = (
        np.concatenate(part) for part in zip(*trees)
    )
    leaf = feat < 0
    shift = np.repeat(roots, sizes)
    own = np.arange(feat.size)
    kids = np.empty(2 * feat.size, np.int64)
    kids[0::2] = np.where(leaf, own, right + shift)
    kids[1::2] = np.where(leaf, own, left + shift)
    levels = 0
    nodes = roots
    while True:
        nodes = nodes[~leaf[nodes]]
        if not nodes.size:
            break
        nodes = np.concatenate([kids[2 * nodes], kids[2 * nodes + 1]])
        levels += 1
    return np.where(leaf, 0, feat), np.where(leaf, np.inf, thr), kids, value, roots, levels


def tree_predict(X, feat, thr, kids, value, roots, levels):
    """Leaf values ``[len(roots), len(X)]`` of every row of ``X`` in the
    trees of a :func:`walk_table` rooted at ``roots``."""
    n, d = X.shape
    node = np.repeat(roots, n).reshape(len(roots), n)
    start = np.arange(n) * d  # row offsets in flat X
    X = np.ascontiguousarray(X).reshape(-1)
    for _ in range(levels):
        node = kids[2 * node + (X[start + feat[node]] <= thr[node])]
    return value[node]


class TreeEnsemble:
    """Mean of ``n_trees`` bagged regression trees, one mean per target.

    ``fit`` takes one target ``y[n]`` or the targets ``Y[M, n]`` of M
    regressions on the same inputs, which grow in one grower call;
    ``predict`` answers ``[B]`` or ``[M, B]`` alike.
    """

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
        self.n_features = 0
        self._target_shape = ()
        self._table = None

    def fit(self, X, y, rng):
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        n = X.shape[0]
        if n < 1:
            raise ConfigError("cannot fit a tree ensemble on zero rows")
        if y.ndim not in (1, 2) or y.shape[-1] != n:
            raise ConfigError(f"targets of shape {y.shape} do not match {n} rows")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ConfigError("cannot fit a tree ensemble on non-finite values")
        order = np.ascontiguousarray(
            np.argsort(X, axis=0, kind="stable").astype(np.int64)
        )
        Y = np.repeat(y.reshape(-1, n), self.n_trees, axis=0)
        # one bootstrap per tree, drawn target by target, tree by tree
        W = np.empty(Y.shape)
        for k in range(len(W)):
            W[k] = np.bincount(rng.integers(0, n, n), minlength=n)
        self.trees = grow_tree(
            X, order, Y, W, self.max_depth, float(self.min_leaf)
        )
        self.n_features = X.shape[1]
        self._target_shape = y.shape[:-1]
        self._table = walk_table(self.trees)
        return self

    def predict(self, X):
        X = np.ascontiguousarray(X, dtype=np.float64)
        if not self.trees:
            raise ConfigError("tree ensemble is not fitted")
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ConfigError(
                f"tree ensemble was fitted on {self.n_features} columns, "
                f"got rows of shape {X.shape}"
            )
        feat, thr, kids, value, roots, levels = self._table
        T, n = self.n_trees, X.shape[0]
        total = np.zeros((len(roots) // T, n))
        # whole ensembles per walk; each sums its trees in order
        step = max(1, _WALK_ELEMS // (T * max(n, 1)))
        for lo in range(0, len(total), step):
            part = total[lo:lo + step]
            per_tree = tree_predict(
                X, feat, thr, kids, value, roots[lo * T:(lo + step) * T], levels
            )
            for t in range(T):
                part += per_tree[t::T]
        total /= T
        return total.reshape(self._target_shape + (n,))

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

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from macie import ConfigError, TreeEnsemble
from macie import trees
from macie.trees import grow_tree, tree_predict, walk_table


# the row-by-row grower that the vectorised ``grow_tree`` replaced; it is the
# oracle the vectorised one must match byte for byte
def _grow_tree_reference(X, order, y, w, max_depth, min_leaf):
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



def _r2(y, pred):
    ss = float(np.sum((y - pred) ** 2))
    tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss / tot


def test_settings_are_validated():
    with pytest.raises(ConfigError):
        TreeEnsemble(n_trees=0)
    with pytest.raises(ConfigError):
        TreeEnsemble(max_depth=0)
    with pytest.raises(ConfigError):
        TreeEnsemble(min_leaf=0)
    with pytest.raises(ConfigError):
        TreeEnsemble().predict(np.zeros((1, 2)))
    with pytest.raises(ConfigError):
        TreeEnsemble().fit(np.zeros((0, 2)), np.zeros(0), np.random.default_rng(0))
    for bad in (np.nan, np.inf, -np.inf):
        X = np.zeros((4, 2))
        X[2, 1] = bad
        with pytest.raises(ConfigError, match="non-finite"):
            TreeEnsemble().fit(X, np.zeros(4), np.random.default_rng(0))
        y = np.zeros(4)
        y[3] = bad
        with pytest.raises(ConfigError, match="non-finite"):
            TreeEnsemble().fit(np.zeros((4, 2)), y, np.random.default_rng(0))


def test_fits_a_nonlinear_surface():
    rng = np.random.default_rng(0)
    X = rng.random((400, 2))
    y = np.where(X[:, 0] > 0.5, 1.0, 0.0) * (1.0 + X[:, 1])
    model = TreeEnsemble().fit(X, y, np.random.default_rng(1))
    assert _r2(y, model.predict(X)) > 0.9
    # a linear least-squares fit cannot express the jump
    A = np.column_stack([X, np.ones(len(X))])
    beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    assert _r2(y, A @ beta) < 0.8


def test_fit_is_deterministic_given_the_rng():
    rng = np.random.default_rng(3)
    X = rng.random((120, 3))
    y = X[:, 0] * X[:, 1] - X[:, 2]
    probe = rng.random((30, 3))
    a = TreeEnsemble().fit(X, y, np.random.default_rng(9)).predict(probe)
    b = TreeEnsemble().fit(X, y, np.random.default_rng(9)).predict(probe)
    assert np.array_equal(a, b)
    c = TreeEnsemble().fit(X, y, np.random.default_rng(10)).predict(probe)
    assert not np.array_equal(a, c)


def test_large_min_leaf_forces_a_constant():
    rng = np.random.default_rng(2)
    X = rng.random((40, 2))
    y = rng.random(40)
    model = TreeEnsemble(min_leaf=40).fit(X, y, np.random.default_rng(0))
    pred = model.predict(rng.random((25, 2)))
    assert np.ptp(pred) == 0.0
    assert abs(pred[0] - y.mean()) < 0.15


def test_split_between_adjacent_doubles_keeps_both_children():
    # 0.5 * (0.3 + nextafter(0.3)) rounds up to the larger double; the
    # threshold must clamp down or every row lands in the left child
    a = 0.3
    b = float(np.nextafter(a, np.inf))
    X = np.array([[a], [b]])
    y = np.array([0.0, 1.0])
    order = np.argsort(X, axis=0, kind="stable").astype(np.int64)
    (tree,) = grow_tree(X, order, y[None], np.ones((1, 2)), 1, 1.0)
    feat, thr = tree[:2]
    assert feat[0] == 0
    assert thr[0] == a
    pred = tree_predict(X, *walk_table([tree]))[0]
    assert np.array_equal(pred, y)


def test_cumulative_grid_coordinates_fit_cleanly():
    # coordinates advancing in 0.1 steps produce many adjacent-double
    # boundaries; the fit must stay finite and faithful
    steps = np.cumsum(np.full(64, 0.1))
    X = np.column_stack([steps, steps[::-1]])
    y = (steps > 3.2).astype(np.float64)
    model = TreeEnsemble(n_trees=6).fit(X, y, np.random.default_rng(0))
    pred = model.predict(X)
    assert np.all(np.isfinite(pred))
    assert _r2(y, pred) > 0.9


# sha256 of one fixed ensemble's ``to_dict()`` (canonical JSON) and of its
# predictions' bytes, recorded from the per-row tree kernels that the
# vectorised ones replaced
GOLDEN_TREE = (
    "a2ce73f81bed651878ef0f34a0dae91147ee1c6dc4a5f6e21e52fd33143008ed",
    "ce2fbb20f8c9d071e7fdcac012ba4c477e30d1522adc879a537501585c5f8bd6",
)


def test_fixed_ensemble_matches_golden_digests():
    rng = np.random.default_rng(11)
    X = rng.random((60, 3))
    X[:, 2] = np.round(X[:, 2] * 4)
    y = np.sin(5.0 * X[:, 0]) + X[:, 1] * X[:, 2]
    model = TreeEnsemble(n_trees=3, max_depth=4).fit(
        X, y, np.random.default_rng(12)
    )
    probe = rng.random((40, 3))
    probe[:, 2] = np.round(probe[:, 2] * 4)
    # rows lying exactly on the first tree's split thresholds go left
    feat, thr = model.trees[0][:2]
    probe = np.vstack([probe, np.repeat(thr[feat >= 0][:, None], 3, axis=1)])
    blob = json.dumps(model.to_dict(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == GOLDEN_TREE[0]
    pred = model.predict(probe)
    assert hashlib.sha256(pred.tobytes()).hexdigest() == GOLDEN_TREE[1]


def _random_case(rng, case):
    n = int(rng.integers(2, 150))
    d = int(rng.integers(1, 6))
    X = rng.random((n, d))
    for j in range(d):
        kind = rng.integers(4)
        if kind == 1:  # small integers, many ties
            X[:, j] = rng.integers(0, 4, n)
        elif kind == 2:  # rounded
            X[:, j] = np.round(X[:, j], 1)
        elif kind == 3:  # near-constant: a few rows one ulp above the rest
            X[:, j] = np.where(
                rng.random(n) < 0.1, np.nextafter(0.3, 1.0), 0.3
            )
    if d > 1 and rng.random() < 0.3:
        # the same partitions under another feature, summed in another order
        X[:, 1] = -X[:, 0]
    kind = rng.integers(3)
    if kind == 1:
        y = (rng.random(n) < 0.5).astype(np.float64)
    elif kind == 2:  # mostly zeros of both signs
        y = np.round(0.3 * rng.normal(size=n))
    else:
        y = rng.normal(size=n)
    # bootstrap counts: some rows drawn several times, some not at all
    w = np.bincount(rng.integers(0, n, n), minlength=n).astype(np.float64)
    order = np.argsort(X, axis=0, kind="stable").astype(np.int64)
    return X, order, y, w, case % 6 + 1, float(case // 6 % 3 + 1)


def _random_group(rng, case, y):
    """Targets of several trees grown in one call on the rows of ``y``:
    ``y`` and more like it, or every case in ten the one-hot columns of an
    integer target, as an action node's regressions are."""
    n = y.size
    if case % 10 == 0:
        target = rng.integers(0, int(rng.integers(2, 6)), n)
        return [y] + [(target == v).astype(np.float64) for v in range(target.max() + 1)]
    return [y] + [rng.normal(size=n) for _ in range(int(rng.integers(0, 3)))]


def test_grow_tree_matches_the_row_by_row_reference(monkeypatch):
    rng = np.random.default_rng(20)
    for case in range(300):
        X, order, y, w, max_depth, min_leaf = _random_case(rng, case)
        Y = np.array(_random_group(rng, case, y))
        W = np.array(
            [w] + [np.bincount(rng.integers(0, y.size, y.size), minlength=y.size)
                   for _ in Y[1:]],
            dtype=np.float64,
        )
        with monkeypatch.context() as patch:
            # groups that span several passes: two trees a pass, a few
            # nodes a step; or one tree a pass, one node a step
            if case % 7 == 3:
                patch.setattr(trees, "_PASS_ELEMS", 2 * X.size)
            elif case % 7 == 5:
                patch.setattr(trees, "_PASS_ELEMS", 1)
            got = grow_tree(X, order, Y, W, max_depth, min_leaf)
        assert len(got) == len(Y), case
        for tree, y_tree, w_tree in zip(got, Y, W):
            want = _grow_tree_reference(X, order, y_tree, w_tree, max_depth, min_leaf)
            for g, r in zip(tree, want):
                assert g.dtype == r.dtype and g.tobytes() == r.tobytes(), case


def test_ensemble_walk_matches_single_trees_and_single_rows():
    rng = np.random.default_rng(21)
    X = rng.random((90, 3))
    X[:, 1] = rng.integers(0, 3, 90)
    X[:, 2] = np.round(X[:, 2], 1)
    y = np.cos(4.0 * X[:, 0]) + X[:, 1] - X[:, 2]
    model = TreeEnsemble(n_trees=5, max_depth=4).fit(X, y, rng)
    probe = rng.random((30, 3))
    for feat, thr, *_ in model.trees:
        # rows lying exactly on split thresholds
        probe = np.vstack([probe, np.repeat(thr[feat >= 0][:, None], 3, axis=1)])
    batch = model.predict(probe)
    alone = np.concatenate([model.predict(row[None]) for row in probe])
    assert batch.tobytes() == alone.tobytes()
    total = np.zeros(len(probe))
    for tree in model.trees:
        total += tree_predict(probe, *walk_table([tree]))[0]
    assert batch.tobytes() == (total / len(model.trees)).tobytes()


def test_predict_checks_the_column_count():
    rng = np.random.default_rng(22)
    model = TreeEnsemble(n_trees=2).fit(
        rng.random((30, 3)), rng.random(30), np.random.default_rng(0)
    )
    for shape in [(5, 4), (5, 2), (5,), (5, 3, 1)]:
        with pytest.raises(ConfigError, match="fitted on 3 columns"):
            model.predict(np.zeros(shape))
    assert model.predict(np.zeros((5, 3))).shape == (5,)


def test_one_fit_of_many_targets_matches_one_fit_per_target(monkeypatch):
    # one grower call and one stacked walk give each target's ensemble the
    # bits it has fitted alone, drawing its bootstraps in the same order
    rng = np.random.default_rng(23)
    X = rng.random((80, 3))
    X[:, 1] = rng.integers(0, 4, 80)
    Y = np.stack([np.sin(4.0 * X[:, 0]), X[:, 1] - X[:, 2], X[:, 1] == 2.0])
    probe = rng.random((25, 3))
    draws = np.random.default_rng(24)
    alone = [TreeEnsemble(n_trees=4).fit(X, y, draws) for y in Y]
    want = np.stack([model.predict(probe) for model in alone])
    together = TreeEnsemble(n_trees=4).fit(X, Y, np.random.default_rng(24))
    assert together.to_dict()["trees"] == [
        tree for model in alone for tree in model.to_dict()["trees"]
    ]
    assert together.predict(probe).tobytes() == want.tobytes()
    # walks of two ensembles (the last of one), or of one
    for cap in (2 * 4 * len(probe), 1):
        monkeypatch.setattr(trees, "_WALK_ELEMS", cap)
        assert together.predict(probe).tobytes() == want.tobytes()


def _held_beyond_result(call):
    """Peak bytes a call holds beyond what it leaves allocated: its result."""
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
        del result
        return peak - current
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_number_of_trees():
    # one grower call or one walk holds at most a bounded pass beyond the
    # Y and W its caller holds and the trees or predictions it returns:
    # below a pass's worth of trees it grows by at most that pass (measured
    # 55 and 32 bytes an element), beyond it not at all (measured -30 kB and
    # +0)
    rng = np.random.default_rng(25)
    X = rng.random((250, 6))
    X[:, 0] = rng.integers(0, 5, 250)
    order = np.argsort(X, axis=0, kind="stable").astype(np.int64)
    grow, walk = {}, {}
    for q in (1, 60, 240):
        Y = rng.normal(size=(q, 250))
        W = np.stack(
            [np.bincount(rng.integers(0, 250, 250), minlength=250) for _ in range(q)]
        ).astype(np.float64)
        grow[q] = _held_beyond_result(lambda: grow_tree(X, order, Y, W, 5, 1.0))
        model = TreeEnsemble(n_trees=10).fit(X, Y, rng)
        walk[q] = _held_beyond_result(lambda: model.predict(X))
    assert grow[60] < grow[1] + 64 * trees._PASS_ELEMS
    assert walk[60] < walk[1] + 64 * trees._WALK_ELEMS
    assert grow[240] < grow[60] + 2**14
    assert walk[240] < walk[60] + 2**14

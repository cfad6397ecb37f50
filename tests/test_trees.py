import hashlib
import json

import numpy as np
import pytest

from macie import ConfigError, TreeEnsemble
from macie.trees import grow_tree, tree_predict


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


def test_serialization_round_trip():
    rng = np.random.default_rng(4)
    X = rng.random((80, 2))
    y = np.sin(6.0 * X[:, 0]) + X[:, 1]
    model = TreeEnsemble(n_trees=4).fit(X, y, np.random.default_rng(5))
    probe = rng.random((50, 2))
    back = TreeEnsemble.from_dict(model.to_dict())
    assert np.array_equal(model.predict(probe), back.predict(probe))


def test_split_between_adjacent_doubles_keeps_both_children():
    # 0.5 * (0.3 + nextafter(0.3)) rounds up to the larger double; the
    # threshold must clamp down or every row lands in the left child
    a = 0.3
    b = float(np.nextafter(a, np.inf))
    X = np.array([[a], [b]])
    y = np.array([0.0, 1.0])
    order = np.argsort(X, axis=0, kind="stable").astype(np.int64)
    feat, thr, left, right, value = grow_tree(
        X, order, y, np.ones(2), 1, 1.0
    )
    assert feat[0] == 0
    assert thr[0] == a
    pred = tree_predict(X, feat, thr, left, right, value)
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

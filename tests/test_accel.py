import json

import numpy as np
import pytest

from macie import _accel
from macie.report import RunConfig, run_pipeline
from macie.trees import TreeEnsemble


# each comparison below runs the compiled tree path, which only exists with numba
needs_numba = pytest.mark.skipif(
    not _accel.HAVE_NUMBA, reason="numba is not installed"
)


@pytest.fixture
def force_python():
    before = _accel.enabled()
    _accel.set_enabled(False)
    yield
    _accel.set_enabled(before)


def test_numba_is_available_here():
    pytest.importorskip("numba")
    assert _accel.HAVE_NUMBA
    assert _accel.enabled()


def test_env_flag_parsing(monkeypatch):
    for raw in ("0", "false", "OFF", "no "):
        monkeypatch.setenv("MACIE_NUMBA", raw)
        assert _accel._env_default() is False
    for raw in ("1", "true", "on", "yes"):
        monkeypatch.setenv("MACIE_NUMBA", raw)
        assert _accel._env_default() is True
    monkeypatch.delenv("MACIE_NUMBA")
    assert _accel._env_default() is True


def test_set_enabled_round_trip():
    before = _accel.enabled()
    try:
        _accel.set_enabled(False)
        assert not _accel.enabled()
        if _accel.HAVE_NUMBA:
            _accel.set_enabled(True)
            assert _accel.enabled()
        else:
            with pytest.raises(RuntimeError, match="numba is not installed"):
                _accel.set_enabled(True)
            assert not _accel.enabled()
    finally:
        _accel.set_enabled(before)
    assert _accel.enabled() is before


@needs_numba
def test_python_path_is_bit_identical_for_trees(force_python):
    rng = np.random.default_rng(0)
    X = rng.random((200, 4))
    y = (X[:, 0] > 0.5).astype(float) + 0.1 * X[:, 1]
    grid = rng.random((50, 4))

    plain_model = TreeEnsemble(n_trees=10, max_depth=4).fit(
        X, y, np.random.default_rng(1)
    )
    plain = plain_model.predict(grid)
    _accel.set_enabled(True)
    compiled_model = TreeEnsemble(n_trees=10, max_depth=4).fit(
        X, y, np.random.default_rng(1)
    )
    compiled = compiled_model.predict(grid)
    assert np.array_equal(plain, compiled)
    assert np.array_equal(plain_model.predict(grid), compiled_model.predict(grid))


@needs_numba
def test_pipeline_report_matches_across_backends(force_python):
    config = RunConfig(env="gridworld", episodes=12, k=2, b=20, seed=42)
    plain = run_pipeline(config)
    _accel.set_enabled(True)
    compiled = run_pipeline(RunConfig(env="gridworld", episodes=12, k=2, b=20, seed=42))
    plain.pop("timings_ns")
    compiled.pop("timings_ns")
    assert json.dumps(plain, sort_keys=True) == json.dumps(compiled, sort_keys=True)

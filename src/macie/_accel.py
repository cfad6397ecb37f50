"""Optional numba acceleration for the regression-tree kernels.

The tree kernels in ``trees`` are written once, as plain Python functions
over NumPy arrays and scalars, and registered through :func:`kernel`. When
acceleration is enabled the registered function is compiled with
``numba.njit`` on first use; otherwise the original Python function runs.
Both paths execute the same statements in the same order, so results are
bit-identical, only speed differs. The simulators do not go through here:
their rollouts are batched numpy (see ``envs.kernels``).

Acceleration defaults to on when numba is importable.  Set ``MACIE_NUMBA=0``
in the environment to force the pure-Python path, or call
:func:`set_enabled` to flip at runtime.
"""

from __future__ import annotations

import os

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    HAVE_NUMBA = False

_JIT_OPTS = {"cache": True, "nogil": True}


def _env_default() -> bool:
    flag = os.environ.get("MACIE_NUMBA", "1").strip().lower()
    return flag not in ("0", "false", "off", "no")


_enabled = HAVE_NUMBA and _env_default()


class Kernel:
    """Dispatcher selecting the compiled or plain implementation of one function."""

    def __init__(self, py_func):
        self.py_func = py_func
        self._jit = None
        self.__name__ = py_func.__name__
        self.__doc__ = py_func.__doc__

    def compiled(self):
        if self._jit is None:
            self._jit = numba.njit(**_JIT_OPTS)(self.py_func)
        return self._jit

    def __call__(self, *args):
        if _enabled:
            return self.compiled()(*args)
        return self.py_func(*args)


def kernel(func) -> Kernel:
    """Register ``func`` as an accelerated kernel."""
    return Kernel(func)


def enabled() -> bool:
    """Return True when kernels dispatch to compiled code."""
    return _enabled


def set_enabled(flag: bool) -> None:
    """Switch between compiled and pure-Python kernel execution."""
    global _enabled
    if flag and not HAVE_NUMBA:
        raise RuntimeError("numba is not installed; acceleration unavailable")
    _enabled = bool(flag)

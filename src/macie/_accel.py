"""Whether numba is importable.

Nothing in macie compiles: the simulators and the regression trees run as
batched numpy (see ``envs.kernels`` and ``trees``). The flag stays as a
machine fact that benchmark tooling records next to its measurements.
"""

from __future__ import annotations

import importlib.util

HAVE_NUMBA = importlib.util.find_spec("numba") is not None

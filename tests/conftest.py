import pytest

from macie import warmup


@pytest.fixture(scope="session", autouse=True)
def warm_start():
    # pay first-call costs once, so timed tests measure steady state
    warmup()

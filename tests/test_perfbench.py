"""The benchmark's traced run wraps macie names it looks up by attribute."""

import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


class _StubRecorder:
    """What ``layer_targets`` may keep of a recorder; never called here."""

    stream_keys = set()


def test_every_spanned_name_is_defined_on_its_owner(monkeypatch):
    # the traced run reads each target as owner.__dict__[attr], so a name
    # that is deleted, or only inherited, breaks it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness

    targets = harness.layer_targets(_StubRecorder()) + harness.check_targets()
    assert targets
    missing = [
        f"{span}: {getattr(owner, '__name__', owner)}.{attr}"
        for span, owner, attr, _ in targets
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_every_workload_config_validates(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness

    from macie.report import RunConfig

    for workload in harness.WORKLOADS.values():
        for env in workload.envs:
            RunConfig(env=env, seed=harness.DEFAULT_SEED, **workload.config).validate()


def test_prepare_inputs_writes_the_ingested_log(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness

    from macie.core import read_log

    workload = harness.WORKLOADS["ingest_scm"]
    path = harness.prepare_inputs(workload, harness.DEFAULT_SEED, str(tmp_path))
    assert path.startswith(str(tmp_path))
    history = read_log(path)
    assert history.env_name == workload.envs[0]
    assert len(history) == workload.log_episodes

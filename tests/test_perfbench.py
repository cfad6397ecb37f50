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

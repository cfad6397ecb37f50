import json
import subprocess
import sys

import pytest

from macie.cli import load_config_file, main
from macie.core import ConfigError, OutcomeSpec, write_log
from macie.counterfactual import CounterfactualEngine
from macie.envs import list_envs, make_env
from macie.policies import default_policies
from macie.report import read_report
from macie.rng import SeedTree

RUN_ARGS = ["--episodes", "12", "--k", "2", "--b", "20", "--seed", "42"]


def test_list_envs(capsys):
    assert main(["list-envs"]) == 0
    out = capsys.readouterr().out
    for name in ("additive", "coopnav", "gridworld", "predatorprey", "traffic"):
        assert name in out
    assert len(out.strip().splitlines()) == len(list_envs())


def test_run_writes_report_and_artifacts(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    plot_path = tmp_path / "steps.csv"
    code = main(
        ["run", "--env", "gridworld", *RUN_ARGS,
         "--out", str(report_path),
         "--emit", f"csv={csv_path}",
         "--emit", f"plotdata={plot_path}"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "contributed" in out
    assert f"report written to {report_path}" in out

    report = read_report(report_path)
    assert report["config"]["env"] == "gridworld"
    assert report["config"]["seed"] == 42
    assert csv_path.read_text().startswith("env,")
    assert plot_path.read_text().startswith("step,")


def test_unknown_env_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--env", "atlantis"])
    assert err.value.code == 2


def test_unknown_flag_is_an_argparse_error():
    for flags in (["--turbo"], ["--threads", "2"]):
        with pytest.raises(SystemExit) as err:
            main(["run", *flags])
        assert err.value.code == 2


def test_invalid_config_value_returns_2(capsys):
    assert main(["run", "--env", "gridworld", "--k", "0"]) == 2
    assert "k must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "seed", ["-1", str(2**64), str(2**65 - 1)], ids=["negative", "2^64", "2^65-1"]
)
def test_seed_outside_64_bits_returns_2(capsys, seed):
    # each of these once masked to the 64-bit seed 2^64 - 1 and ran its streams
    args = ["--episodes", "2", "--k", "1", "--b", "2", "--seed", seed]
    assert main(["run", "--env", "gridworld", *args]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert f"seed must be in [0, 2**64), got {seed}" in err


@pytest.mark.parametrize("seed", [0, 2**64 - 1], ids=["0", "2^64-1"])
def test_seeds_at_the_64_bit_ends_run(tmp_path, capsys, seed):
    out = tmp_path / "report.json"
    args = ["--episodes", "2", "--k", "1", "--b", "2", "--seed", str(seed)]
    assert main(["run", "--env", "gridworld", *args, "--out", str(out)]) == 0
    assert read_report(out)["config"]["seed"] == seed


@pytest.mark.parametrize("message", ["Unable to allocate 4.37 TiB", ""])
def test_run_out_of_memory_returns_3(capsys, monkeypatch, message):
    def too_large(self, episodes, coalitions):
        raise MemoryError(message)

    monkeypatch.setattr(CounterfactualEngine, "_rows", too_large)
    assert main(["run", "--env", "coopnav", *RUN_ARGS]) == 3
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("error: out of memory: ")
    assert message in err


def test_bad_alpha_and_emit_flags_return_2(capsys):
    assert main(["run", "--env", "gridworld", "--alpha", "fast"]) == 2
    for index in ["0_1", " 0", "+0", "\u0663"]:
        flag = f"{index}=0.5"
        assert main(["run", "--env", "gridworld", "--alpha", flag]) == 2
        assert "bad agent index" in capsys.readouterr().err
    assert main(["run", "--env", "gridworld", "--emit", "pdf=x"]) == 2


def test_ingest_round_trip(tmp_path, capsys):
    env = make_env("gridworld")
    eng = CounterfactualEngine(
        SeedTree(3), OutcomeSpec(), env=env, policies=default_policies(2)
    )
    log_path = tmp_path / "episodes.log"
    write_log(eng.generate_history(16), log_path)

    report_path = tmp_path / "ingested.json"
    code = main(["ingest", "--log", str(log_path), *RUN_ARGS, "--out", str(report_path)])
    assert code == 0
    report = read_report(report_path)
    assert report["config"]["mode"] == "scm_rollout"
    assert report["config"]["env"] is None
    assert report["n_episodes"] == 12


def test_ingest_missing_or_corrupt_log_returns_3(tmp_path, capsys):
    assert main(["ingest", "--log", str(tmp_path / "absent.log")]) == 3

    junk = tmp_path / "junk.log"
    junk.write_text("#other-format v9\n")
    assert main(["ingest", "--log", str(junk)]) == 3
    assert "error:" in capsys.readouterr().err

    junk.write_bytes(b"\xff\xfe{}")
    assert main(["ingest", "--log", str(junk)]) == 3
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "is not UTF-8 text" in err


def _gridworld_log(path, episodes=3):
    env = make_env("gridworld")
    eng = CounterfactualEngine(
        SeedTree(3), OutcomeSpec(), env=env, policies=default_policies(2)
    )
    write_log(eng.generate_history(episodes), path)
    return path.read_text().splitlines()


def _edit_field(column, edit):
    """Corrupt one comma-separated field of a record: ``edit`` maps the list
    of values in tab-separated ``column`` to a new list."""

    def corrupt(text):
        parts = text.split("\t")
        parts[column] = ",".join(edit(parts[column].split(",")))
        return "\t".join(parts)

    return corrupt


def _final(record):
    """A ``#final`` line holding the state of ``record``."""
    return "#final\t" + record.split("\t")[1]


@pytest.mark.parametrize(
    "line, corrupt",
    [
        (3, lambda text: text.replace("\t", "\tx,", 1)),  # non-numeric state
        (1, lambda text: text.replace("\tn_agents=2", "")),  # header field gone
        (4, lambda text: "garbage"),  # record without tabs
        (3, _edit_field(1, lambda v: ["nan"] + v[1:])),
        (3, _edit_field(1, lambda v: v[:-1])),  # fewer values than features=
        (4, _edit_field(1, lambda v: v[:-1] + ["inf"])),
        (4, _edit_field(2, lambda v: ["-1"] + v[1:])),
        (4, _edit_field(2, lambda v: ["9" * 30] + v[1:])),  # past int64
        (2, lambda text: text + "9" * 30),  # an episode seed past int64
        (1, lambda text: text.replace("horizon=18", "horizon=0")),
        (1, lambda text: text.replace("horizon=18", "horizon=-3")),
        (3, _final),  # the first record of an episode becomes its #final
        (2, lambda text: "#final\t" + ",".join(["0.0"] * 10)),  # no #episode yet
        (3, lambda text: "\n".join([text, _final(text), _final(text)])),
        (3, lambda text: "\n".join([text, _final(text), text])),
        (-1, lambda text: text + "\n#episode\t12\t12"),  # block at the end
        (4, lambda text: "3" + text[text.index("\t"):]),  # step 2 numbered 3
        (3, lambda text: "\n".join([text, text])),  # step 1 twice
        (3, lambda text: "x" + text[text.index("\t"):]),
        (3, lambda text: "-7" + text[text.index("\t"):]),
        (3, lambda text: "2" + text[text.index("\t"):]),
    ],
    ids=[
        "non_numeric_state",
        "header_without_n_agents",
        "record_without_tabs",
        "nan_state",
        "short_state",
        "inf_state",
        "negative_action",
        "huge_action",
        "huge_seed",
        "zero_horizon",
        "negative_horizon",
        "final_before_first_record",
        "final_outside_episode",
        "second_final",
        "record_after_final",
        "episode_without_records",
        "step_out_of_order",
        "step_repeated",
        "step_not_a_number",
        "step_negative",
        "step_not_starting_at_1",
    ],
)
def test_malformed_log_names_the_line(tmp_path, capsys, line, corrupt):
    path = tmp_path / "episodes.log"
    lines = _gridworld_log(path, episodes=12)
    # a negative line counts from the end; a corruption may write several
    # lines in place of one, and the error names the last of them
    line = line if line > 0 else len(lines) + 1 + line
    text = corrupt(lines[line - 1])
    lines[line - 1] = text
    path.write_text("\n".join(lines) + "\n")
    assert main(["ingest", "--log", str(path)]) == 3
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert f"{path}, line {line + text.count(chr(10))}:" in err


def test_ingest_refuses_an_action_index_past_the_transitions(tmp_path, capsys):
    # a log's actions size the model: one regression per action value, so
    # an index of 2000 in 114 pooled transitions would fit 2001 per agent
    path = tmp_path / "episodes.log"
    lines = _gridworld_log(path, episodes=12)
    lines[3] = _edit_field(2, lambda v: ["2000"] + v[1:])(lines[3])
    path.write_text("\n".join(lines) + "\n")
    assert main(["ingest", "--log", str(path)]) == 3
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "action index 2000 is not below the 114 pooled transitions" in err


@pytest.mark.parametrize(
    "config,named",
    [
        ({"policy.alpha.0": 0.9, "env.width": 9, "horizon": 5},
         "alphas, env_config, horizon"),
        ({"env.width": 9}, "env_config"),
        ({"horizon": 5}, "horizon"),
        ({"env": "traffic"}, "env"),
    ],
    ids=["all", "env_config", "horizon", "env"],
)
def test_ingest_refuses_simulator_settings(tmp_path, capsys, config, named):
    # a log's policies, environment and horizon are the log's own, so a
    # setting for them would only be listed in the report, unused
    path = tmp_path / "episodes.log"
    _gridworld_log(path, episodes=12)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["ingest", "--log", str(path), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.endswith(f"ingested histories take no simulator settings: {named}")


def test_explain_rejects_malformed_reports(tmp_path, capsys):
    not_json = tmp_path / "truncated.json"
    for content in [
        b'{"format": "macie-report", ',
        b"\xff\xfe{}",  # not UTF-8
        b'{"format": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",  # too deep
    ]:
        not_json.write_bytes(content)
        assert main(["explain", "--report", str(not_json)]) == 3
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "not valid JSON" in err

    report_path = tmp_path / "report.json"
    assert main(
        ["run", "--env", "gridworld", *RUN_ARGS, "--out", str(report_path)]
    ) == 0
    report = json.loads(report_path.read_text())
    capsys.readouterr()
    for breakage, message in [
        (lambda r: r.pop("ci"), "report lacks fields: ci"),
        (lambda r: r.update(ci={}), "report field ci lacks: lows, highs, se, alpha"),
        (lambda r: r.update(ci=[]), "report field ci is not an object"),
        (lambda r: r["emergence"].pop("ii_pairs"),
         "report field emergence lacks: ii_pairs"),
        (lambda r: r["config"].pop("tau_si"), "report field config lacks: tau_si"),
        (lambda r: r.update(n_agents="2"), "n_agents is not a positive integer"),
        (lambda r: r.update(n_agents=0), "n_agents is not a positive integer"),
        (lambda r: r.update(n_agents=True), "n_agents is not a positive integer"),
        (lambda r: r.update(y_cf=[]), "y_cf is not a list of 2 numbers"),
        (lambda r: r.update(phi="abc"), "phi is not a list of 2 numbers"),
        (lambda r: r.update(phi=r["phi"][:1]), "phi is not a list of 2 numbers"),
        (lambda r: r.update(y_fact=None), "y_fact is not a number"),
        (lambda r: r["ci"].update(se=[0.1, "x"]), "ci.se is not a list of 2 numbers"),
        (lambda r: r["ci"].update(alpha="0.05"), "ci.alpha is not a number"),
        (lambda r: r["emergence"].update(synergy="x"),
         "emergence.synergy is not 2 lists of 2 numbers"),
        (lambda r: r["emergence"].update(ii_pairs=[[0.0, 0.0]]),
         "emergence.ii_pairs is not 2 lists of 2 numbers"),
        (lambda r: r["emergence"].update(si=[1.0]), "emergence.si is not a number"),
        (lambda r: r.update(critical_timesteps=[[1], [2.5]]),
         "critical_timesteps is not 2 lists of integers"),
        (lambda r: r.update(critical_timesteps=[[1]]),
         "critical_timesteps is not 2 lists of integers"),
        (lambda r: r["config"].update(tau_si="high"), "config.tau_si is not a number"),
        (lambda r: r["ci"].update(alpha=5), "ci.alpha is not in (0, 1)"),
        (lambda r: r["ci"].update(alpha=0.0), "ci.alpha is not in (0, 1)"),
        (lambda r: r["config"].update(alpha=-1), "config.alpha is not in (0, 1)"),
        (lambda r: r["ci"].update(alpha=0.5),
         "ci.alpha differs from config.alpha"),
        (lambda r: r["config"].update(tau_si=float("nan")),
         "config.tau_si holds a non-finite number"),
        (lambda r: r.update(y_fact=float("inf")), "y_fact holds a non-finite number"),
        (lambda r: r["ci"].update(se=[0.1, 10**400]), "ci.se holds a non-finite number"),
        (lambda r: r.update(phi=[0.5, float("nan")]),
         "phi holds a non-finite number"),
        (lambda r: r["emergence"].update(synergy=[[0.0, float("-inf")], [0.0, 0.0]]),
         "emergence.synergy holds a non-finite number"),
        (lambda r: r["emergence"].update(si=float("nan")),
         "emergence.si holds a non-finite number"),
        (lambda r: r["config"].update(verbosity="loud"),
         "config.verbosity is not one of"),
        (lambda r: r["config"].update(verbosity=3), "config.verbosity is not one of"),
    ]:
        broken = json.loads(json.dumps(report))
        breakage(broken)
        report_path.write_text(json.dumps(broken))
        assert main(["explain", "--report", str(report_path)]) == 3
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert message in err


def test_config_value_of_wrong_type_returns_2(tmp_path, capsys):
    for key, value, message in [
        ("cf.k", "abc", "k must be an integer"),
        ("env", ["gridworld"], "env must be a string"),
        ("attr.alpha", "0.1", "alpha must be a number"),
        ("env.width", "abc", "width must be an integer"),
        ("ci.tau_si", float("nan"), "tau_si must be finite"),
        ("ci.tau_synergy", float("inf"), "tau_synergy must be finite"),
        ("cf.epsilon_frac", float("inf"), "epsilon_frac must be finite"),
        ("scm.corr_threshold", float("nan"), "corr_threshold must be finite"),
        ("ci.tau_si", 10**400, "tau_si must be finite"),
    ]:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({key: value}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "config,message",
    [
        ({"env": "traffic", "env.max_init_queue": -5},
         "traffic config max_init_queue must be >= 0, got -5"),
        ({"env": "traffic", "env.service": -1},
         "traffic config service must be >= 0, got -1"),
        ({"env": "additive", "env.limit": -3},
         "additive config limit must be >= 0, got -3"),
        ({"env.step_cost": float("inf")},
         "gridworld config step_cost must be finite, got inf"),
        ({"env.goal_reward": float("nan")},
         "gridworld config goal_reward must be finite, got nan"),
        ({"env.team_bonus": 10**400}, "gridworld config team_bonus must be finite"),
    ],
    ids=["max_init_queue", "service", "limit", "inf", "nan", "huge"],
)
def test_env_config_value_out_of_range_returns_2(tmp_path, capsys, config, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), *RUN_ARGS]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert message in err


def test_explain_rerenders_a_stored_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(
        ["run", "--env", "gridworld", *RUN_ARGS, "--out", str(report_path)]
    ) == 0
    detailed = capsys.readouterr().out

    assert main(["explain", "--report", str(report_path), "--verbosity", "summary"]) == 0
    summary = capsys.readouterr().out.strip().splitlines()
    detailed_lines = [l for l in detailed.strip().splitlines() if "contributed" in l]
    for line in summary:
        assert any(other.startswith(line) for other in detailed_lines)


def test_explain_rejects_non_reports(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"hello": 1}))
    assert main(["explain", "--report", str(bad)]) == 3


def test_bench_needs_a_selection(capsys):
    assert main(["bench"]) == 2
    assert "choose a benchmark" in capsys.readouterr().err


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "env": "gridworld",
                "episodes": 12,
                "seed": 1,
                "cf.k": 2,
                "attr.b": 20,
                "policy.alpha.0": 0.9,
                "env.width": 5,
            }
        )
    )
    report_path = tmp_path / "report.json"
    code = main(
        ["run", "--config", str(cfg), "--seed", "7", "--out", str(report_path)]
    )
    assert code == 0
    report = read_report(report_path)
    assert report["config"]["seed"] == 7
    assert report["config"]["k"] == 2
    assert report["config"]["alphas"] == {"0": 0.9}
    assert report["config"]["env_config"] == {"width": 5}


def test_config_file_errors(tmp_path, capsys):
    missing = tmp_path / "none.json"
    assert main(["run", "--config", str(missing)]) == 2
    capsys.readouterr()

    bad_json = tmp_path / "bad.json"
    for content in [
        b"{not json",
        b"\xff\xfe{}",  # not UTF-8
        b"[" * 200_000 + b"]" * 200_000,  # too deep
    ]:
        bad_json.write_bytes(content)
        assert main(["run", "--config", str(bad_json)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "is not valid JSON" in err

    unknown = tmp_path / "unknown.json"
    for key, value in [("turbo", True), ("threads", 2)]:
        unknown.write_text(json.dumps({key: value}))
        assert main(["run", "--config", str(unknown)]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    # an agent's alpha must be a JSON number: not null, a list, an object,
    # a string or a bool
    alpha = tmp_path / "alpha.json"
    for value in [None, [0.5], {"v": 0.5}, "abc", "0.5", True, float("nan")]:
        alpha.write_text(json.dumps({"policy.alpha.0": value}))
        assert main(["run", "--config", str(alpha)]) == 2
        err = capsys.readouterr().err
        assert "'policy.alpha.0' must be a finite number" in err
        assert err.count("\n") == 1
    # an agent index is ASCII decimal digits, which int() alone does not check
    for index in ["x", "0_1", " 0", "+0", "-0", "\u0663", "0.0", ""]:
        alpha.write_text(json.dumps({f"policy.alpha.{index}": 0.5}))
        assert main(["run", "--config", str(alpha)]) == 2
        assert "bad agent index" in capsys.readouterr().err

    # one episode leaves the bootstrap nothing to resample: refused before
    # any replay, as a configuration error
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"episodes": 1}))
    assert main(["run", "--config", str(one)]) == 2
    assert "episodes must be >= 2" in capsys.readouterr().err

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config_file(not_object)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "macie.cli", "list-envs"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "gridworld" in proc.stdout

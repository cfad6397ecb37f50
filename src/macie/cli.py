"""Command line interface.

Subcommands: ``run`` analyses a built-in environment, ``ingest`` analyses a
recorded episode log through the fitted structural model, ``explain``
re-renders a stored report at any verbosity, ``bench`` measures how the
attribution uncertainty converges in the counterfactual sample count,
``list-envs`` shows what can be simulated. Exit codes: 0 success,
2 configuration problems, 3 runtime failures (including malformed logs
and reports).

Options may also come from a JSON config file of dotted keys (for example
``cf.k`` or ``policy.alpha.0``); explicit command line flags win over the
file.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import OUTCOME_KINDS, ConfigError, MacieError, _is_finite, read_log
from .envs import env_description, list_envs
from .explain import VERBOSITY_LEVELS, build_explanation
from .report import (
    METHODS,
    MODES,
    RunConfig,
    bench_k_convergence,
    read_report,
    run_pipeline,
    warmup,
    write_csv,
    write_plotdata,
    write_report,
)
from .scm import MODEL_NAMES

_CONFIG_KEY_TO_FIELD = {
    "env": "env",
    "episodes": "episodes",
    "horizon": "horizon",
    "seed": "seed",
    "verbosity": "verbosity",
    "outcome": "outcome",
    "cf.k": "k",
    "cf.epsilon_frac": "epsilon_frac",
    "cf.mode": "mode",
    "attr.method": "method",
    "attr.m": "m",
    "attr.b": "b",
    "attr.alpha": "alpha",
    "scm.model": "model",
    "scm.corr_threshold": "corr_threshold",
    "ci.tau_synergy": "tau_synergy",
    "ci.tau_si": "tau_si",
    "ci.ii_bins": "ii_bins",
}


def load_config_file(path):
    """Flat JSON of dotted keys -> keyword overrides for RunConfig."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    overrides = {}
    alphas = {}
    env_config = {}
    for key, value in data.items():
        if key in _CONFIG_KEY_TO_FIELD:
            overrides[_CONFIG_KEY_TO_FIELD[key]] = value
        elif key.startswith("policy.alpha."):
            tail = key[len("policy.alpha."):]
            if not _is_agent_index(tail):
                raise ConfigError(f"bad agent index in config key {key!r}")
            if not _is_finite(value):
                raise ConfigError(
                    f"config key {key!r} must be a finite number, "
                    f"got {json.dumps(value)}"
                )
            alphas[int(tail)] = float(value)
        elif key.startswith("env."):
            env_config[key[len("env."):]] = value
        else:
            raise ConfigError(f"unknown config key {key!r} in {path}")
    if alphas:
        overrides["alphas"] = alphas
    if env_config:
        overrides["env_config"] = env_config
    return overrides


def _is_agent_index(text):
    """Whether ``text`` is an agent index: ASCII decimal digits only
    (``int`` also reads signs, spaces, underscores and other scripts' digits)."""
    return text.isascii() and text.isdigit()


def _parse_alpha_flags(pairs):
    out = {}
    for raw in pairs or []:
        if "=" not in raw:
            raise ConfigError(f"--alpha expects I=V, got {raw!r}")
        left, right = raw.split("=", 1)
        if not _is_agent_index(left):
            raise ConfigError(f"bad agent index in --alpha {raw!r}")
        try:
            out[int(left)] = float(right)
        except ValueError:
            raise ConfigError(f"--alpha expects I=V numbers, got {raw!r}") from None
    return out


def _parse_emit_flags(pairs):
    out = []
    for raw in pairs or []:
        if "=" not in raw:
            raise ConfigError(f"--emit expects KIND=PATH, got {raw!r}")
        kind, path = raw.split("=", 1)
        if kind not in ("csv", "plotdata"):
            raise ConfigError(
                f"--emit kind must be csv or plotdata, got {kind!r}"
            )
        out.append((kind, path))
    return out


def _build_config(args):
    overrides = {}
    if getattr(args, "config", None):
        overrides.update(load_config_file(args.config))
    flag_fields = (
        "env", "episodes", "horizon", "k", "m", "b", "method", "model", "mode",
        "seed", "verbosity", "outcome",
    )
    for name in flag_fields:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    alpha_flags = _parse_alpha_flags(getattr(args, "alpha", None))
    if alpha_flags:
        merged = dict(overrides.get("alphas", {}))
        merged.update(alpha_flags)
        overrides["alphas"] = merged
    return RunConfig(**overrides).validate()


def _emit_artifacts(report, args):
    if getattr(args, "out", None):
        write_report(report, args.out)
        print(f"report written to {args.out}")
    for kind, path in _parse_emit_flags(getattr(args, "emit", None)):
        if kind == "csv":
            write_csv(report, path)
        else:
            write_plotdata(report, path)
        print(f"{kind} written to {path}")


def _add_run_flags(p, with_env=True):
    if with_env:
        p.add_argument("--env", choices=list_envs(), help="environment to simulate")
        p.add_argument("--horizon", type=int, help="steps per episode")
        p.add_argument(
            "--mode",
            choices=MODES,
            help="counterfactual propagation mode",
        )
        p.add_argument(
            "--alpha",
            action="append",
            metavar="I=V",
            help="skill override for agent I (repeatable)",
        )
    p.add_argument("--episodes", type=int, help="number of episodes")
    p.add_argument("--k", type=int, help="counterfactual samples per intervention")
    p.add_argument("--m", type=int, help="Monte Carlo Shapley permutations")
    p.add_argument("--b", type=int, help="bootstrap resamples")
    p.add_argument(
        "--method",
        choices=METHODS,
        help="attribution method",
    )
    p.add_argument(
        "--model",
        choices=MODEL_NAMES,
        help="structural equation model",
    )
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument(
        "--verbosity",
        choices=VERBOSITY_LEVELS,
        help="explanation verbosity",
    )
    p.add_argument(
        "--outcome",
        choices=OUTCOME_KINDS,
        help="episode outcome definition",
    )
    p.add_argument("--config", help="JSON config file of dotted keys")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument(
        "--emit",
        action="append",
        metavar="KIND=PATH",
        help="extra artifacts: csv=PATH or plotdata=PATH (repeatable)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="macie",
        description="Causal attribution and emergence analysis for "
        "multi-agent episodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate an environment and analyse it")
    _add_run_flags(p_run)

    p_ingest = sub.add_parser(
        "ingest", help="analyse a recorded episode log (no simulator needed)"
    )
    p_ingest.add_argument("--log", required=True, help="episode log file")
    _add_run_flags(p_ingest, with_env=False)

    p_explain = sub.add_parser("explain", help="re-render a stored report")
    p_explain.add_argument("--report", required=True, help="report JSON file")
    p_explain.add_argument(
        "--verbosity",
        choices=VERBOSITY_LEVELS,
        help="verbosity to render at (defaults to the report's)",
    )

    p_bench = sub.add_parser("bench", help="benchmarks")
    p_bench.add_argument(
        "--k-convergence",
        action="store_true",
        help="bootstrap SE of attributions as K grows",
    )

    sub.add_parser("list-envs", help="list built-in environments")
    return parser


def _cmd_run(args):
    config = _build_config(args)
    warmup([config.env])
    report = run_pipeline(config)
    print(report["explanation"]["text"])
    _emit_artifacts(report, args)
    return 0


def _cmd_ingest(args):
    history = read_log(args.log)
    if args.config and "env" in load_config_file(args.config):
        raise ConfigError("ingested histories take no simulator settings: env")
    args_config = _build_config(args)
    args_config.mode = "scm_rollout"
    report = run_pipeline(args_config, history=history)
    print(report["explanation"]["text"])
    _emit_artifacts(report, args)
    return 0


def _cmd_explain(args):
    report = read_report(args.report)
    explanation = build_explanation(report, verbosity=args.verbosity)
    print(explanation.text)
    return 0


def _cmd_bench(args):
    if not args.k_convergence:
        raise ConfigError("choose a benchmark: --k-convergence")
    warmup(["gridworld"])
    print("bootstrap SE of attributions by counterfactual sample count:")
    print(f"{'k':<6}{'mean_se':>10}  per-agent")
    for row in bench_k_convergence():
        per_agent = ", ".join(f"{v:.4f}" for v in row["se"])
        print(f"{row['k']:<6}{row['mean_se']:>10.4f}  [{per_agent}]")
    return 0


def _cmd_list_envs(args):
    for name in list_envs():
        print(f"{name:<14}{env_description(name)}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "ingest": _cmd_ingest,
        "explain": _cmd_explain,
        "bench": _cmd_bench,
        "list-envs": _cmd_list_envs,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MacieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # replay rows grow with episodes x coalitions x k
        reason = str(exc) or "allocation failed"
        print(f"error: out of memory: {reason}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

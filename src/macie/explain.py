"""Render a report's attributions and emergence metrics as text.

One renderer serves the run and a stored report alike: it reads the report
dict, so a report re-rendered from its file says what the run said.

Three verbosity levels nest: ``summary`` states each agent's share of the
outcome, ``detailed`` appends critical timesteps and adds emergence,
interaction, and counterfactual lines, ``full`` appends the raw attribution
and its confidence interval. Every line at a lower level is a prefix of a
line at the next level, so raising verbosity never rewrites a statement,
it only extends the text. The structured payload mirrors the text with the
same rounding, so numbers shown and numbers exported always agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attribution import normalize_contributions, rank_agents
from .core import ConfigError

VERBOSITY_LEVELS = ("summary", "detailed", "full")
DEFAULT_TAU_SYNERGY = 0.05
DEFAULT_TAU_SI = 0.1


@dataclass
class Explanation:
    verbosity: str
    lines: list[str]
    structured: dict

    @property
    def text(self):
        return "\n".join(self.lines)


def _fmt_steps(steps):
    return ", ".join(str(int(t)) for t in steps)


def build_explanation(report, verbosity=None):
    """Compose the explanation of one report, at any verbosity.

    Reads only fields that ``read_report`` checks: ``phi``, ``y_fact``,
    ``y_cf``, ``critical_timesteps``, ``ci.lows``/``highs``, the emergence
    block's ``si``, ``cs``, ``ii`` and ``synergy``, and the config's
    ``verbosity``, ``tau_synergy``, ``tau_si`` and ``alpha``. Agents are
    displayed 1-based and ordered by their share of the outcome;
    ``verbosity`` defaults to the report's own.
    """
    cfg = report["config"]
    if verbosity is None:
        verbosity = cfg["verbosity"]
    if verbosity not in VERBOSITY_LEVELS:
        raise ConfigError(
            f"unknown verbosity {verbosity!r}; "
            f"choose from {', '.join(VERBOSITY_LEVELS)}"
        )
    phi = np.asarray(report["phi"], dtype=np.float64)
    n = len(phi)
    phi_hat = normalize_contributions(phi)
    order = rank_agents(phi)
    ci, em = report["ci"], report["emergence"]
    level = f"{(1.0 - cfg['alpha']) * 100:g}"

    lines = []
    agents_struct = []
    for rank, i in enumerate(order, start=1):
        pct = 100.0 * abs(phi_hat[i])
        impact = "Positive" if phi_hat[i] >= 0 else "Negative"
        line = (
            f"Agent {i + 1} contributed {pct:.1f}% to the outcome "
            f"({impact} impact)."
        )
        entry = {
            "agent": i + 1,
            "rank": rank,
            "percent": round(pct, 1),
            "impact": impact,
        }
        if verbosity in ("detailed", "full"):
            steps = report["critical_timesteps"][i]
            if steps:
                line += f" Critical actions occurred at timesteps {_fmt_steps(steps)}."
            entry["critical_timesteps"] = [int(t) for t in steps]
        if verbosity == "full":
            low, high = ci["lows"][i], ci["highs"][i]
            line += f" phi={phi[i]:.3f}, {level}% CI [{low:.3f}, {high:.3f}]."
            entry["phi"] = round(float(phi[i]), 3)
            entry["ci"] = [round(float(low), 3), round(float(high), 3)]
        lines.append(line)
        agents_struct.append(entry)

    structured = {"verbosity": verbosity, "agents": agents_struct}
    if verbosity == "summary":
        return Explanation(verbosity=verbosity, lines=lines, structured=structured)

    si = em["si"]
    tau_si = cfg["tau_si"]
    synergy_flag = si > tau_si
    interference_flag = si < -tau_si
    if synergy_flag:
        lines.append(
            "Emergent synergy detected: the team outcome exceeds the "
            f"sum of individual outcomes (SI={si:.3f})."
        )
    elif interference_flag:
        lines.append(
            "Emergent interference detected: the team outcome falls "
            f"short of the sum of individual outcomes (SI={si:.3f})."
        )
    structured["emergence"] = {
        "si": round(float(si), 3),
        "cs": round(float(em["cs"]), 3),
        "ii": round(float(em["ii"]), 3),
        "synergy_detected": bool(synergy_flag),
        "interference_detected": bool(interference_flag),
    }

    interactions = []
    for i in range(n):
        for j in range(i + 1, n):
            sigma = float(em["synergy"][i][j])
            if abs(sigma) <= cfg["tau_synergy"]:
                continue
            kind = "cooperation" if sigma > 0 else "interference"
            phrase = f"{'positive' if sigma > 0 else 'negative'} synergy ({kind})"
            lines.append(
                f"Agents {i + 1} and {j + 1} show {phrase}, "
                f"sigma={sigma:.3f}."
            )
            interactions.append(
                {"agents": [i + 1, j + 1], "sigma": round(sigma, 3),
                 "kind": kind}
            )
    structured["interactions"] = interactions

    star = order[0]
    delta = -float(phi[star])
    y_fact, y_cf = report["y_fact"], float(report["y_cf"][star])
    lines.append(
        f"Counterfactual: Without agent {star + 1}, the outcome would "
        f"change by {delta:.3f} (from {y_fact:.3f} to {y_cf:.3f})."
    )
    structured["counterfactual"] = {
        "agent": star + 1,
        "delta": round(delta, 3),
        "y_fact": round(float(y_fact), 3),
        "y_cf": round(y_cf, 3),
    }
    return Explanation(verbosity=verbosity, lines=lines, structured=structured)

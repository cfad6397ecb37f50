import pytest

from macie.core import ConfigError
from macie.explain import VERBOSITY_LEVELS, Explanation, build_explanation

PHI = [4.867, 5.333]
Y_FACT = 7.688
Y_CF = [2.821, 2.355]
CRITICAL = [[3, 4], [5]]


def report(
    phi=PHI,
    y_fact=Y_FACT,
    y_cf=Y_CF,
    critical=CRITICAL,
    lows=(4.0, 4.8),
    highs=(5.5, 5.9),
    si=0.0,
    sigma01=0.0,
    cs=0.0,
    ii=0.0,
    verbosity="detailed",
    tau_synergy=0.05,
    tau_si=0.1,
    alpha=0.05,
):
    """A two-agent report holding only the fields the renderer reads."""
    return {
        "phi": list(phi),
        "y_fact": y_fact,
        "y_cf": list(y_cf),
        "critical_timesteps": critical,
        "ci": {"lows": list(lows), "highs": list(highs), "alpha": alpha},
        "emergence": {
            "si": si,
            "cs": cs,
            "ii": ii,
            "synergy": [[0.0, sigma01], [sigma01, 0.0]],
        },
        "config": {
            "verbosity": verbosity,
            "tau_synergy": tau_synergy,
            "tau_si": tau_si,
            "alpha": alpha,
        },
    }


def test_detailed_lines_verbatim():
    exp = build_explanation(report())
    assert exp.lines == [
        "Agent 2 contributed 52.3% to the outcome (Positive impact). "
        "Critical actions occurred at timesteps 5.",
        "Agent 1 contributed 47.7% to the outcome (Positive impact). "
        "Critical actions occurred at timesteps 3, 4.",
        "Counterfactual: Without agent 2, the outcome would change by "
        "-5.333 (from 7.688 to 2.355).",
    ]
    assert exp.text == "\n".join(exp.lines)
    assert isinstance(exp, Explanation)


def test_agents_are_ordered_by_share():
    exp = build_explanation(report())
    ranked = [a["agent"] for a in exp.structured["agents"]]
    assert ranked == [2, 1]
    assert [a["rank"] for a in exp.structured["agents"]] == [1, 2]


def test_negative_attribution_wording():
    exp = build_explanation(
        report(phi=[-8.333, 3.333], y_fact=5.0, y_cf=[13.333, 1.667],
               critical=[[], []])
    )
    assert exp.lines[0] == (
        "Agent 1 contributed 71.4% to the outcome (Negative impact)."
    )
    assert exp.structured["agents"][0]["impact"] == "Negative"
    # the counterfactual quotes the top-ranked agent
    assert exp.structured["counterfactual"]["agent"] == 1
    assert exp.structured["counterfactual"]["delta"] == 8.333


def test_verbosity_levels_nest_as_prefixes():
    rep = report(si=0.5, sigma01=0.2)
    summary = build_explanation(rep, verbosity="summary")
    detailed = build_explanation(rep, verbosity="detailed")
    full = build_explanation(rep, verbosity="full")

    assert len(summary.lines) < len(detailed.lines)
    assert len(detailed.lines) == len(full.lines)
    for line in summary.lines:
        assert any(other.startswith(line) for other in detailed.lines)
    for line in detailed.lines:
        assert any(other.startswith(line) for other in full.lines)


def test_full_verbosity_quotes_phi_and_interval():
    exp = build_explanation(report(verbosity="full"))
    assert "phi=5.333, 95% CI [4.800, 5.900]." in exp.lines[0]
    top = exp.structured["agents"][0]
    assert top["phi"] == 5.333
    assert top["ci"] == [4.8, 5.9]


def test_alpha_controls_the_quoted_level():
    exp = build_explanation(report(alpha=0.1), verbosity="full")
    assert "90% CI" in exp.lines[0]


def test_synergy_line_and_flags():
    exp = build_explanation(report(si=0.5))
    assert (
        "Emergent synergy detected: the team outcome exceeds the sum of "
        "individual outcomes (SI=0.500)." in exp.lines
    )
    em = exp.structured["emergence"]
    assert em["synergy_detected"] is True
    assert em["interference_detected"] is False


def test_interference_line():
    exp = build_explanation(report(si=-0.653))
    assert (
        "Emergent interference detected: the team outcome falls short of "
        "the sum of individual outcomes (SI=-0.653)." in exp.lines
    )
    assert exp.structured["emergence"]["interference_detected"] is True


def test_small_synergy_index_stays_silent():
    exp = build_explanation(report(si=0.05))
    assert not any("Emergent" in line for line in exp.lines)
    em = exp.structured["emergence"]
    assert em["synergy_detected"] is False
    assert em["interference_detected"] is False


def test_pair_interactions_respect_the_threshold():
    exp = build_explanation(report(sigma01=0.15))
    assert (
        "Agents 1 and 2 show positive synergy (cooperation), sigma=0.150."
        in exp.lines
    )
    assert exp.structured["interactions"] == [
        {"agents": [1, 2], "sigma": 0.15, "kind": "cooperation"}
    ]

    neg = build_explanation(report(sigma01=-0.2))
    assert (
        "Agents 1 and 2 show negative synergy (interference), sigma=-0.200."
        in neg.lines
    )

    quiet = build_explanation(report(sigma01=0.15, tau_synergy=1.0))
    assert quiet.structured["interactions"] == []
    assert not any("sigma=" in line for line in quiet.lines)


def test_structured_keys_and_rounding():
    exp = build_explanation(report(si=0.5, cs=0.25))
    assert sorted(exp.structured.keys()) == [
        "agents",
        "counterfactual",
        "emergence",
        "interactions",
        "verbosity",
    ]
    top = exp.structured["agents"][0]
    assert top["percent"] == 52.3
    assert top["critical_timesteps"] == [5]
    cf = exp.structured["counterfactual"]
    assert cf == {"agent": 2, "delta": -5.333, "y_fact": 7.688, "y_cf": 2.355}
    assert exp.structured["emergence"]["cs"] == 0.25


def test_summary_skips_details():
    exp = build_explanation(report(si=0.9), verbosity="summary")
    assert exp.lines == [
        "Agent 2 contributed 52.3% to the outcome (Positive impact).",
        "Agent 1 contributed 47.7% to the outcome (Positive impact).",
    ]
    assert "emergence" not in exp.structured
    assert "counterfactual" not in exp.structured


def test_unknown_verbosity_is_rejected():
    assert VERBOSITY_LEVELS == ("summary", "detailed", "full")
    with pytest.raises(ConfigError, match="unknown verbosity"):
        build_explanation(report(), verbosity="chatty")

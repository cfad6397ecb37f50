import numpy as np
import pytest

from macie import (
    BaselinePolicy,
    ConfigError,
    ConstantPolicy,
    SkillPolicy,
    default_alphas,
    default_policies,
    make_env,
)
from macie.policies import (
    KIND_SKILL,
    KIND_UNIFORM,
    policy_arrays,
    select_actions,
)

# 95th percentile of chi-squared with 4 degrees of freedom
CHI2_95_DF4 = 9.487729036781154


def test_skill_policy_validates_alpha():
    SkillPolicy(0.0)
    SkillPolicy(1.0)
    with pytest.raises(ConfigError):
        SkillPolicy(-0.1)
    with pytest.raises(ConfigError):
        SkillPolicy(1.5)


def test_constant_policy_validates_action():
    assert ConstantPolicy(3).action == 3
    with pytest.raises(ConfigError):
        ConstantPolicy(-1)


def test_default_alphas_spread():
    assert np.allclose(default_alphas(2), [0.70, 0.80])
    assert np.allclose(default_alphas(3), [0.70, 0.75, 0.80])
    alphas = default_alphas(5)
    assert alphas[0] == pytest.approx(0.70)
    assert alphas[-1] == pytest.approx(0.80)
    assert np.all(np.diff(alphas) > 0)
    with pytest.raises(ConfigError):
        default_alphas(0)


def test_default_policies_use_default_alphas():
    pols = default_policies(3)
    assert [p.alpha for p in pols] == pytest.approx([0.70, 0.75, 0.80])
    with pytest.raises(ConfigError):
        default_policies(2, alphas=[0.5])


def test_policy_arrays_packing():
    kinds, alphas, consts = policy_arrays(
        [SkillPolicy(0.6), BaselinePolicy(), ConstantPolicy(4)]
    )
    assert kinds.tolist() == [0, 1, 2]
    assert alphas.tolist() == [0.6, 0.0, 0.0]
    assert consts.tolist() == [0, 0, 4]


def test_select_actions_is_greedy_below_alpha():
    env = make_env("gridworld")
    state = np.array([0.0, 0.0, 4.0, 4.0, 4.0, 0.0, 0.0, 4.0, 0.0, 0.0])
    # agent 0 heads right to its goal at (4, 0), agent 1 left to (0, 4)
    greedy = env.greedy_actions(state[None])
    assert greedy.tolist() == [[3, 2]]
    kinds, alphas, consts = policy_arrays(
        [SkillPolicy(0.7), SkillPolicy(0.7), BaselinePolicy(), ConstantPolicy(1)]
    )
    u = np.array([[0.69, 0.0], [0.71, 0.45], [0.0, 0.99], [0.0, 0.0]])
    picked = select_actions(kinds, alphas, consts, greedy[0, 0], u, env.n_actions)
    # above alpha, and for the baseline, the second uniform picks the slot
    assert picked.tolist() == [3, 2, 4, 1]


def test_baseline_actions_are_uniform():
    rng = np.random.default_rng(42)
    draws = 5000
    u = rng.random((draws, 2))
    kinds = np.full(draws, KIND_UNIFORM)
    a = select_actions(kinds, np.zeros(draws), np.zeros(draws, np.int64), 0, u, 5)
    counts = np.bincount(a, minlength=5)
    expected = draws / 5.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_95_DF4


def test_skill_one_is_always_greedy():
    env = make_env("predatorprey")
    state = np.array([0.0, 0.0, 6.0, 6.0, 3.0, 3.0])
    greedy = env.greedy_actions(state[None])[0, 0]
    u = np.random.default_rng(1).random((50, 2))
    kinds = np.full(50, KIND_SKILL)
    a = select_actions(kinds, np.ones(50), np.zeros(50, np.int64), greedy, u, 5)
    assert (a == greedy).all()

import hashlib

import numpy as np
import pytest

from macie import (
    ConfigError,
    CounterfactualEngine,
    OutcomeSpec,
    SeedTree,
    default_policies,
    env_description,
    list_envs,
    make_env,
)
from macie.envs import GridWorld, GridWorldConfig, kernels
from macie.policies import BaselinePolicy

from helpers import rollout_one, step


def rollout(env, state0, horizon, kinds, alphas, seed=0):
    rng = np.random.default_rng(seed)
    act_u = rng.random((horizon, env.n_agents, 2))
    env_u = rng.random(act_u.shape) if env.uses_env_uniforms else np.zeros_like(act_u)
    consts = np.zeros(env.n_agents, dtype=np.int64)
    return rollout_one(env, state0, kinds, alphas, consts, act_u, env_u)


def test_registry_lists_the_builtin_environments():
    assert list_envs() == [
        "additive",
        "coopnav",
        "gridworld",
        "predatorprey",
        "traffic",
    ]
    for name in list_envs():
        env = make_env(name)
        assert env.name == name
        assert env.n_agents >= 2
        assert len(env.feature_names) == env.state_dim
        assert env_description(name)


def test_make_env_validates_names_and_overrides():
    with pytest.raises(ConfigError):
        make_env("lunarlander")
    with pytest.raises(ConfigError):
        make_env("gridworld", {"gravity": 1.0})
    env = make_env("gridworld", {"team_bonus": 50.0}, horizon=9)
    assert env.config.team_bonus == 50.0
    assert env.horizon == 9
    with pytest.raises(ConfigError):
        make_env("gridworld", {"width": 2})
    with pytest.raises(ConfigError):
        make_env("predatorprey", {"width": 4})
    with pytest.raises(ConfigError):
        make_env("traffic", horizon=0)


@pytest.mark.parametrize("name", ["additive", "coopnav", "gridworld", "predatorprey", "traffic"])
def test_rollouts_are_deterministic(name):
    env = make_env(name)
    s0 = env.initial_state(np.random.default_rng(3))
    n = env.n_agents
    kinds, alphas = [0] * n, [0.75] * n
    a = rollout(env, s0, env.horizon, kinds, alphas, seed=11)
    b = rollout(env, s0, env.horizon, kinds, alphas, seed=11)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("name", ["additive", "coopnav", "gridworld", "predatorprey", "traffic"])
def test_mixed_batch_matches_each_row_alone(name):
    # one batch mixing skill, uniform and constant policies and different
    # draws gives every row exactly the trajectory it has on its own
    env = make_env(name, horizon=40)
    rng = np.random.default_rng(17)
    B, n, T = 60, env.n_agents, env.horizon
    S0 = np.array([env.initial_state(rng) for _ in range(B)])
    kinds = np.arange(B * n).reshape(B, n) % 3
    alphas = rng.random((B, n))
    kinds[:10], alphas[:10] = 0, 1.0  # fully greedy gridworld teams finish early
    consts = rng.integers(0, env.n_actions, (B, n))
    if name == "predatorprey":
        # a boxed-in prey is caught on the first step by these two moves
        S0[10:15] = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
        kinds[10:15], consts[10:15] = 2, [2, 1]
    act_u = rng.random((B, T, n, 2))
    env_u = rng.random((B, T, n, 2))
    batch = kernels.rollout(env, S0, kinds, alphas, consts, act_u, env_u)
    length = batch[4]
    if name in ("gridworld", "predatorprey"):
        assert (length < T).any() and (length == T).any()
    for b in range(B):
        alone = rollout_one(
            env, S0[b], kinds[b], alphas[b], consts[b], act_u[b], env_u[b]
        )
        for x, y in zip(batch, alone):
            assert np.array_equal(x[b], y)
        assert alone[4] == length[b]
        assert not alone[3][length[b]:].any()


# sha256 of rollout outputs on fixed random inputs, recorded from the scalar
# per-episode kernels the batched rollouts replaced. Small reports can hide
# a last-bit change (np.sqrt for the C pow of a reported distance, say, or a
# filtered coopnav decision that strays from the powers); these raw outputs
# cannot.
GOLDEN_ROLLOUTS = {
    "additive": "3ae78a1e045a4e3c53d95676afa844a7939d1f6db5fadcabb42b538210fe8b15",
    "coopnav": "da2e9f0b73a18a501b1be784063682c3d6e98fd4aea63dda06f6292ef4d3fd68",
    "gridworld": "a7dca4a8dba8c9abfa6ac151ee9cc48f47b1de42e71635fb69c5ea89ddcb52fd",
    "predatorprey": "3fb38958c19fd226af55735e808d95ce92f483b9b4602d733f775b6689aecacf",
    "traffic": "aade4927c762b6d7c66623ab2eb7fdbea610b4c8832039abebb7f1bbfc47c61e",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ROLLOUTS))
def test_rollouts_match_golden_digests(name):
    env = make_env(name, horizon=40)
    rng = np.random.default_rng(123)
    B, n, T = 300, env.n_agents, env.horizon
    S0 = np.array([env.initial_state(rng) for _ in range(B)])
    if name == "coopnav":
        # positions on the 0.1 move grid give distance ties and covered landmarks
        S0[: B // 3] = np.round(S0[: B // 3], 1)
    kinds = rng.integers(0, 3, (B, n))
    alphas = rng.random((B, n))
    consts = rng.integers(0, env.n_actions, (B, n))
    act_u = rng.random((B, T, n, 2))
    env_u = rng.random((B, T, n, 2))
    outputs = kernels.rollout(env, S0, kinds, alphas, consts, act_u, env_u)
    digest = hashlib.sha256()
    for x, dtype in zip(outputs, (np.float64, np.int64, np.float64, np.float64, np.int64)):
        digest.update(np.ascontiguousarray(x, dtype=dtype).tobytes())
    assert digest.hexdigest() == GOLDEN_ROLLOUTS[name]


@pytest.mark.parametrize("name", ["additive", "coopnav", "gridworld", "predatorprey"])
def test_step_replays_rollout(name):
    # feeding the recorded joint actions back one row at a time through
    # transition() reproduces the rollout exactly
    env = make_env(name)
    s0 = env.initial_state(np.random.default_rng(5))
    states, actions, rewards, team, length = rollout(
        env, s0, env.horizon, [0] * env.n_agents, [0.8] * env.n_agents, seed=2
    )
    s = states[0]
    for t in range(length):
        ns, r, tr, done = step(env, s, actions[t])
        assert np.array_equal(ns, states[t + 1])
        assert np.allclose(r, rewards[t])
        assert tr == pytest.approx(float(team[t]), abs=1e-12)
        s = ns
    assert done == (length < env.horizon)


def test_gridworld_pays_team_bonus_when_both_goals_held():
    env = make_env("gridworld")
    # both agents one move from their goals, nothing reached yet
    state = np.array([1.0, 0.0, 3.0, 4.0, 0.0, 0.0, 4.0, 4.0, 0.0, 0.0])
    ns, rewards, team, done = step(env, state, np.array([2, 3]))
    assert done
    assert np.allclose(rewards, [0.99, 0.99])
    assert team == pytest.approx(0.99 * 2 + 5.0)
    assert ns[8] == 1.0 and ns[9] == 1.0


def test_gridworld_goal_reward_paid_once():
    env = make_env("gridworld")
    state = np.array([0.0, 0.0, 4.0, 4.0, 0.0, 0.0, 0.0, 4.0, 1.0, 0.0])
    # agent 0 sits on its already-reached goal: step cost only
    ns, rewards, team, done = step(env, state, np.array([4, 4]))
    assert not done
    assert np.allclose(rewards, [-0.01, -0.01])


def test_gridworld_placements_share_optimal_path_length():
    for width in (3, 5, 7):
        env = GridWorld(GridWorldConfig(width=width))
        want = 2 * width - 3
        for seed in range(60):
            s = env.initial_state(np.random.default_rng(seed))
            for i in range(2):
                d = abs(s[2 * i] - s[4 + 2 * i]) + abs(s[2 * i + 1] - s[5 + 2 * i])
                assert d == want
            assert s[8] == 0.0 and s[9] == 0.0


def test_gridworld_cooperation_beats_any_single_agent():
    # exhaustive depth-limited search on a 3x3 grid: the optimal joint
    # return must beat the best return achievable when only one agent moves
    env = make_env("gridworld", {"width": 3}, horizon=4)
    start = (0.0, 0.0, 2.0, 2.0, 2.0, 0.0, 0.0, 2.0, 0.0, 0.0)
    joint = [(a, b) for a in range(5) for b in range(5)]
    solo = [[(a, 4) for a in range(5)], [(4, b) for b in range(5)]]

    def best_return(state, depth, menu, memo):
        if depth == 0:
            return 0.0
        key = (state, depth)
        if key not in memo:
            best = -1e18
            for acts in menu:
                ns, _, tr, done = step(env, np.array(state), np.array(acts))
                total = float(tr)
                if not done:
                    total += best_return(tuple(ns), depth - 1, menu, memo)
                best = max(best, total)
            memo[key] = best
        return memo[key]

    coop = best_return(start, 4, joint, {})
    lone = max(best_return(start, 4, menu, {}) for menu in solo)
    assert coop == pytest.approx(6.96)
    assert lone == pytest.approx(0.92)
    assert coop > lone


def test_gridworld_bonus_rate_drops_under_intervention():
    env = make_env("gridworld")
    pols = default_policies(2)
    base = BaselinePolicy()

    def bonus_rate(policy_list, episodes):
        # factual episodes under policy_list, on the seed-42 streams
        eng = CounterfactualEngine(
            SeedTree(42), OutcomeSpec(), env=env, policies=policy_list
        )
        hist = eng.factuals(range(episodes))
        return (hist.team > 3).any(axis=1).sum() / episodes

    factual = bonus_rate(pols, 100)
    assert bonus_rate([base, pols[1]], 100) < factual
    assert bonus_rate([pols[0], base], 100) < factual
    # two untrained agents almost never finish together by luck
    assert bonus_rate([base, base], 200) < 0.05


def test_coopnav_collisions_penalize_each_pair():
    env = make_env("coopnav")
    stay = np.array([4, 4, 4])
    spread = np.array(
        [0.5, 0.5, 0.5, 0.5, 0.9, 0.9, 0.5, 0.5, 0.9, 0.9, 0.1, 0.1]
    )
    cost = np.hypot(0.4, 0.4)
    assert float(step(env, spread, stay)[2]) == pytest.approx(-cost - 1.0)
    piled = np.array(
        [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.9, 0.9, 0.1, 0.1]
    )
    lmcost = np.hypot(0.4, 0.4) * 2
    assert float(step(env, piled, stay)[2]) == pytest.approx(-lmcost - 3.0)


def test_coopnav_landmarks_hold_still():
    env = make_env("coopnav")
    s = env.initial_state(np.random.default_rng(0))
    states, _, _, _, length = rollout(env, s, env.horizon, [0] * 3, [0.8] * 3)
    assert np.array_equal(states[0][6:], states[length][6:])


def _pow_hypot(dx, dy):
    return np.float_power(np.float_power(dx, 2) + np.float_power(dy, 2), 0.5)


def reference_coopnav_greedy(S):
    # CoopNav.greedy_actions with every distance taken through C pow: the
    # filtered decisions must pick exactly what this picks
    dx = S[:, 0:6:2, None] - S[:, None, 6:12:2]
    dy = S[:, 1:6:2, None] - S[:, None, 7:12:2]
    covers = np.float_power(dx * dx + dy * dy, 0.5) < 0.1
    by_other = covers.sum(axis=1, keepdims=True) - covers > 0
    dist = _pow_hypot(dx, dy)
    free = np.where(by_other, np.inf, dist)
    target = np.where(
        (~by_other).any(axis=-1), free.argmin(axis=-1), dist.argmin(axis=-1)
    )
    tx = kernels.take(S[:, None, 6:12:2], target)
    ty = kernels.take(S[:, None, 7:12:2], target)
    xs, ys = kernels.grid_moves(S[:, 0:6:2], S[:, 1:6:2], 0.1, 1.0)
    return _pow_hypot(xs - tx[..., None], ys - ty[..., None]).argmin(axis=-1)


def reference_coopnav_transition(s, a):
    # CoopNav.transition with all five moves built and every distance
    # taken through C pow
    xs, ys = kernels.grid_moves(s[:, 0:6:2], s[:, 1:6:2], 0.1, 1.0)
    s[:, 0:6:2] = kernels.take(xs, a)
    s[:, 1:6:2] = kernels.take(ys, a)
    dx = s[:, 0:6:2, None] - s[:, None, 6:12:2]
    dy = s[:, 1:6:2, None] - s[:, None, 7:12:2]
    closest = _pow_hypot(dx, dy).min(axis=1)
    cost = 0.0
    for landmark in range(3):
        cost = cost + closest[:, landmark]
    collisions = 0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        dx = s[:, 2 * i] - s[:, 2 * j]
        dy = s[:, 2 * i + 1] - s[:, 2 * j + 1]
        collisions = collisions + (np.float_power(dx * dx + dy * dy, 0.5) < 0.1)
    team = -cost - 1.0 * collisions
    return np.repeat((team / 3.0)[:, None], 3, axis=1), team


def _ulps(x, k):
    """``x`` moved ``k`` ulps (either sign), elementwise."""
    x = np.array(x, dtype=np.float64)
    k = np.broadcast_to(k, x.shape)
    for _ in range(int(np.abs(k).max(initial=0))):
        x = np.where(k > 0, np.nextafter(x, np.inf), x)
        x = np.where(k < 0, np.nextafter(x, -np.inf), x)
        k = k - np.sign(k)
    return x


def _coopnav_edge_states(rng):
    """Coopnav states that put decisions on their edges, each kind tagged."""
    cases = {}
    B = 600
    # an agent 0.1 +- 0-3 ulps from a landmark, along an axis or a
    # diagonal, and agent pairs 0.1 +- 0-3 ulps apart
    S = rng.random((B, 12))
    k = rng.integers(-3, 4, B)
    angle = rng.choice([0.0, np.pi / 4, np.pi / 3, rng.random()], B)
    d = _ulps(np.full(B, 0.1), k)
    S[:, 6] = S[:, 0] + d * np.cos(angle)
    S[:, 7] = S[:, 1] + d * np.sin(angle)
    S[:, 2] = S[:, 0] + _ulps(np.full(B, 0.1), rng.integers(-3, 4, B))
    S[:, 3] = S[:, 1]
    S[:, 4] = _ulps(S[:, 2] - 0.06, rng.integers(-3, 4, B))
    S[:, 5] = _ulps(S[:, 3] + 0.08, rng.integers(-3, 4, B))
    cases["distance 0.1"] = S
    # agents on a landmark, and two agents on one
    S = rng.random((B, 12))
    S[:, 6:8] = S[:, 0:2]
    S[::2, 2:4] = S[::2, 0:2]
    S[1::3, 8:10] = S[1::3, 4:6]
    cases["on a landmark"] = S
    # duplicate landmarks, and three copies of one
    S = rng.random((B, 12))
    S[:, 8:10] = S[:, 6:8]
    S[::2, 10:12] = S[::2, 6:8]
    cases["duplicate landmarks"] = S
    # every landmark covered: each within 0.05 of its own agent
    S = rng.random((B, 12))
    S[:, 6:12] = np.clip(S[:, 0:6] + rng.uniform(-0.05, 0.05, (B, 6)), 0.0, 1.0)
    cases["all covered"] = S
    # a landmark half a move from an agent, +- 0-3 ulps: two moves nearly tie
    S = rng.random((B, 12))
    S[:, 6] = _ulps(S[:, 0] + 0.05, rng.integers(-3, 4, B))
    S[:, 7] = _ulps(S[:, 1] + rng.choice([0.0, 0.05], B), rng.integers(-3, 4, B))
    cases["half a move"] = S
    # positions on the 0.1 grid, and clipped to the walls
    cases["0.1 grid"] = np.round(rng.random((B, 12)), 1)
    S = rng.random((B, 12))
    S[rng.random((B, 12)) < 0.3] = 0.0
    S[rng.random((B, 12)) < 0.3] = 1.0
    cases["walls"] = S
    # offsets whose squares are subnormal, some of them exactly zero
    S = rng.random((B, 12)) * 1e-160
    S[::2, 6:12:2] = 0.0
    cases["subnormal squares"] = S
    cases["random"] = rng.random((B, 12))
    return cases


def test_coopnav_filtered_decisions_match_the_powers():
    # greedy_actions and transition decide on squared distances and take
    # C pow only in a guard band; every action, state and reward must equal
    # the all-pow reference, bit for bit
    env = make_env("coopnav")
    rng = np.random.default_rng(29)
    for kind, S in _coopnav_edge_states(rng).items():
        assert np.array_equal(env.greedy_actions(S), reference_coopnav_greedy(S)), kind
        for a in (np.full((len(S), 3), 4), rng.integers(0, 5, (len(S), 3))):
            s, ref = S.copy(), S.copy()
            rewards, team, done = env.transition(s, a, None)
            ref_rewards, ref_team = reference_coopnav_transition(ref, a)
            assert s.tobytes() == ref.tobytes(), kind
            assert rewards.tobytes() == ref_rewards.tobytes(), kind
            assert team.tobytes() == ref_team.tobytes(), kind
            assert not done.any()


def test_coopnav_edge_states_reach_the_guard_band():
    # the edge cases above are only a test of the filters if C pow decides
    # some of them: squares within 1e-12 of 0.01, and exact distance ties
    cases = _coopnav_edge_states(np.random.default_rng(29))
    S = cases["distance 0.1"]
    q = (S[:, 6] - S[:, 0]) ** 2 + (S[:, 7] - S[:, 1]) ** 2
    assert (np.abs(q - 0.01) < 1e-14).mean() > 0.9
    q = (S[:, 2] - S[:, 0]) ** 2 + (S[:, 3] - S[:, 1]) ** 2
    assert (np.abs(q - 0.01) < 1e-14).mean() > 0.9
    S = cases["duplicate landmarks"]
    assert np.array_equal(S[:, 6:8], S[:, 8:10])


def test_move_applies_grid_moves_for_the_chosen_action():
    rng = np.random.default_rng(4)
    for step_len, hi in ((1.0, 4.0), (0.1, 1.0)):
        x = rng.choice([0.0, step_len / 2, hi / 2, hi - step_len / 2, hi], (60, 3))
        y = rng.choice([0.0, step_len / 2, hi / 2, hi - step_len / 2, hi], (60, 3))
        xs, ys = kernels.grid_moves(x, y, step_len, hi)
        for action in range(5):
            a = np.full(x.shape, action)
            mx, my = kernels.move(x, y, a, step_len, hi)
            assert mx.tobytes() == kernels.take(xs, a).tobytes()
            assert my.tobytes() == kernels.take(ys, a).tobytes()
        a = rng.integers(0, 5, x.shape)
        mx, my = kernels.move(x, y, a, step_len, hi)
        assert mx.tobytes() == kernels.take(xs, a).tobytes()
        assert my.tobytes() == kernels.take(ys, a).tobytes()


def test_predator_prey_moves_before_predators():
    env = make_env("predatorprey")
    # lone mover adjacent to the prey: the prey slips away first
    state = np.array([0.0, 0.0, 6.0, 6.0, 0.0, 1.0])
    ns, _, _, done = step(env, state, np.array([0, 4]))
    assert not done
    assert np.array_equal(ns, [0.0, 1.0, 6.0, 6.0, 0.0, 2.0])


def test_predator_prey_breaks_evasion_ties_by_lowest_action():
    env = make_env("predatorprey")
    state = np.array([0.0, 3.0, 6.0, 3.0, 3.0, 3.0])
    ns, _, _, _ = step(env, state, np.array([4, 4]))
    # up and down both reach distance 4; up has the lower action index
    assert ns[4] == 3.0 and ns[5] == 4.0


def test_predator_capture_requires_boxing_in():
    env = make_env("predatorprey")
    state = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    ns, rewards, team, done = step(env, state, np.array([2, 1]))
    assert done
    assert np.allclose(rewards, [9.95, 9.95])
    assert float(team) == pytest.approx(19.9)
    assert np.array_equal(ns[:4], [0.0, 0.0, 0.0, 0.0])


def test_lone_pursuer_never_captures_an_evading_prey():
    # with one predator parked in its corner, every prey start survives
    env = make_env("predatorprey")
    width, horizon = 7, 60
    kinds = np.array([0, 2], dtype=np.int64)
    alphas = np.array([1.0, 0.0])
    consts = np.array([0, 4], dtype=np.int64)
    act_u = np.zeros((horizon, 2, 2))
    env_u = np.zeros((horizon, 2, 2))
    for px in range(width):
        for py in range(width):
            if (px, py) in ((0, 0), (6, 6)):
                continue
            s0 = np.array([0.0, 0.0, 6.0, 6.0, float(px), float(py)])
            _, _, _, team, length = rollout_one(
                env, s0, kinds, alphas, consts, act_u, env_u
            )
            assert length == horizon
            assert not (team > 5).any()


def test_predators_pay_collision_penalty_while_crowding():
    env = make_env("predatorprey", {"collision_penalty": 4.0})
    state = np.array([2.0, 2.0, 3.0, 2.0, 6.0, 6.0])
    _, rewards, _, _ = step(env, state, np.array([4, 4]))
    assert np.allclose(rewards, [-4.05, -4.05])
    apart = np.array([0.0, 0.0, 6.0, 6.0, 3.0, 3.0])
    _, rewards, _, _ = step(env, apart, np.array([4, 4]))
    assert np.allclose(rewards, [-0.05, -0.05])


def test_traffic_empty_queues_give_zero_reward():
    env = make_env("traffic")
    zeros = np.zeros(6)
    for acts in ([0, 0, 0], [1, 0, 1]):
        _, rewards, team, done = step(
            env, zeros, np.array(acts), np.random.default_rng(0)
        )
        assert np.allclose(rewards, 0.0)
        assert team == 0.0
        assert not done


def test_traffic_service_caps_departures():
    env = make_env("traffic")
    state = np.array([5.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(0)
    ns, rewards, _, _ = step(env, state, np.array([0, 0, 0]), rng)
    # two cars leave the green NS queue before arrivals land on top
    assert rewards[0] == pytest.approx(-(3.0 + 1.0) / 10.0)


def test_traffic_needs_env_randomness():
    # arrivals come from the environment uniforms, whatever the actions
    env = make_env("traffic")
    assert env.uses_env_uniforms
    acts = np.zeros((1, 3), dtype=np.int64)
    every, none = np.zeros((1, 6)), np.zeros((1, 6))
    env.transition(every, acts, np.zeros((1, 3, 2)))
    env.transition(none, acts, np.full((1, 3, 2), 0.999))
    assert np.array_equal(every[0], np.ones(6))
    assert not none.any()


def test_additive_rewards_ignore_the_other_agent():
    env = make_env("additive")
    s0 = env.initial_state(np.random.default_rng(1))
    rng = np.random.default_rng(2)
    act_a = rng.random((env.horizon, 2, 2))
    act_b = act_a.copy()
    act_b[:, 1, :] = rng.random((env.horizon, 2))
    run = lambda u: rollout_one(
        env,
        s0,
        np.array([1, 1], dtype=np.int64),
        np.zeros(2),
        np.zeros(2, dtype=np.int64),
        u,
        np.zeros((env.horizon, 2, 2)),
    )
    _, _, rew_a, team_a, _ = run(act_a)
    _, _, rew_b, team_b, _ = run(act_b)
    assert np.array_equal(rew_a[:, 0], rew_b[:, 0])
    assert not np.array_equal(rew_a[:, 1], rew_b[:, 1])
    assert np.allclose(team_a, rew_a.sum(axis=1))

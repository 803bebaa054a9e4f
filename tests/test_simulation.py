import dataclasses
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from stealthguard import (
    AttackScenario,
    AttackTrace,
    DcsTopology,
    FilterConvergenceError,
    Realization,
    StructuredSystem,
    SynthesisSpec,
    false_alarm_rate,
    find_perfect_attack,
    is_structurally_left_invertible,
    load_topology,
    max_linking,
    normal_rank,
    realize,
    simulate,
    spectral_radius,
    synthesize,
    synthesize_platoon,
)
from stealthguard import simulation
from stealthguard.simulation import _chi_square_95th_percentile, _doublings, _is_prime, \
    _noise_factor, _quadratic_form, _random_prime, _rank_mod, _residues, _sample_noise

from oracles import brute_max_linking, evaluate_transfer, plain_riccati, random_topology, \
    reference_patterns, seven_draw_rank, stepped_run


def make_system(n, m, edges, sensors, agents=(), observers=()):
    t = DcsTopology(n=n, m=m, agent_edges=edges, observer_assignment=sensors)
    scen = AttackScenario(compromised_agents=set(agents), compromised_observers=set(observers),
                         p_bound=len(agents) + len(observers))
    return StructuredSystem(topology=t, scenario=scen)


def hidden_pair():
    # two agents, one sensor: two attack inputs can never be told apart
    return make_system(2, 1, {(1, 1), (2, 2), (2, 1)}, {1: 1}, agents=[1, 2])


def test_realize_single_agent_hits_target_radius():
    sys = make_system(1, 1, {(1, 1)}, {1: 1}, agents=[1])
    real = realize(sys, seed=0)
    assert real.A.shape == (1, 1)
    assert abs(abs(real.A[0, 0]) - 0.9) < 1e-12


def test_realize_preserves_patterns_and_stabilizes():
    rng = np.random.default_rng(9)
    for seed in range(100):
        t = random_topology(rng, n_max=5)
        agents = {int(v) + 1 for v in rng.permutation(t.n)[: int(rng.integers(0, t.n + 1))]}
        observers = {int(v) + 1 for v in rng.permutation(t.m)[: int(rng.integers(0, t.m + 1))]}
        scen = AttackScenario(compromised_agents=agents, compromised_observers=observers,
                              p_bound=max(1, len(agents) + len(observers)))
        sys = StructuredSystem(topology=t, scenario=scen)
        real = realize(sys, seed=seed)
        for mat, pattern in zip((real.A, real.B, real.C, real.D), reference_patterns(sys)):
            assert np.array_equal(mat != 0, pattern)
        assert all(np.isin(mat, (0.0, 1.0)).all() for mat in (real.B, real.C, real.D))
        assert abs(spectral_radius(real.A) - 0.9) < 1e-9
        if t.m:
            assert spectral_radius(real.A - real.K @ real.C @ real.A) < 1.0


def test_realize_refuses_a_topology_without_agents():
    sys = make_system(0, 0, set(), {})
    with pytest.raises(ValueError, match="at least one agent"):
        realize(sys)


def test_realization_arrays_are_read_only_copies():
    real = realize(hidden_pair(), seed=1)
    for name in ("A", "B", "C", "D", "Q", "R", "K", "residue_cov"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(real, name)[0, 0] = np.nan
    given = real.A.copy()
    copied = dataclasses.replace(real, A=given)
    given[0, 0] = np.nan
    assert copied.A[0, 0] == real.A[0, 0]


def test_realize_validates_arguments():
    sys = hidden_pair()
    with pytest.raises(ValueError):
        realize(sys, spectral_radius_target=1.0)
    with pytest.raises(ValueError):
        realize(sys, spectral_radius_target=0.0)
    with pytest.raises(FilterConvergenceError):
        realize(sys, process_noise=0.0, measurement_noise=0.0)


def test_alarm_threshold_must_be_finite_and_nonnegative():
    sys = hidden_pair()
    real = realize(sys, seed=3, eta=0.0)
    for eta in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eta"):
            realize(sys, eta=eta)
        with pytest.raises(ValueError, match="eta"):
            dataclasses.replace(real, eta=eta)
        with pytest.raises(ValueError, match="eta"):
            false_alarm_rate(real, eta=eta, samples=10)


def test_alarm_threshold_must_be_a_real_number():
    sys = hidden_pair()
    real = realize(sys, seed=3)
    for eta in ("3.84", [1.0], 1 + 0j, None):
        message = f"eta must be a real number.*got {re.escape(repr(eta))}"
        if eta is not None:  # realize and false_alarm_rate read None as the default
            with pytest.raises(ValueError, match=message):
                realize(sys, eta=eta)
            with pytest.raises(ValueError, match=message):
                false_alarm_rate(real, eta=eta, samples=10)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(real, eta=eta)
    for eta in (np.float64(2.5), np.int64(3), Fraction(7, 2), True):
        assert dataclasses.replace(real, eta=eta).eta == float(eta)


# The 95th percentile of chi-square with m degrees of freedom, to 50 digits:
#   mpmath.mp.dps = 50
#   2 * mpmath.findroot(lambda t: mpmath.gammainc(mpmath.mpf(m) / 2, 0, t,
#                                                 regularized=True)
#                       - mpmath.mpf("0.95"), m / 2)
CHI_SQUARE_95 = {
    1: "3.8414588206941259583613754373625968462133681420148",
    2: "5.9914645471079819868704471522850815513532032459781",
    3: "7.8147279032511799552689948735204502691658177899034",
    5: "11.070497693516354178160270836042313626222547160386",
    8: "15.507313055865453822174006719132793476967639512740",
    13: "22.362032494826939865006579475173479660030251673125",
    35: "49.801849568201868000454152592827036808510280454399",
    100: "124.34211340400408172547801973492512266772233674162",
    1000: "1074.6794488034409844675038048064979626660568409296",
    5000: "5165.6145186758032408282064864943576960074949972909",
}


def test_default_threshold_is_the_chi_square_95th_percentile():
    # Relative, not bitwise: scipy's chi2.ppf is itself up to 8 ulps off
    # the 50-digit value (at m = 35 and m = 38).
    for m in (1, 2, 3, 5, 8, 13):
        sys = make_system(m, m, {(i, i) for i in range(1, m + 1)},
                          {k: k for k in range(1, m + 1)})
        eta = realize(sys, seed=0).eta
        assert eta == pytest.approx(float(CHI_SQUARE_95[m]), rel=1e-13, abs=0)
        assert eta == pytest.approx(stats.chi2.ppf(0.95, m), rel=1e-13, abs=0)
    for m, digits in CHI_SQUARE_95.items():
        assert _chi_square_95th_percentile(m) == pytest.approx(float(digits), rel=1e-13, abs=0)
    for m in [*range(1, 41), 100, 500, 1000, 5000]:
        assert _chi_square_95th_percentile(m) == pytest.approx(
            stats.chi2.ppf(0.95, m), rel=1e-13, abs=0)


def test_realize_accepts_noise_configuration():
    sys = hidden_pair()
    real = realize(sys, process_noise=2.0, measurement_noise=0.5)
    assert np.array_equal(real.Q, 2.0 * np.eye(2))
    assert np.array_equal(real.R, 0.5 * np.eye(1))
    custom = realize(sys, process_noise=np.diag([1.0, 3.0]))
    assert np.array_equal(custom.Q, np.diag([1.0, 3.0]))
    with pytest.raises(ValueError):
        realize(sys, process_noise=np.array([[1.0, 2.0], [0.0, 1.0]]))


def _relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("noise", [
    {},
    {"measurement_noise": 0.5},
    {"measurement_noise": np.diag([0.0, 0.3])},
    {"process_noise": np.diag([0.5, 2.0, 1.0, 3.0])},
], ids=["R-zero", "R-half-identity", "R-with-a-zero-entry", "Q-diagonal"])
def test_doubling_k_times_equals_two_to_the_k_minus_one_plain_steps(noise):
    sys = make_system(4, 2, {(1, 1), (2, 2), (3, 3), (4, 4), (1, 2), (2, 3), (3, 4), (4, 1)},
                      {1: 1, 2: 3})
    real = realize(sys, seed=5, **noise)
    iterates = _doublings(real.A, real.C, real.Q, real.R)
    for k in range(5):
        filtered, _ = plain_riccati(real.A, real.C, real.Q, real.R, 2**k - 1)
        assert _relative_error(next(iterates), filtered) <= 1e-12, k


@pytest.mark.parametrize("seed", [1, 4])
def test_gain_matches_a_long_plain_recursion(seed):
    built = synthesize_platoon(45, 2, 2, observers_attackable=False)
    scen = AttackScenario(compromised_agents={1, 2}, compromised_observers=set(), p_bound=2)
    real = realize(StructuredSystem(topology=built.topology, scenario=scen), seed=seed)
    _, K = plain_riccati(real.A, real.C, real.Q, real.R, 5000)
    assert _relative_error(real.K, K) <= 1e-12


def test_gain_needs_an_invertible_innovation_covariance():
    # no process noise reaches the observed agent and its sensor is exact
    sys = make_system(2, 1, {(1, 1), (2, 2), (2, 1)}, {1: 1})
    with pytest.raises(FilterConvergenceError, match="innovation covariance is singular"):
        realize(sys, process_noise=np.diag([0.0, 1.0]))
    realize(sys, process_noise=np.diag([0.0, 1.0]), measurement_noise=0.1)


def test_unconverged_gain_reports_its_residual_and_doublings(monkeypatch):
    built = synthesize_platoon(45, 2, 2, observers_attackable=False)
    sys = StructuredSystem(topology=built.topology, scenario=AttackScenario(
        compromised_agents={1, 2}, compromised_observers=set(), p_bound=2))
    monkeypatch.setattr(simulation, "_RESIDUAL_TOL", -1.0)  # no residual passes
    with pytest.raises(FilterConvergenceError, match="did not converge") as info:
        realize(sys, seed=1)
    residual, doublings = re.search(r"residual (\S+) after (\d+) doublings",
                                    str(info.value)).groups()
    assert float(residual) <= 1e-12
    assert 1 <= int(doublings) <= 12


def test_transfer_matches_closed_form():
    sys = make_system(1, 1, {(1, 1)}, {1: 1}, agents=[1])
    real = realize(sys, seed=4)
    a = real.A[0, 0]
    b = real.B[0, 0]
    c = real.C[0, 0]
    for z in (2.0, -1.5 + 0.5j):
        got = evaluate_transfer(real, z)[0, 0]
        assert got == pytest.approx(c * b / (z - a))


def test_normal_rank_observed_agent():
    sys = make_system(2, 2, {(1, 1), (2, 2)}, {1: 1, 2: 2}, agents=[1])
    real = realize(sys, seed=1)
    assert normal_rank(real) == 1


def test_normal_rank_tracks_structure():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        t = random_topology(rng, n=n, m=int(rng.integers(1, n + 1)))
        count = int(rng.integers(1, t.n + 1))
        agents = {int(v) + 1 for v in rng.permutation(t.n)[:count]}
        scen = AttackScenario(compromised_agents=agents, compromised_observers=set(),
                              p_bound=count)
        sys = StructuredSystem(topology=t, scenario=scen)
        real = realize(sys, seed=int(rng.integers(10000)))
        rank = normal_rank(real)
        if is_structurally_left_invertible(sys):
            assert rank == sys.num_attack_inputs
        else:
            assert rank < sys.num_attack_inputs


def random_attacked_system(rng, n_max):
    """A random topology with 1..n_max agents and at least one sensor,
    attacked at random agents and observers."""
    n = int(rng.integers(1, n_max + 1))
    t = random_topology(rng, n=n, m=int(rng.integers(1, n + 1)),
                        edge_prob=float(rng.uniform(0.05, min(1.0, 3.0 / n))))
    agents = {int(v) + 1 for v in rng.permutation(t.n)[:int(rng.integers(0, t.n + 1))]}
    observers = {int(v) + 1 for v in rng.permutation(t.m)[:int(rng.integers(0, t.m + 1))]}
    if not agents and not observers:
        agents = {1}
    return StructuredSystem(topology=t, scenario=AttackScenario(
        compromised_agents=agents, compromised_observers=observers,
        p_bound=len(agents) + len(observers)))


def count_pencil_ranks(monkeypatch):
    calls = []
    pencil_rank = simulation._pencil_rank
    monkeypatch.setattr(simulation, "_pencil_rank",
                        lambda *args: calls.append(1) or pencil_rank(*args))
    return calls


def test_normal_rank_equals_the_linking_and_the_seven_draw_loop(monkeypatch):
    # a realize-made system is generic: its rank is its linking, whether or
    # not that falls short of the input count, and the first draw meets it
    rng = np.random.default_rng(2024)
    calls = count_pencil_ranks(monkeypatch)
    deficient = 0
    for index in range(300):
        sys = random_attacked_system(rng, 14)
        real = realize(sys, seed=index)
        calls.clear()
        rank = normal_rank(real, seed=index)
        assert len(calls) == 1, index
        assert rank == max_linking(sys).size == seven_draw_rank(real, seed=index), index
        deficient += rank < sys.num_attack_inputs
    assert 60 <= deficient <= 240


def test_deficient_rank_is_decided_in_one_draw(monkeypatch):
    real = realize(hidden_pair(), seed=3)
    calls = count_pencil_ranks(monkeypatch)
    assert normal_rank(real) == 1 < real.num_inputs
    assert len(calls) == 1


def test_non_generic_realization_falls_below_its_linking(monkeypatch):
    # both sensors read x1 + x2: the linking u1-x1-y1, u2-x2-y2 has size 2,
    # but the transfer matrix ones(2, 2) / (z - 0.5) has rank 1
    real = Realization(
        A=0.5 * np.eye(2), B=np.eye(2), C=np.ones((2, 2)), D=np.zeros((2, 2)),
        Q=np.eye(2), R=np.eye(2), K=np.zeros((2, 2)), residue_cov=np.eye(2), eta=5.99)
    assert simulation._linking_bound(real.A, real.B, real.C, real.D) == 2
    calls = count_pencil_ranks(monkeypatch)
    assert normal_rank(real) == 1
    assert len(calls) == 7
    trace = find_perfect_attack(real)
    assert trace is not None
    assert np.max(np.abs(trace.inputs)) > 0
    assert np.allclose(trace.inputs[:, 0], -trace.inputs[:, 1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("q", [2**31 - 1, 1_000_000_007, 1_073_741_827])
def test_residues_match_exact_rational_arithmetic(q):
    values = [0.0, -0.0, 1.0, -1.0, 0.1, -0.3, 2.0 / 3.0, -123456789.123,
              5e-324, -2.5e-310, 2.2250738585072014e-308, -3.0 * 2.0**-1060,
              1.7976931348623157e308, -(2.0**1000), 2.0**52 + 1, 0.9 * 2.0**-40]
    got = _residues(np.array(values).reshape(4, 4), q)
    assert got.dtype == np.int64 and got.shape == (4, 4)
    for value, residue in zip(values, got.ravel()):
        exact = Fraction(value)
        want = exact.numerator * pow(exact.denominator, -1, q) % q
        assert residue == want, value


def test_realization_rejects_non_finite_entries():
    # every numeric function, _residues among them, relies on this check
    real = realize(hidden_pair(), seed=3)
    for field in ("A", "B", "C", "D", "Q", "R", "K", "residue_cov"):
        for bad in (np.inf, -np.inf, np.nan):
            matrix = getattr(real, field).copy()
            matrix.flat[0] = bad
            with pytest.raises(ValueError, match="finite"):
                dataclasses.replace(real, **{field: matrix})


def test_rank_mod_returns_known_ranks():
    q = 2**31 - 1
    rng = np.random.default_rng(3)
    for rows, cols, rank in [(1, 1, 0), (1, 1, 1), (4, 7, 0), (5, 5, 3), (6, 4, 4),
                             (7, 9, 5), (30, 20, 12)]:
        left = rng.integers(0, q, (rows, rank))
        right = rng.integers(0, q, (rank, cols))
        mat = np.zeros((rows, cols), dtype=np.int64)
        for t in range(rank):  # product mod q, kept below 2**63 term by term
            mat = (mat + np.outer(left[:, t], right[t]) % q) % q
        assert _rank_mod(mat, q) == rank, (rows, cols, rank)
    # pivots that need a row swap, a zero column, and a rank lost only mod q
    swap = np.array([[0, 0, 1], [0, 2, 5], [3, 1, 4]], dtype=np.int64)
    assert _rank_mod(swap, q) == 3
    assert _rank_mod(np.array([[0, 1], [0, 1]], dtype=np.int64), q) == 1
    assert _rank_mod(np.array([[2, 1], [1, 4]], dtype=np.int64), 7) == 1
    assert _rank_mod(np.array([[2, 1], [1, 4]], dtype=np.int64), q) == 2
    original = swap.copy()
    _rank_mod(swap, q)
    assert np.array_equal(swap, original)


def test_prime_draws_match_trial_division():
    candidates = np.arange(2**30 + 1, 2**30 + 4001, 2)
    small = np.arange(2, 32769)
    small = small[[all(v % d for d in range(2, int(v**0.5) + 1)) for v in small]]
    expected = np.all(candidates[:, None] % small[None, :] != 0, axis=1)
    assert [_is_prime(int(c)) for c in candidates] == expected.tolist()
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = _random_prime(rng)
        assert 2**30 <= q < 2**31 and _is_prime(q)


@pytest.mark.parametrize("n, seed", [(20, 4), (30, 0), (30, 2), (30, 4), (45, 0), (45, 1),
                                     (45, 2), (45, 3), (45, 4), (100, 0)])
def test_certified_platoon_has_full_rank_and_no_stealthy_input(n, seed):
    built = synthesize_platoon(n, 2, 2, observers_attackable=False)
    assert built.certified
    scen = AttackScenario(compromised_agents={1, 2}, compromised_observers=set(), p_bound=2)
    real = realize(StructuredSystem(topology=built.topology, scenario=scen), seed=seed)
    assert normal_rank(real) == 2
    assert find_perfect_attack(real) is None


def _replayed_output_deviation(real, inputs, steps):
    x = np.zeros(real.n)
    peak = 0.0
    for k in range(steps):
        u = inputs[k] if k < len(inputs) else np.zeros(real.num_inputs)
        peak = max(peak, float(np.max(np.abs(real.C @ x + real.D @ u), initial=0.0)))
        x = real.A @ x + real.B @ u
    return peak


def test_exact_rank_witness_and_structure_agree():
    rng = np.random.default_rng(1104)
    systems = [make_system(2, 1, {(1, 1), (2, 2), (2, 1)}, {1: 1}, agents=[1, 2],
                           observers=[1])]  # wide map: 6 output rows, 12 inputs
    while len(systems) < 60:
        n = int(rng.integers(1, 21))
        t = random_topology(rng, n=n, m=int(rng.integers(1, n + 1)),
                            edge_prob=float(rng.uniform(0.03, 2.0 / n)))
        count = int(rng.integers(1, min(t.n, t.m + 1) + 1))
        agents = {int(v) + 1 for v in rng.permutation(t.n)[:count]}
        observers = {int(rng.integers(1, t.m + 1))} if rng.random() < 0.3 else set()
        systems.append(StructuredSystem(topology=t, scenario=AttackScenario(
            compromised_agents=agents, compromised_observers=observers,
            p_bound=len(agents) + len(observers))))
    verdicts = {True: 0, False: 0}
    for index, sys in enumerate(systems):
        p_in = sys.num_attack_inputs
        invertible = is_structurally_left_invertible(sys)
        verdicts[invertible] += 1
        assert (brute_max_linking(sys) == p_in) == invertible, index
        real = realize(sys, seed=index)
        assert (normal_rank(real, seed=index) == p_in) == invertible, index
        trace = find_perfect_attack(real)
        assert (trace is None) == invertible, index
        if trace is not None:
            steps = trace.horizon + real.n
            assert _replayed_output_deviation(real, trace.inputs, steps) <= 1e-8, index
            assert np.max(np.abs(trace.inputs)) > 0, index
    assert verdicts[True] >= 15 and verdicts[False] >= 15


def test_perfect_attack_exists_with_outnumbered_sensors():
    real = realize(hidden_pair(), seed=3)
    trace = find_perfect_attack(real)
    assert trace is not None
    assert trace.horizon == 4
    assert np.max(np.abs(trace.inputs)) > 0
    # scaled to unit peak state deviation over the horizon and n settling steps
    dev = simulate(real, attack=trace, horizon=trace.horizon + real.n)
    assert np.max(np.abs(dev.delta_residues)) <= 1e-8
    assert np.max(np.abs(dev.delta_states)) == pytest.approx(1.0)


def test_perfect_attack_absent_for_invertible_system():
    sys = make_system(2, 2, {(1, 1), (2, 2), (1, 2)}, {1: 1, 2: 2}, agents=[1, 2])
    assert is_structurally_left_invertible(sys)
    for seed in range(5):
        real = realize(sys, seed=seed)
        assert find_perfect_attack(real) is None


def test_perfect_attack_none_without_inputs():
    sys = make_system(1, 1, {(1, 1)}, {1: 1})
    real = realize(sys, seed=0)
    assert find_perfect_attack(real) is None


def test_perfect_attack_horizon_validation():
    real = realize(hidden_pair(), seed=3)
    with pytest.raises(ValueError):
        find_perfect_attack(real, horizon=3)
    longer = find_perfect_attack(real, horizon=6)
    assert longer is not None and longer.horizon == 6


def with_unreached_agents(n, m, edges, sensors, agents):
    """The system plus a disjoint two-agent component with its own sensor,
    and an upstream agent that feeds agent 1; the attack reaches none of
    the three."""
    extra = {(n + 1, n + 1), (n + 2, n + 2), (n + 1, n + 2), (n + 3, n + 3), (n + 3, 1)}
    return make_system(n + 3, m + 1, set(edges) | extra, {**sensors, m + 1: n + 2},
                       agents=agents)


@pytest.mark.parametrize("base", [
    (2, 1, {(1, 1), (2, 2), (2, 1)}, {1: 1}, [1, 2]),  # deficient
    (2, 2, {(1, 1), (2, 2), (1, 2)}, {1: 1, 2: 2}, [1, 2]),  # invertible
    (3, 1, {(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)}, {1: 3}, [1]),  # invertible chain
], ids=["deficient", "invertible", "chain"])
def test_unreached_agents_change_neither_rank_nor_witness(base):
    small = make_system(*base[:4], agents=base[4])
    large = with_unreached_agents(*base)
    assert (is_structurally_left_invertible(small)
            == is_structurally_left_invertible(large))
    for seed in range(5):
        real_small, real_large = realize(small, seed=seed), realize(large, seed=seed)
        assert normal_rank(real_small, seed=seed) == normal_rank(real_large, seed=seed)
        found_small = find_perfect_attack(real_small) is not None
        assert found_small == (find_perfect_attack(real_large) is not None)
        assert found_small == (not is_structurally_left_invertible(small))


def test_witness_lasts_at_most_twice_the_reached_states():
    # the attack reaches agents 1 and 2 of 5, so only rows 0-3 may be nonzero
    real = realize(with_unreached_agents(2, 1, {(1, 1), (2, 2), (2, 1)}, {1: 1}, [1, 2]),
                   seed=3)
    for horizon in (None, 40):
        trace = find_perfect_attack(real, horizon=horizon)
        assert trace.inputs.shape == (trace.horizon, 2)
        assert np.any(trace.inputs[:4])
        assert not np.any(trace.inputs[4:])
        steps = trace.horizon + real.n
        assert _replayed_output_deviation(real, trace.inputs, steps) <= 1e-8


def test_sensor_only_attack_has_full_rank_and_no_witness():
    sys = make_system(2, 2, {(1, 1), (2, 2), (1, 2)}, {1: 1, 2: 2}, observers=[1, 2])
    for seed in range(3):
        real = realize(sys, seed=seed)
        assert normal_rank(real) == real.num_inputs == 2
        assert find_perfect_attack(real) is None


def test_input_that_drives_nothing_is_a_witness():
    real = Realization(
        A=0.5 * np.eye(2), B=np.zeros((2, 1)), C=np.array([[1.0, 0.0]]),
        D=np.zeros((1, 1)), Q=np.eye(2), R=np.zeros((1, 1)), K=np.zeros((2, 1)),
        residue_cov=np.eye(1), eta=3.84)
    assert normal_rank(real) == 0
    trace = find_perfect_attack(real)
    assert trace is not None and trace.horizon == 4
    assert abs(trace.inputs[0, 0]) == pytest.approx(1.0)
    assert not np.any(trace.inputs[1:])


def test_attacked_agent_that_reaches_no_sensor_is_a_witness():
    sys = make_system(2, 1, {(1, 1), (2, 2)}, {1: 1}, agents=[2])
    real = realize(sys, seed=1)
    assert normal_rank(real) == 0
    trace = find_perfect_attack(real)
    assert trace is not None
    res = simulate(real, attack=trace, horizon=trace.horizon + real.n)
    assert not np.any(res.delta_residues)
    assert np.max(np.abs(res.delta_states)) == pytest.approx(1.0)


def test_long_horizon_witness_on_the_cut_design():
    topology, _ = load_topology(Path(__file__).resolve().parent / "golden" / "inputs" / "cut.txt")
    scen = AttackScenario(compromised_agents={2, 4}, compromised_observers=set(), p_bound=2)
    real = realize(StructuredSystem(topology=topology, scenario=scen), seed=0)
    horizon = 100 * real.n
    trace = find_perfect_attack(real, horizon=horizon)
    assert trace.horizon == horizon and trace.inputs.shape == (horizon, 2)
    assert _replayed_output_deviation(real, trace.inputs, horizon + real.n) <= 1e-8


def test_noise_variances_must_be_finite_and_nonnegative():
    sys = hidden_pair()
    for bad in (float("nan"), float("inf"), -float("inf"), -1.0, "1"):
        for kwargs in ({"process_noise": bad}, {"measurement_noise": bad}):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                realize(sys, **kwargs)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            realize(sys, process_noise=np.diag([1.0, bad]))
        with pytest.raises(ValueError, match="finite"):
            realize(sys, measurement_noise=np.array([[bad]]))


def test_simulate_rejects_non_finite_attack_inputs():
    real = realize(hidden_pair(), seed=3)
    for bad in (np.nan, np.inf, -np.inf):
        attack = np.zeros((5, 2))
        attack[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            simulate(real, attack=attack, horizon=10)


@pytest.mark.parametrize("call, kwargs", [
    (find_perfect_attack, {"horizon": 6.7}),
    (find_perfect_attack, {"horizon": "8"}),
    (simulate, {"horizon": 2.5}),
    (simulate, {"seed": 1.5}),
    (normal_rank, {"seed": "3"}),
    (false_alarm_rate, {"samples": 100, "seed": 2.5}),
], ids=["attack-float-horizon", "attack-str-horizon", "simulate-float-horizon",
        "simulate-float-seed", "rank-str-seed", "calibration-float-seed"])
def test_count_arguments_must_be_integers(call, kwargs):
    real = realize(hidden_pair(), seed=3)
    with pytest.raises(ValueError, match="must be an integer"):
        call(real, **kwargs)
    whole = {name: np.int64(int(float(value))) for name, value in kwargs.items()}
    call(real, **whole)


def test_realize_seed_must_be_an_integer_and_target_a_real_number():
    sys = hidden_pair()
    with pytest.raises(ValueError, match="seed must be an integer"):
        realize(sys, seed=1.5)
    for target in ("0.5", None, 1j):
        with pytest.raises(ValueError, match="must be a real number"):
            realize(sys, spectral_radius_target=target)
    real = realize(sys, seed=np.int64(2), spectral_radius_target=np.float64(0.5))
    assert np.array_equal(real.K, realize(sys, seed=2, spectral_radius_target=0.5).K)


def test_simulate_without_attack_has_zero_deviation():
    sys = make_system(3, 1, {(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)}, {1: 3})
    real = realize(sys, seed=2)
    res = simulate(real, seed=8, horizon=50)
    assert res.horizon == 50
    assert not res.delta_states.any()
    assert not res.delta_outputs.any()
    assert not res.delta_residues.any()
    assert np.array_equal(res.alarms, res.attacked_alarms)


def reference_simulation(real, inputs, seed, horizon):
    """`simulate`'s nominal and deviation runs stepped by `stepped_run`,
    under the noise `simulate` draws for the seed."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(real.n)
    w = _sample_noise(rng, _noise_factor(real.Q), (horizon, real.n))
    v = _sample_noise(rng, _noise_factor(real.R), (horizon, real.m))
    nominal = stepped_run(real, x0, w, v)
    U = np.zeros((horizon, real.num_inputs))
    U[:len(inputs)] = inputs[:horizon]
    deviation = stepped_run(real, np.zeros(real.n), -(U @ real.B.T), -(U @ real.D.T))
    return nominal, deviation


def assert_matches_reference(res, real, inputs, seed, horizon):
    (states, estimates, outputs, residues), (dx, _, dy, dz) = \
        reference_simulation(real, inputs, seed, horizon)
    for got, want in ((res.states, states), (res.estimates, estimates),
                      (res.outputs, outputs), (res.residues, residues),
                      (res.delta_states, dx), (res.delta_outputs, dy),
                      (res.delta_residues, dz)):
        scale = float(np.max(np.abs(want), initial=0.0))
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale
    for got, z in ((res.alarms, residues), (res.attacked_alarms, residues - dz)):
        form = _quadratic_form(z, real.residue_cov)
        clear = np.abs(form - real.eta) > 1e-9
        assert np.array_equal(got[clear], (form > real.eta)[clear])


@pytest.mark.parametrize("noise", [None, 0.5], ids=["R=0", "R=0.5I"])
def test_simulate_matches_the_stepped_reference(noise):
    rng = np.random.default_rng(77 if noise is None else 78)
    for index in range(30):
        sys = random_attacked_system(rng, 12)
        real = realize(sys, seed=index, measurement_noise=noise)
        horizon = int(rng.integers(1, 120))
        inputs = rng.standard_normal((int(rng.integers(1, 40)), real.num_inputs))
        res = simulate(real, attack=inputs, seed=index, horizon=horizon)
        assert_matches_reference(res, real, inputs, index, horizon)


def test_simulate_filter_recursion_and_first_residue():
    sys = make_system(2, 1, {(1, 1), (2, 2), (1, 2)}, {1: 2})
    real = realize(sys, seed=6)
    res = simulate(real, seed=12, horizon=30)
    # the prior estimate is zero, so the first residue is the raw output,
    # and the filter already corrects by it at step 0
    assert np.array_equal(res.residues[0], res.outputs[0])
    assert np.array_equal(res.estimates[0], real.K @ res.residues[0])
    assert np.any(res.estimates[0])
    # later steps follow the textbook recursion up to rounding
    assert_matches_reference(res, real, np.zeros((0, real.num_inputs)), 12, 30)


def test_simulate_rejects_bad_attack_shape():
    real = realize(hidden_pair(), seed=3)
    with pytest.raises(ValueError):
        simulate(real, attack=np.zeros((10, 5)))
    with pytest.raises(ValueError):
        simulate(real, horizon=0)


def test_simulate_rejects_unstable_filter():
    # an unstable filter never reaches simulate: the Realization refuses it
    with pytest.raises(FilterConvergenceError, match="unstable"):
        Realization(
            A=np.array([[1.5]]), B=np.zeros((1, 0)), C=np.eye(1), D=np.zeros((1, 0)),
            Q=np.eye(1), R=np.zeros((1, 1)), K=np.zeros((1, 1)),
            residue_cov=np.eye(1), eta=3.84)


def test_perfect_attack_leaves_alarms_untouched():
    real = realize(hidden_pair(), seed=3)
    trace = find_perfect_attack(real, horizon=40)
    res = simulate(real, attack=trace, seed=19, horizon=40)
    assert np.array_equal(res.alarms, res.attacked_alarms)
    assert np.max(np.abs(res.delta_residues)) <= 1e-8
    assert np.max(np.abs(res.delta_states)) >= 1e-3


def test_attacked_run_matches_an_independent_replay():
    # nominal minus deviation must equal the attacked plant and filter,
    # stepped here from scratch under the nominal run's own noise
    sys = make_system(3, 2, {(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (3, 1)},
                      {1: 1, 2: 3}, agents=[1, 2], observers=[2])
    real = realize(sys, seed=5, measurement_noise=0.3)
    A, B, C, D, K = real.A, real.B, real.C, real.D, real.K
    steps = 40
    inputs = np.random.default_rng(8).standard_normal((25, real.num_inputs))
    res = simulate(real, attack=inputs, seed=11, horizon=steps)
    w = res.states[1:] - res.states[:-1] @ A.T
    v = res.outputs - res.states @ C.T
    assert np.any(w) and np.any(v)
    x, xh = res.states[0], np.zeros(real.n)
    states, residues = [], []
    for k in range(steps):
        u = inputs[k] if k < len(inputs) else np.zeros(real.num_inputs)
        predicted = A @ xh
        z = C @ x + D @ u + v[k] - C @ predicted
        xh = predicted + K @ z
        states.append(x)
        residues.append(z)
        if k + 1 < steps:
            x = A @ x + B @ u + w[k]
    states, residues = np.array(states), np.array(residues)
    assert np.max(np.abs(states - (res.states - res.delta_states))) <= 1e-9
    assert np.max(np.abs(residues - (res.residues - res.delta_residues))) <= 1e-9
    assert np.max(np.abs(res.delta_residues)) > 1e-3
    weighted = np.einsum("ki,ij,kj->k", residues, np.linalg.inv(real.residue_cov), residues)
    assert np.array_equal(res.attacked_alarms, weighted > real.eta)


def test_deviation_is_noise_independent():
    real = realize(hidden_pair(), seed=3)
    trace = find_perfect_attack(real)
    a = simulate(real, attack=trace, seed=1, horizon=20)
    b = simulate(real, attack=trace, seed=2, horizon=20)
    assert np.array_equal(a.delta_states, b.delta_states)
    assert np.array_equal(a.delta_residues, b.delta_residues)
    assert not np.array_equal(a.states, b.states)


def test_noise_free_residues_decay():
    sys = make_system(3, 2, {(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (3, 1)},
                      {1: 1, 2: 3})
    real = realize(sys, seed=5)
    quiet = dataclasses.replace(real, Q=np.zeros((3, 3)), R=np.zeros((2, 2)))
    res = simulate(quiet, seed=30, horizon=400)
    assert np.max(np.abs(res.residues[-10:])) < 1e-10
    assert np.max(np.abs(res.residues[0])) > 1e-3  # starts from a random state


def test_residue_covariance_matches_monte_carlo():
    sys = make_system(3, 2, {(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (3, 1)},
                      {1: 1, 2: 3})
    real = realize(sys, seed=5)
    res = simulate(real, seed=77, horizon=30000)
    sample = res.residues[1000:]
    got = sample.T @ sample / len(sample)
    rel = np.linalg.norm(got - real.residue_cov) / np.linalg.norm(real.residue_cov)
    assert rel < 0.1


def test_false_alarm_rate_extremes():
    sys = make_system(2, 1, {(1, 1), (2, 2), (1, 2)}, {1: 2})
    real = realize(sys, seed=14)
    assert false_alarm_rate(real, eta=0.0, samples=2000, seed=3) > 0.99
    assert false_alarm_rate(real, eta=1e9, samples=2000, seed=3) == 0.0


def test_false_alarm_rate_at_default_threshold():
    sys = make_system(2, 1, {(1, 1), (2, 2), (1, 2)}, {1: 2})
    real = realize(sys, seed=14)
    rate = false_alarm_rate(real, samples=100000, seed=3)
    assert abs(rate - 0.05) <= 0.02


def detector_only(n, m, seed, measurement_noise=None):
    t = random_topology(np.random.default_rng(seed), n=n, m=m)
    scen = AttackScenario(compromised_agents=set(), compromised_observers=set(), p_bound=0)
    return realize(StructuredSystem(topology=t, scenario=scen), seed=seed,
                   measurement_noise=measurement_noise)


def test_false_alarm_rate_matches_the_chi_square_tail():
    samples = 20000
    for n, m, noise in ((3, 1, None), (5, 2, 0.5), (8, 3, None), (12, 4, 2.0),
                        (20, 5, None), (30, 6, 0.3)):
        real = detector_only(n, m, seed=n, measurement_noise=noise)
        for q in (0.5, 0.9, 0.95, 0.99):
            eta = float(stats.chi2.ppf(q, m))
            rate = false_alarm_rate(real, eta=eta, samples=samples, burn_in=200, seed=n + m)
            sigma = (q * (1 - q) / samples) ** 0.5
            assert abs(rate - (1 - q)) <= 4 * sigma, (n, m, q, rate)


def test_false_alarm_rate_counts_exactly_the_requested_samples():
    # at eta = 0 every residue raises an alarm, so the rate is 1 exactly
    # when the count of compared residues equals `samples`
    real = detector_only(4, 2, seed=1)
    for samples, burn_in in ((1, 0), (10, 5), (63, 0), (64, 1), (1000, 0),
                             (64 * 32 + 5, 37), (3000, 100)):
        assert false_alarm_rate(real, eta=0.0, samples=samples, burn_in=burn_in,
                                seed=samples) == 1.0, (samples, burn_in)


def test_false_alarm_rate_discards_the_burn_in():
    # without noise the residues decay from each replica's random start,
    # so only the early steps can exceed a tiny threshold
    sys = make_system(3, 2, {(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (3, 1)},
                      {1: 1, 2: 3})
    real = realize(sys, seed=5)
    quiet = dataclasses.replace(real, Q=np.zeros((3, 3)), R=np.zeros((2, 2)))
    assert false_alarm_rate(quiet, eta=1e-12, samples=640, burn_in=400) == 0.0
    assert false_alarm_rate(quiet, eta=1e-12, samples=640, burn_in=0) > 0.5


@pytest.mark.parametrize("shape, kwargs, rate", [
    ((6, 3, 2, None), {"samples": 5000, "burn_in": 100, "seed": 4}, 0.0528),
    ((12, 4, 12, 2.0), {"samples": 3001, "burn_in": 37, "seed": 9}, 0.049983338887037654),
    ((30, 6, 30, 0.3), {"samples": 20000, "burn_in": 200, "seed": 1, "eta": 5.0}, 0.542),
])
def test_false_alarm_rate_is_pinned(shape, kwargs, rate):
    # recorded from the block loop that stepped the error recursion in place
    assert false_alarm_rate(detector_only(*shape), **kwargs) == rate


def test_false_alarm_rate_without_sensors_is_zero():
    real = realize(make_system(2, 0, {(1, 1), (2, 2), (1, 2)}, {}), seed=0)
    assert false_alarm_rate(real, samples=500) == 0.0
    assert false_alarm_rate(real, eta=0.0, samples=500) == 0.0


def test_false_alarm_rate_repeats_under_a_seed():
    real = detector_only(6, 3, seed=2)
    rates = [false_alarm_rate(real, samples=5000, burn_in=100, seed=s) for s in (4, 4, 5)]
    assert rates[0] == rates[1]
    assert rates[0] != rates[2]


def test_false_alarm_rate_rejects_unstable_filter():
    # an unstable filter never reaches false_alarm_rate: the Realization
    # refuses it, also when dataclasses.replace builds it
    real = detector_only(3, 2, seed=3)
    K = -3 * real.C.T
    assert spectral_radius(real.A - K @ real.C @ real.A) >= 1
    with pytest.raises(FilterConvergenceError, match="unstable"):
        dataclasses.replace(real, K=K)


def test_false_alarm_rate_rejects_bad_counts():
    real = detector_only(3, 1, seed=4)
    for kwargs in ({"samples": 0}, {"samples": -5}, {"burn_in": -1}, {"samples": 2.5},
                   {"burn_in": 1.5}, {"samples": 100.0}, {"samples": "100"}):
        with pytest.raises(ValueError):
            false_alarm_rate(real, **kwargs)
    assert false_alarm_rate(real, samples=np.int64(100), burn_in=np.int32(3)) >= 0.0


def test_trace_file_layout(tmp_path):
    from stealthguard import write_trace

    real = realize(hidden_pair(), seed=3)
    trace = find_perfect_attack(real)
    res = simulate(real, attack=trace, seed=4, horizon=trace.horizon)
    path = tmp_path / "trace.tsv"
    write_trace(path, res)
    lines = path.read_text().splitlines()
    header = lines[0].split("\t")
    assert header[0] == "k"
    assert header.count("alarm") == 1 and header.count("alarm_attacked") == 1
    assert "dx1" in header and "dz1" in header
    assert len(lines) == 1 + trace.horizon
    row = lines[1].split("\t")
    assert len(row) == len(header)
    assert float(row[header.index("x1")]) == res.states[0, 0]

    quiet = simulate(real, seed=4, horizon=5)
    path2 = tmp_path / "quiet.tsv"
    write_trace(path2, quiet)
    header2 = path2.read_text().splitlines()[0].split("\t")
    assert "dx1" not in header2 and "alarm_attacked" not in header2

"""Numeric realizations, stealthy-input search and detector simulation.

This is the package's only module that imports numpy, its one third-party
dependency; the package loads it the first time one of its names is used.
The detector's chi-square threshold is computed with the standard
library (``_chi_square_95th_percentile``).

A realization draws concrete coefficients for a structured system, whose
topology and attack set fix the zero pattern of its matrices: each agent
edge (sender a, receiver b) is a state coupling in row b, column a, drawn
from [-1, -0.1] or [0.1, 1] before the matrix is rescaled to a target
spectral radius below one; the sensor and attack matrices are 0/1
indicators placed from the observer assignment and the attack set; and a
steady-state one-step filter with gain K feeds a chi-square residue
detector with threshold eta.

The gain comes from the fixed point P of the filter's Riccati recursion,
computed by structure-preserving doubling (Chu, Fan & Lin, 2005): the
k-th doubling reaches the covariance of 2^k - 1 plain steps, so about
ten O(n^3) doublings replace hundreds of plain steps. The recursion is
written for the measurement one step back, y_k = (CA) x_{k-1} + (C w_{k-1}
+ v_k), whose noise covariance CQC^T + R is the only matrix inverted;
that one formulation serves a zero, a positive definite and a singular
measurement noise R alike. The doubling stops once its change to the
covariance is below rounding or no longer shrinks, and the relative
fixed-point residual of one plain step at P decides whether it converged.

The stealthy-input search asks whether some nonzero attack sequence
produces exactly zero output deviation. That happens exactly when the
attack-to-output transfer matrix loses column rank. Only the r states
that the attacked agents reach along nonzero entries of A enter that
matrix; the rest stay exactly zero for every input, so the decision and
the search both work on this reachable part, however large the rest of
the system is. The rank is decided in exact arithmetic: every double is
a dyadic rational, so the Rosenbrock pencil [zI-A, -B; C, D] of the
reachable part reduces exactly modulo a prime q, and its rank over GF(q)
at a random z is a lower bound on the rank. Full rank therefore proves
that no stealthy input exists, with no float threshold involved. The
largest vertex-disjoint input-to-sensor linking in the nonzero pattern
of the reachable part is an upper bound (van der Woude, 1991), so a draw
that meets it proves a deficient rank just as exactly; a realization
drawn by ``realize`` is generic almost surely and meets it at the first
draw. Only a rank-deficient realization builds the block-Toeplitz map
from 2r input steps to the output deviations of the reachable part, with
r extra trailing output rows (inputs off) so a null vector stays
invisible for all time rather than for a truncated window; its SVD
supplies the witness, which is re-verified by simulating the whole
system.

One stepper, ``_recursion``, steps every trajectory: the linear
recursion x_{k+1} = x_k T + d_k, one row per step. A run of plant and
filter calls it twice, once for the plant (T = A^T, drive w) and once
for the filter's prediction error e_k = x_k - A xhat_{k-1} (T = (A -
AKC)^T, drive w - v (AK)^T), whose estimate updates from the first
measurement on; outputs, residues z = Ce + v and estimates xhat = x - e
+ Kz are then batch products. ``simulate`` runs both for its noisy
nominal run and for the deviation run (nominal minus attacked); the
witness replay of ``find_perfect_attack`` reads only state and output
deviations and runs the plant alone, and ``false_alarm_rate`` steps the
error recursion for a block of replicas at a time. The deviation run is
noise-free: by linearity the noise terms cancel exactly, so deviations
never depend on whether noise is switched on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .separators import _VertexFlowNet
from .topology import StructuredSystem, _alarm_threshold, _check_horizon, _whole_number


# Both numeric failures are ValueErrors: they reject an input the numerics
# cannot handle, so callers, the CLI included, treat them like bad input.
class FilterConvergenceError(ValueError):
    """The steady-state gain has no solution or was not found, or a
    Realization was given a filter that is unstable (spectral radius of
    A - KCA at least one), which its constructor refuses.

    The gain fails when the innovation covariance CQC^T + R of the first
    step is singular ("innovation covariance is singular"), or when the
    doubling ends with a relative Riccati fixed-point residual above 1e-10
    or a non-finite iterate; that message reports the residual and the
    number of doublings."""


class NullspaceAmbiguityError(ValueError):
    """The float null-space candidate failed its replay: its output
    deviation is not numerically zero."""


def spectral_radius(mat) -> float:
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


_MATRICES = ("A", "B", "C", "D", "Q", "R", "K", "residue_cov")


@dataclass(frozen=True, eq=False)
class Realization:
    """Concrete matrices for one structured system.

    A: state couplings, B: attack actuation (0/1), C: sensor selection
    (0/1), D: sensor corruption (0/1), Q/R: process and measurement noise
    covariances, K: steady-state filter gain, residue_cov: steady-state
    covariance of the detector residue, eta: alarm threshold.

    Construction stores a read-only float copy of each matrix, so no write
    into the given arrays, or into the stored ones, can undo its checks.
    It checks everything the numeric functions assume, so none of them
    checks it again: the shapes agree, every entry is finite (ValueError),
    eta is a real number, finite and nonnegative (ValueError), and with
    m > 0 sensors the filter is stable, the spectral radius of A - KCA
    below one (FilterConvergenceError). `dataclasses.replace` runs the same checks.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    K: np.ndarray
    residue_cov: np.ndarray
    eta: float

    def __post_init__(self):
        for name in _MATRICES:
            mat = np.array(getattr(self, name), dtype=float)
            mat.flags.writeable = False
            object.__setattr__(self, name, mat)
        n = self.A.shape[0]
        m = self.C.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("state matrix must be square")
        if self.B.shape[0] != n or self.D.shape[0] != m:
            raise ValueError("attack matrices do not match system dimensions")
        if self.B.shape[1] != self.D.shape[1]:
            raise ValueError("actuation and corruption must share the input count")
        if self.C.shape[1] != n or self.K.shape != (n, m):
            raise ValueError("sensor or gain matrix has the wrong shape")
        if self.Q.shape != (n, n) or self.R.shape != (m, m):
            raise ValueError("noise covariances have the wrong shape")
        if not all(np.all(np.isfinite(getattr(self, name))) for name in _MATRICES):
            raise ValueError("realization matrices must be finite")
        object.__setattr__(self, "eta", _alarm_threshold(self.eta))
        if m:
            rho = spectral_radius(self.A - self.K @ self.C @ self.A)
            if rho >= 1.0:
                raise FilterConvergenceError(
                    f"filter is unstable: spectral radius of A - KCA is {rho:.6g} >= 1")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]

    @property
    def num_inputs(self) -> int:
        return self.B.shape[1]


def _as_cov(value, dim: int, default: float) -> np.ndarray:
    if value is None:
        return np.eye(dim) * default
    if np.isscalar(value):
        # the comparison is also false for NaN; a string is a scalar, not a number
        if not (isinstance(value, numbers.Real) and 0 <= value < np.inf):
            raise ValueError(f"noise variance must be finite and nonnegative, got {value!r}")
        return np.eye(dim) * float(value)
    cov = np.array(value, dtype=float)
    if cov.shape != (dim, dim):
        raise ValueError(f"covariance must be {dim}x{dim}")
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance entries must be finite")
    if not np.allclose(cov, cov.T):
        raise ValueError("covariance must be symmetric")
    if cov.size and np.min(np.linalg.eigvalsh(cov)) < -1e-10:
        raise ValueError("covariance must be positive semidefinite")
    return cov


def _doublings(A, C, Q, R):
    """Yield H_0, H_1, ...: H_k is the filtered covariance of the plain
    Riccati recursion after 2^k - 1 steps from the prediction covariance Q.

    The recursion is the one `_steady_state_filter` describes. It is
    rewritten for the measurement one step back, y_k = (CA) x_{k-1} +
    (C w_{k-1} + v_k), whose noise has covariance S0 = CQC^T + R and
    correlation QC^T with the process noise. With J = S0^-1 [CA, CQ], the
    doubling starts from A_0 = (A - (CQ)^T J_1)^T, G_0 = (CA)^T J_1 and
    H_0 = Q - (CQ)^T J_2, and each step, with W = I + G_k H_k, sets

        A_{k+1} = A_k W^-1 A_k
        G_{k+1} = G_k + A_k W^-1 G_k A_k^T
        H_{k+1} = H_k + A_k^T H_k W^-1 A_k

    (Chu, Fan & Lin's structure-preserving doubling). Only S0 is inverted,
    so R may be zero or singular; a singular S0 is a FilterConvergenceError.
    """
    n = A.shape[0]
    CA, CQ = C @ A, C @ Q
    try:
        J = np.linalg.solve(CQ @ C.T + R, np.hstack([CA, CQ]))
    except np.linalg.LinAlgError:
        raise FilterConvergenceError(
            "innovation covariance is singular; the gain iteration needs "
            "process or measurement noise") from None
    J1, J2 = J[:, :n], J[:, n:]
    Ak = (A - CQ.T @ J1).T
    G = CA.T @ J1
    G = (G + G.T) / 2
    H = Q - CQ.T @ J2
    H = (H + H.T) / 2
    identity = np.eye(n)
    while True:
        yield H
        # W = I + GH with G, H positive semidefinite has no eigenvalue below
        # 1; one inverse costs less than a solve for 2n right-hand sides
        W_inv = np.linalg.inv(identity + G @ H)
        WA, WG = W_inv @ Ak, W_inv @ G
        G = G + Ak @ WG @ Ak.T
        G = (G + G.T) / 2
        H = H + Ak.T @ H @ WA
        H = (H + H.T) / 2
        Ak = Ak @ WA


# Doubling k covers 2^k plain steps, so the cap is never the binding limit.
_MAX_DOUBLINGS = 64
# Largest relative fixed-point residual of one plain step that counts as
# converged; converged gains measure around 1e-15.
_RESIDUAL_TOL = 1e-10


def _steady_state_filter(A, C, Q, R):
    """Steady-state prediction covariance P and gain; returns (K, S).

    P is the fixed point of the plain Riccati recursion S = CPC^T + R,
    P <- A (P - P C^T S^-1 C P) A^T + Q, started from P = Q. `_doublings`
    reaches the filtered covariance H after 2^k - 1 of its steps in k
    doublings, and converges quadratically. It stops once a doubling
    changes H by at most one unit in the last place of H's largest entry,
    or once the change no longer shrinks although it is already below
    sqrt(eps) of that entry: rounding then dominates. Then P = AHA^T + Q,
    S = CPC^T + R and K = (S^-1 CP)^T. The verdict is the relative
    fixed-point residual max|step(P) - P| / max|P| of one plain step at
    P: above 1e-10, or not finite, it is a FilterConvergenceError that
    reports the residual and the number of doublings.
    """
    n, m = A.shape[0], C.shape[0]
    if m == 0:
        return np.zeros((n, 0)), np.zeros((0, 0))
    eps = np.finfo(float).eps
    iterates = _doublings(A, C, Q, R)
    H = next(iterates)
    previous = math.inf
    for doublings, H_next in zip(range(1, _MAX_DOUBLINGS + 1), iterates):
        step = float(np.max(np.abs(H_next - H)))
        H = H_next
        scale = float(np.max(np.abs(H)))
        if not math.isfinite(step) or step <= eps * scale:
            break
        if previous <= step <= math.sqrt(eps) * scale:  # no longer shrinking
            break
        previous = step
    P = A @ H @ A.T + Q
    P = (P + P.T) / 2
    S = C @ P @ C.T + R
    gain_t = np.linalg.solve(S, C @ P)  # equals (P C^T S^-1)^T
    P_next = A @ (P - gain_t.T @ (C @ P)) @ A.T + Q
    residual = (float(np.max(np.abs(P_next - P)))
                / max(float(np.max(np.abs(P))), np.finfo(float).tiny))
    if not residual <= _RESIDUAL_TOL:
        raise FilterConvergenceError(
            f"gain iteration did not converge: relative Riccati residual "
            f"{residual:.3g} after {doublings} doublings")
    return gain_t.T, (S + S.T) / 2


# ---- alarm threshold ----

def _chi_square_tail(x: float, m: int) -> float:
    """P(X > x) for X chi-square with m degrees of freedom, x > 0.

    At t = x/2 the tail is a sum of positive terms, so nothing cancels:
    e^-t sum_{j < m/2} t^j / j! for even m, and erfc(sqrt t) +
    e^-t sum_{j < (m-1)/2} t^(j+1/2) / Gamma(j+3/2) for odd m. Each term
    t^(a-1) e^-t / Gamma(a) is formed from its logarithm, so none overflows
    or underflows on the way even when m is in the thousands.
    """
    t = x / 2
    log_t = math.log(t)
    if m % 2:
        head, first = math.erfc(math.sqrt(t)), 1.5
    else:
        head, first = 0.0, 1.0
    shapes = (first + j for j in range(m // 2))  # the a of each term
    return head + math.fsum(math.exp((a - 1) * log_t - t - math.lgamma(a)) for a in shapes)


def _chi_square_95th_percentile(m: int) -> float:
    """The x with P(X > x) = 0.05 for X chi-square with m >= 1 degrees of freedom.

    Newton's method on the tail, whose derivative is minus the density,
    from the Wilson-Hilferty approximation; it evaluates the tail two to
    four times. A step that leaves the bracket the iterates have
    established is replaced by bisection.
    """
    z_95 = 1.6448536269514722  # the standard normal 95th percentile
    h = 2 / (9 * m)
    x = m * (1 - h + z_95 * math.sqrt(h)) ** 3
    log_norm = (m / 2) * math.log(2) + math.lgamma(m / 2)
    lo, hi = 0.0, math.inf
    for _ in range(64):  # a bound only; Newton stops within four rounds
        excess = _chi_square_tail(x, m) - 0.05
        step = excess / math.exp((m / 2 - 1) * math.log(x) - x / 2 - log_norm)
        if abs(step) <= 1e-12 * x:  # the next error is of order step**2
            return x + step
        if excess > 0:
            lo = x
        else:
            hi = x
        x += step
        if not lo < x < hi:
            x = (lo + hi) / 2
    return x


def realize(sys: StructuredSystem, seed: int = 0,
            spectral_radius_target: float = 0.9,
            process_noise=None, measurement_noise=None,
            eta: float | None = None) -> Realization:
    """Draw an admissible realization and its steady-state detector.

    Nonzero state couplings are sampled from +-[0.1, 1] and the matrix is
    rescaled so its spectral radius hits the target (default 0.9, must be
    inside the unit circle). Process noise defaults to the identity,
    measurement noise to zero, and eta to the 95th percentile of a
    chi-square with one degree of freedom per sensor. The seed must be an
    integer and the target a real number, or ValueError. A noise given as
    a scalar variance must be finite and nonnegative, one given as a
    covariance matrix finite, symmetric and positive semidefinite.

    K and residue_cov come from the steady-state prediction covariance P,
    found by doubling (`_steady_state_filter`): about ten O(n^3) steps, for
    R zero, positive definite or singular alike, as long as CQC^T + R is
    invertible. K = P C^T S^-1 and residue_cov = S = CPC^T + R. A singular
    CQC^T + R, a doubling that ends with a relative Riccati residual above
    1e-10, and a gain whose filter comes out unstable each raise
    FilterConvergenceError. The returned Realization checks itself (see
    there).

    The topology and attack set fix where the entries go: the coupling of
    each agent edge (sender a, receiver b) lies in row b, column a, and the
    couplings are drawn once, in row-major order. Sensor k reads its
    assigned agent in row k of C; attack input t drives or corrupts the
    t-th target, agents ascending and then observers ascending, through
    column t of B or D. A topology with no agents is a ValueError.
    """
    seed = _whole_number(seed, "seed")
    # the comparison is also false for NaN; a string is not a real number
    if not (isinstance(spectral_radius_target, numbers.Real)
            and 0 < spectral_radius_target < 1):
        raise ValueError(f"spectral radius target must be a real number in (0, 1), "
                         f"got {spectral_radius_target!r}")
    top, scenario = sys.topology, sys.scenario
    n, m = top.n, top.m
    if n == 0:
        raise ValueError("a realization needs at least one agent, got n=0")
    rng = np.random.default_rng(seed)
    # couplings are drawn in row-major order: by receiver, then sender
    rows, cols = zip(*sorted((b - 1, a - 1) for a, b in top.agent_edges))
    A = np.zeros((n, n))
    A[rows, cols] = rng.uniform(0.1, 1.0, len(rows)) * rng.choice((-1.0, 1.0), len(rows))
    A *= spectral_radius_target / spectral_radius(A)
    C = np.zeros((m, n))
    C[[k - 1 for k in top.observer_assignment],
      [j - 1 for j in top.observer_assignment.values()]] = 1.0
    # input t drives the t-th target, agents ascending, then observers
    # ascending: a row of the stacked [B; D] below n is an agent's, one from n on
    # a sensor's
    targets = ([i - 1 for i in sorted(scenario.compromised_agents)]
               + [n + k - 1 for k in sorted(scenario.compromised_observers)])
    BD = np.zeros((n + m, len(targets)))
    BD[targets, np.arange(len(targets))] = 1.0
    B, D = BD[:n], BD[n:]
    Q = _as_cov(process_noise, n, default=1.0)
    R = _as_cov(measurement_noise, m, default=0.0)
    K, S = _steady_state_filter(A, C, Q, R)
    if eta is None:
        eta = _chi_square_95th_percentile(m) if m else 0.0
    return Realization(A=A, B=B, C=C, D=D, Q=Q, R=R, K=K, residue_cov=S, eta=eta)


# ---- structural rank, numerically ----

def _is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin for odd 61 < q < 4_759_123_141."""
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _random_prime(rng) -> int:
    """A prime drawn uniformly from [2**30, 2**31)."""
    while True:
        q = int(rng.integers(2**30, 2**31)) | 1
        if _is_prime(q):
            return q


def _residues(values, q: int) -> np.ndarray:
    """Exact residues in [0, q) of float64 values, for an odd prime q < 2**31.

    np.frexp writes every finite double as frac * 2**e with frac * 2**53 an
    integer, so the value is that integer times 2**(e - 53); a negative
    power of two is an inverse modulo an odd q. Both factors lie below
    2**31, so their product fits in int64. The values must be finite, as
    a Realization's entries are.
    """
    frac, exp = np.frexp(values)
    mantissa = (frac * 2.0**53).astype(np.int64) % q
    unique, where = np.unique(exp, return_inverse=True)
    powers = np.array([pow(2, int(e) - 53, q) for e in unique], dtype=np.int64)
    return mantissa * powers[where].reshape(exp.shape) % q


def _rank_mod(mat: np.ndarray, q: int) -> int:
    """Rank over GF(q) of an int64 matrix with entries in [0, q)."""
    mat = mat.copy()
    rows, cols = mat.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        hits = rank + np.flatnonzero(mat[rank:, c])
        if hits.size == 0:
            continue
        if hits[0] != rank:  # the row at `rank` is zero in column c
            mat[[rank, hits[0]]] = mat[[hits[0], rank]]
        others = hits[1:]
        if others.size:
            factor = mat[others, c] * pow(int(mat[rank, c]), q - 2, q) % q
            mat[others, c:] = (mat[others, c:] - np.outer(factor, mat[rank, c:])) % q
        rank += 1
    return rank


def _reachable_part(real: Realization):
    """A, B and C restricted to the r states that the attack reaches.

    The attacked states are those some column of B drives; every state
    they feed along a nonzero entry of A (row = receiver) is reached too.
    That set is closed under successors and the other states are never
    driven, so they stay exactly zero for every input: the restriction,
    in the states' original order, has the same transfer matrix
    D + C (zI-A)^-1 B as the whole system.
    """
    feeds = real.A != 0
    reached = np.any(real.B != 0, axis=1)
    frontier = reached
    while frontier.any():
        frontier = np.any(feeds[:, frontier], axis=1) & ~reached
        reached = reached | frontier
    states = np.flatnonzero(reached)
    return real.A[np.ix_(states, states)], real.B[states], real.C[:, states]


def _pencil_rank(A, B, C, D, rng) -> int:
    """Rank of the Rosenbrock pencil [zI-A, -B; C, D] over GF(q), for a
    random prime q < 2**31 and a random z in GF(q), minus the r states of
    A. It never exceeds the normal rank of the transfer matrix
    D + C (zI-A)^-1 B over the rationals in z."""
    q = _random_prime(rng)
    z = int(rng.integers(q))
    pencil = _residues(np.block([[-A, -B], [C, D]]), q)
    diagonal = np.arange(len(A))
    pencil[diagonal, diagonal] = (pencil[diagonal, diagonal] + z) % q
    return _rank_mod(pencil, q) - len(A)


def _linking_bound(A, B, C, D) -> int:
    """Largest family of vertex-disjoint paths from the inputs to the
    sensors in the nonzero pattern of [A, B; C, D]: an input feeds the
    states and sensors its column of [B; D] touches, a state those its
    column of [A; C] touches. By van der Woude (1991) that is the generic
    rank of the transfer matrix over every realization of the pattern, so
    no realization's normal rank exceeds it."""
    r, m, p_in = len(A), len(C), B.shape[1]
    source, sink = r + m + p_in, r + m + p_in + 1
    succ = ([np.flatnonzero(col).tolist() for col in np.vstack([A, C]).T]
            + [[sink]] * m
            + [np.flatnonzero(col).tolist() for col in np.vstack([B, D]).T]
            + [list(range(r + m, r + m + p_in)), []])
    return _VertexFlowNet(succ, sink).max_flow(source)


# Independent (z, q) draws before normal_rank reports a rank below its
# linking bound.
_RANK_TRIALS = 7


def normal_rank(real: Realization, seed: int = 0) -> int:
    """Normal rank of the attack-to-output transfer matrix, decided exactly.

    Only the r states the attack reaches enter the transfer matrix, so
    the pencil is built from that part (`_reachable_part`). Each draw
    takes the rank of the Rosenbrock pencil over GF(q) at a random point
    z, for a fresh random prime q < 2**31, and subtracts r. That is a
    lower bound on the rank, so reaching the number of attack inputs ends
    the loop and proves the map has full column rank: no stealthy input
    exists. After the first draw that falls short, the linking bound of
    the reachable part's nonzero pattern (`_linking_bound`) is computed
    once; it is an upper bound, so a draw that meets it proves a
    deficient rank too. A realization drawn by `realize` is generic
    almost surely, and its first draw then meets the bound. Only a
    non-generic realization, whose rank lies below its linking, returns
    after 7 independent (z, q) draws, the largest seen. A draw falls
    short of the true rank only when z is a root of a nonzero minor (at
    most r of the q points; Schwartz-Zippel) or q divides all of that
    minor's coefficients, so that last answer errs with a tiny
    probability. No float threshold takes part.
    """
    rng = np.random.default_rng(_whole_number(seed, "seed"))
    A, B, C = _reachable_part(real)
    best, linking = 0, None
    for _ in range(_RANK_TRIALS):
        best = max(best, _pencil_rank(A, B, C, real.D, rng))
        if best == real.num_inputs:
            break
        if linking is None:
            linking = _linking_bound(A, B, C, real.D)
        if best == linking:
            break
    return best


# ---- stealthy inputs ----

@dataclass(frozen=True, eq=False)
class AttackTrace:
    """A nonzero input sequence with (numerically) zero output deviation.

    inputs holds one row per step of the input horizon; the attack is off
    after it. `simulate(real, attack=trace)` replays the deviations it
    causes through the same plant recursion that checked the witness,
    and the filter's prediction-error recursion, which updates from step
    0. min_singular_value is the smallest singular value of the
    block-Toeplitz map the inputs were taken from, the one of the
    reachable part that `find_perfect_attack` builds (0.0 when that map
    is wider than tall): how close the float witness sits to the exact
    null space. It reports on the witness only; the existence of the
    attack was decided exactly.
    """

    inputs: np.ndarray
    horizon: int
    min_singular_value: float


def _recursion(x0, transition_t, drive) -> np.ndarray:
    """Rows x_0, ..., x_steps of x_{k+1} = x_k @ transition_t + drive[k],
    steps = len(drive). x0 is one row, or a stack of rows stepped side by
    side; drive[k] has its shape."""
    rows = np.empty((len(drive) + 1,) + np.shape(x0))
    rows[0] = x = x0
    for k, d in enumerate(drive, start=1):
        x = x @ transition_t + d
        rows[k] = x
    return rows


def _plant(real: Realization, x0, plant_in, sensor_in):
    """States x_{k+1} = A x_k + plant_in[k] from x_0 = x0, and outputs
    y_k = C x_k + sensor_in[k], one row per step of plant_in."""
    states = _recursion(x0, real.A.T, plant_in)[:-1]
    return states, states @ real.C.T + sensor_in


def _prediction_errors(real: Realization, x0, plant_in, sensor_in):
    """Prediction errors and residues of the filter on the plant of `_plant`.

    The filter starts from a zero estimate and updates from step 0 on:
    xhat_k = A xhat_{k-1} + K z_k with residue z_k = y_k - C A xhat_{k-1}.
    So the error e_k = x_k - A xhat_{k-1} starts at e_0 = x0, steps as
    e_{k+1} = (A - AKC) e_k + plant_in[k] - AK sensor_in[k], and gives
    z_k = C e_k + sensor_in[k]; the estimate is xhat_k = x_k - e_k + K z_k.
    Returns (errors, residues), one row per step.
    """
    gain = real.A @ real.K
    errors = _recursion(x0, (real.A - gain @ real.C).T, plant_in - sensor_in @ gain.T)[:-1]
    return errors, errors @ real.C.T + sensor_in


def _attack_drive(real: Realization, inputs: np.ndarray, steps: int):
    """Plant and sensor inputs of the noise-free deviation run, nominal
    minus attacked, with the inputs zero-padded or truncated to `steps`:
    the attack adds B u to the plant and D u to the outputs."""
    U = np.zeros((steps, real.num_inputs))
    U[:len(inputs)] = inputs[:steps]
    return -(U @ real.B.T), -(U @ real.D.T)


def find_perfect_attack(real: Realization, horizon: int | None = None):
    """Search for an undetectable nonzero input sequence.

    Whether one exists is decided exactly by `normal_rank`: full column
    rank returns None at once, with no float threshold and without
    building any map. A rank-deficient transfer matrix G has a stealthy
    input that lasts at most r + 1 steps, r being the number of states
    the attack reaches: a minimal polynomial basis of G's null space has
    degrees at most G's McMillan degree, which is at most r. So the search
    works on that reachable part alone (`_reachable_part`). It builds the
    lower block-triangular map from L = 2r inputs (at least 1, at most
    `horizon`) to output deviations over L + r steps, from the Markov
    parameters D and C A^k B; the r surplus rows carry zero input, so a
    null vector leaves the reached states unobservable and keeps the
    output at zero forever, not just inside the window. The last right
    singular vector of that map, zero-padded to `horizon` steps (default
    twice the state dimension, the minimum accepted), is the witness.
    The plant recursion replays it on the whole system over horizon plus
    n steps: if the output deviation exceeds 1e-8, either as found or
    once the inputs are scaled to unit peak state deviation over those
    steps, NullspaceAmbiguityError is raised instead of a trace;
    otherwise the AttackTrace holds those scaled inputs.
    """
    n, m, p_in = real.n, real.m, real.num_inputs
    N = 2 * n if horizon is None else _check_horizon(horizon)
    if N < 2 * n:
        raise ValueError("horizon must be at least twice the state dimension")
    if p_in == 0 or normal_rank(real) == p_in:
        return None
    inputs = np.zeros((N, p_in))
    if m == 0:
        inputs[0, 0] = 1.0
        smallest = 0.0
    else:
        A, B, C = _reachable_part(real)
        r = len(A)
        L = max(2 * r, 1)
        blocks = [real.D]
        observability = C  # C A^k, m x r
        for _ in range(L + r - 1):
            blocks.append(observability @ B)
            observability = observability @ A
        M = np.zeros(((L + r) * m, L * p_in))
        for kb in range(L + r):
            for jb in range(min(kb, L - 1) + 1):
                M[kb * m:(kb + 1) * m, jb * p_in:(jb + 1) * p_in] = blocks[kb - jb]
        # A tall map's economy SVD has the same s and vh as the full one and
        # skips the (L+r)m-square U; a wide map needs the full vh, whose
        # extra rows span the null space the economy vh leaves out.
        wide = M.shape[0] < M.shape[1]
        _, s, vh = np.linalg.svd(M, full_matrices=wide)
        inputs[:L] = vh[-1].reshape(L, p_in)
        smallest = 0.0 if wide else float(s[-1])
    dx, dy = _plant(real, np.zeros(n), *_attack_drive(real, inputs, N + n))
    resid = float(np.max(np.abs(dy))) if dy.size else 0.0
    peak = float(np.max(np.abs(dx))) if dx.size else 0.0
    scale = 1.0 / peak if peak > 1e-300 else 1.0
    # the leak must stay small both as found and at unit peak state deviation
    if resid * max(scale, 1.0) > 1e-8:
        raise NullspaceAmbiguityError(
            f"null-space candidate leaks through the outputs (deviation "
            f"{resid:.3e}, {resid * scale:.3e} at unit peak state deviation; "
            f"smallest singular value {smallest:.3e})")
    return AttackTrace(inputs=inputs * scale, horizon=N, min_singular_value=smallest)


# ---- closed-loop simulation ----

@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Nominal trajectories, and their deviations from an attacked run
    under the same noise.

    The delta arrays are nominal minus attacked, from the noise-free
    deviation run, so the attacked residues are residues - delta_residues
    exactly; attacked_alarms flags them against the threshold.
    """

    states: np.ndarray
    estimates: np.ndarray
    outputs: np.ndarray
    residues: np.ndarray
    alarms: np.ndarray
    delta_states: np.ndarray
    delta_outputs: np.ndarray
    delta_residues: np.ndarray
    attacked_alarms: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.states)


def _noise_factor(cov: np.ndarray):
    """F with F @ F.T == cov, or None when the noise is identically zero."""
    if cov.shape[0] == 0 or not np.any(cov):
        return None
    w, U = np.linalg.eigh(cov)
    return U * np.sqrt(np.clip(w, 0.0, None))


def _sample_noise(rng, factor, shape: tuple) -> np.ndarray:
    """Noise vectors along the last axis of `shape`; draws nothing from
    `rng` when `factor` is None."""
    if factor is None:
        return np.zeros(shape)
    return rng.standard_normal(shape) @ factor.T


def _quadratic_form(residues: np.ndarray, cov: np.ndarray) -> np.ndarray:
    if cov.shape[0] == 0:
        return np.zeros(len(residues))
    inv = np.linalg.inv(cov)
    return np.einsum("ki,ij,kj->k", residues, inv, residues)


def simulate(real: Realization, attack=None, seed: int = 0,
             horizon: int = 200) -> SimulationResult:
    """Run the plant, filter and detector for `horizon` steps.

    `attack` may be None, an AttackTrace, or an array of finite per-step
    inputs (zero-padded or truncated to the horizon). The nominal run draws
    process and measurement noise from Q and R; the attacked run shares
    that noise, so the deviation run for the difference needs none. Each
    run steps two recursions, the plant (`_plant`) and the filter's
    prediction error (`_prediction_errors`); outputs, residues and
    estimates follow from them as batch products. The filter is stable
    and every matrix finite, because a Realization checks both when it is
    built.
    """
    horizon = _check_horizon(horizon)
    seed = _whole_number(seed, "seed")
    n, m = real.n, real.m
    if attack is None:
        inputs = None
    else:
        inputs = attack.inputs if isinstance(attack, AttackTrace) else np.asarray(attack, dtype=float)
        if inputs.ndim != 2 or inputs.shape[1] != real.num_inputs:
            raise ValueError(f"attack inputs must have {real.num_inputs} columns")
        if not np.all(np.isfinite(inputs)):
            raise ValueError("attack inputs must be finite")
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(n)
    w = _sample_noise(rng, _noise_factor(real.Q), (horizon, n))
    v = _sample_noise(rng, _noise_factor(real.R), (horizon, m))
    states, outputs = _plant(real, x0, w, v)
    errors, residues = _prediction_errors(real, x0, w, v)
    estimates = states - errors + residues @ real.K.T
    if inputs is None:
        dx = np.zeros((horizon, n))
        dy = np.zeros((horizon, m))
        dz = np.zeros((horizon, m))
    else:
        plant_in, sensor_in = _attack_drive(real, inputs, horizon)
        dx, dy = _plant(real, np.zeros(n), plant_in, sensor_in)
        _, dz = _prediction_errors(real, np.zeros(n), plant_in, sensor_in)
    alarms = _quadratic_form(residues, real.residue_cov) > real.eta
    attacked_alarms = _quadratic_form(residues - dz, real.residue_cov) > real.eta
    return SimulationResult(
        states=states, estimates=estimates, outputs=outputs, residues=residues,
        alarms=alarms, delta_states=dx, delta_outputs=dy, delta_residues=dz,
        attacked_alarms=attacked_alarms)


# Replicas that false_alarm_rate steps side by side, and the steps of noise
# it draws per block (64 replicas, 32 steps and n=30 make a 0.5 MB block).
_REPLICAS = 64
_NOISE_BLOCK = 32


def false_alarm_rate(real: Realization, eta: float | None = None,
                     samples: int = 100_000, burn_in: int = 1000,
                     seed: int = 0) -> float:
    """Empirical no-attack alarm rate of the residue detector.

    Runs R = min(64, samples) independent replicas of the plant and filter
    side by side. Each replica starts from its own standard-normal state
    with the filter's prediction at zero, steps `burn_in` times so the
    transient dies out, then keeps stepping until exactly `samples`
    post-burn-in residues have been counted in all (the last step counts
    only the replicas still needed). Returns the share of those residues
    whose quadratic form against `residue_cov` exceeds the threshold,
    which is `eta` when given and the realization's eta otherwise; a
    calibrated detector gives 1 - chi2_m(eta). No trajectory is kept.

    The filter is stepped in prediction-error form, by the recursion
    `simulate` uses: with e the state minus its one-step prediction, the
    residue is z = C e + v and the next error is (A - AKC) e + w - AK v,
    so plant and estimate need not be stored apart. Each block of 32
    steps is one `_recursion` call over all replicas. That error decays
    because a Realization refuses an unstable filter when it is built;
    `eta` is checked as Realization checks its own: a real number, finite
    and nonnegative, or ValueError.
    """
    samples = _whole_number(samples, "samples")
    burn_in = _whole_number(burn_in, "burn_in")
    seed = _whole_number(seed, "seed")
    if samples < 1 or burn_in < 0:
        raise ValueError("need samples >= 1 and burn_in >= 0")
    threshold = real.eta if eta is None else _alarm_threshold(eta)
    A, C, K = real.A, real.C, real.K
    n, m = real.n, real.m
    if m == 0:
        return 0.0
    reps = min(_REPLICAS, samples)
    total = burn_in + -(-samples // reps)
    gain = A @ K
    transition_t = (A - gain @ C).T
    process, measurement = _noise_factor(real.Q), _noise_factor(real.R)
    rng = np.random.default_rng(seed)
    err = rng.standard_normal((reps, n))
    alarms = 0
    for start in range(0, total, _NOISE_BLOCK):
        steps = min(_NOISE_BLOCK, total - start)
        v = _sample_noise(rng, measurement, (steps, reps, m))
        drive = _sample_noise(rng, process, (steps, reps, n)) - v @ gain.T
        rows = _recursion(err, transition_t, drive)
        errs, err = rows[:-1], rows[-1]
        # residues of this block are numbered from `first` in step-major
        # order; those numbered 0 .. samples-1 are the counted ones
        first = (start - burn_in) * reps
        lo, hi = max(0, -first), min(steps * reps, samples - first)
        if lo < hi:
            z = errs.reshape(-1, n)[lo:hi] @ C.T + v.reshape(-1, m)[lo:hi]
            alarms += int(np.count_nonzero(_quadratic_form(z, real.residue_cov) > threshold))
    return alarms / samples


# ---- trace file ----

def write_trace(path, result: SimulationResult) -> None:
    """Tab-separated trace: step index, then state, estimate, output,
    residue and alarm columns. Deviation columns appear only when the
    run actually carried an attack (some deviation is nonzero)."""
    attacked = bool(np.any(result.delta_states) or np.any(result.delta_outputs)
                    or np.any(result.delta_residues))
    fields = [("x", result.states), ("xhat", result.estimates), ("y", result.outputs),
              ("z", result.residues), ("alarm", result.alarms)]
    if attacked:
        fields += [("dx", result.delta_states), ("dy", result.delta_outputs),
                   ("dz", result.delta_residues), ("alarm_attacked", result.attacked_alarms)]
    header = ["k"]
    for name, values in fields:  # one column per entry of a vector, one for a flag
        header += ([f"{name}{i}" for i in range(1, values.shape[1] + 1)]
                   if values.ndim == 2 else [name])
    # the step index and the 0/1 flags are whole floats, which .17g prints
    # as plain integers
    table = np.column_stack([np.arange(result.horizon)] + [values for _, values in fields])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row in table.tolist():
            fh.write("\t".join(f"{v:.17g}" for v in row) + "\n")

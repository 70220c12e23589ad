"""Independent checks of the program's outputs.

Each check recomputes what the program should have produced from the
benchmark's own data (coordinates, distances, the previous pheromone
matrix) and raises CheckFailed on any difference. ``RunChecker`` applies
them, in order, to the values one colony run passes between its layers.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Relative tolerance for the pheromone and probability matrices: the program
# and the checks evaluate the same formulas, but sums may run in another
# order, which moves a result by a few ulps and never by more.
RTOL = 1e-12


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def _fail(what: str, detail: str) -> None:
    raise CheckFailed(f"{what}: {detail}")


def check_permutations(tours: np.ndarray, n: int) -> None:
    """Every row of ``tours`` is a permutation of 0..n-1."""
    if tours.ndim != 2 or tours.shape[1] != n:
        _fail("permutation", f"tour array has shape {tours.shape}, expected (m, {n})")
    bad = np.flatnonzero((np.sort(tours, axis=1) != np.arange(n)).any(axis=1))
    if bad.size:
        _fail("permutation", f"tour of ant {bad[0]} is not a permutation of 0..{n - 1}")


def check_costs(costs: np.ndarray, own: np.ndarray) -> None:
    """Reported costs equal the lengths recomputed from own coordinates."""
    bad = np.flatnonzero(np.asarray(costs) != own)
    if bad.size:
        a = bad[0]
        _fail("cost", f"ant {a} reports {costs[a]!r}, recomputed length is {own[a]!r}")


def check_distances(dist: np.ndarray, own: np.ndarray) -> None:
    """The loaded distance matrix equals the benchmark's EUC_2D matrix."""
    if dist.shape != own.shape:
        _fail("distances", f"shape {dist.shape}, expected {own.shape}")
    bad = np.argwhere(dist != own)
    if bad.size:
        i, j = bad[0]
        _fail("distances", f"d[{i}, {j}] is {dist[i, j]!r}, the EUC_2D distance is {own[i, j]!r}")


def check_lower_bound(reported, bound: float, what: str) -> None:
    """No length the program reports is below the benchmark's 1-tree bound."""
    low = float(np.min(reported))
    if low < bound:
        _fail("lower bound", f"{what} {low!r} is below the 1-tree bound {bound!r}")


def own_elite(own_costs: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k shortest tours, ties broken by ant index."""
    return np.lexsort((np.arange(len(own_costs)), own_costs))[:k]


def check_elite(elites, tours: np.ndarray, own_costs: np.ndarray, k: int) -> np.ndarray:
    """The program's elite list is the k shortest tours in rank order."""
    want = own_elite(own_costs, k)
    if len(elites) != len(want):
        _fail("elite", f"{len(elites)} elite tours, expected {len(want)}")
    for rank, (a, (tour, cost)) in enumerate(zip(want, elites)):
        if not np.array_equal(tour, tours[a]) or cost != own_costs[a]:
            _fail("elite", f"rank {rank} is not ant {a} (length {own_costs[a]!r})")
    return want


def own_deposit(tours: np.ndarray, lengths: np.ndarray, n: int) -> np.ndarray:
    """1/L on both orientations of every edge of each tour, in rank order."""
    delta = np.zeros((n, n))
    for tour, length in zip(tours, lengths):
        prev = np.roll(tour, 1)
        np.add.at(delta, (tour, prev), 1.0 / length)
        np.add.at(delta, (prev, tour), 1.0 / length)
    return delta


def check_update(tau_in: np.ndarray, tau_out: np.ndarray, elite_tours: np.ndarray,
                 elite_lengths: np.ndarray, rho: float, tau_min: float) -> None:
    """tau_out = max((1 - rho) tau_in + deposit, tau_min), and symmetric."""
    n = len(tau_in)
    want = (1.0 - rho) * tau_in + own_deposit(elite_tours, elite_lengths, n)
    np.maximum(want, tau_min, out=want)
    if tau_out.shape != want.shape or not np.allclose(tau_out, want, rtol=RTOL, atol=0.0):
        i, j = np.unravel_index(np.argmax(np.abs(tau_out - want)), want.shape)
        _fail("pheromone update", f"tau[{i}, {j}] is {tau_out[i, j]!r}, expected {want[i, j]!r}")
    if not np.array_equal(tau_out, tau_out.T):
        _fail("pheromone update", "tau is not symmetric")


def own_probabilities(tau: np.ndarray, eta: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Rows of tau^alpha * eta^beta normalised to 1, zero diagonal, computed
    in the log domain so that no row underflows to all zeros."""
    with np.errstate(divide="ignore"):
        logw = alpha * np.log(tau) + beta * np.log(eta)
    np.fill_diagonal(logw, -np.inf)
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def check_probabilities(p: np.ndarray, tau: np.ndarray, eta: np.ndarray,
                        alpha: float, beta: float) -> None:
    """Rows sum to 1, the diagonal is 0, and each row is proportional to
    tau^alpha * eta^beta."""
    n = len(tau)
    if p.shape != (n, n):
        _fail("probabilities", f"shape {p.shape}, expected {(n, n)}")
    if np.any(np.diagonal(p) != 0.0):
        _fail("probabilities", "nonzero diagonal entry")
    sums = p.sum(axis=1)
    if not np.allclose(sums, 1.0, rtol=0.0, atol=n * 1e-15):
        r = int(np.argmax(np.abs(sums - 1.0)))
        _fail("probabilities", f"row {r} sums to {sums[r]!r}")
    want = own_probabilities(tau, eta, alpha, beta)
    if not np.allclose(p, want, rtol=1e-9, atol=1e-15):
        i, j = np.unravel_index(np.argmax(np.abs(p - want)), want.shape)
        _fail("probabilities", f"p[{i}, {j}] is {p[i, j]!r}, expected {want[i, j]!r}")


def check_best_trace(iteration_best: list[float], best_so_far: list[float],
                     own_iteration_best: list[float], final_best: float) -> None:
    """Per-iteration bests match the tours built, best-so-far is their
    running minimum, so it never increases, and the run's final best is
    the last of it."""
    if len(iteration_best) != len(own_iteration_best):
        _fail("best-so-far", f"{len(iteration_best)} records for "
              f"{len(own_iteration_best)} iterations of tours")
    running = float("inf")
    for it, (rec, own, best) in enumerate(zip(iteration_best, own_iteration_best, best_so_far)):
        if rec != own:
            _fail("best-so-far", f"iteration {it} reports best {rec!r}, its tours give {own!r}")
        running = min(running, own)
        if best != running:
            _fail("best-so-far", f"iteration {it} reports {best!r}, running minimum is {running!r}")
    if final_best != running:
        _fail("best-so-far", f"final best is {final_best!r}, running minimum is {running!r}")


def check_not_longer(best: float, reference: float, what: str) -> None:
    """A converged run's best tour is no longer than a nearest-neighbour tour."""
    if best > reference:
        _fail("final best", f"{what}: {best!r} is longer than the nearest-neighbour tour {reference!r}")


def check_oracle(batch, tau, oracle_batch, oracle_tau) -> None:
    """The lockstep pipeline and the scalar oracle agree: tours and costs
    bit for bit, pheromone within RTOL."""
    if not np.array_equal(batch.tours, oracle_batch.tours):
        a = int(np.flatnonzero((batch.tours != oracle_batch.tours).any(axis=1))[0])
        _fail("oracle", f"tour of ant {a} differs from the scalar reference")
    if not np.array_equal(batch.costs, oracle_batch.costs):
        _fail("oracle", "costs differ from the scalar reference")
    if not np.allclose(tau.tau, oracle_tau.tau, rtol=RTOL, atol=0.0):
        _fail("oracle", "pheromone differs from the scalar reference")


def digest(tours: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(tours, dtype=np.int64).tobytes()).hexdigest()


class RunChecker:
    """Checks the values one colony run hands between its layers.

    ``feed`` receives, in call order, ``("probabilities", tau, p)``,
    ``("tours", batch)``, ``("elite", elites)`` and
    ``("update", tau_in, tau_out)``. ``finish`` then checks the run's
    records and final best against the tours seen.
    """

    def __init__(self, ref, params, tau_min: float):
        self.ref = ref
        self.params = params
        self.tau_min = tau_min
        n = len(ref.dist)
        self.tau = np.full((n, n), float(params.q0_tau))
        np.fill_diagonal(self.tau, 0.0)
        self.tau_state = None   # the last PheromoneState checked
        self.batch = None       # the last TourBatch checked
        self.own_costs = None
        self.elite = None
        self.iteration_best: list[float] = []
        self.digests: list[str] = []

    def feed(self, kind: str, *values) -> None:
        getattr(self, "_" + kind)(*values)

    def _probabilities(self, tau, p) -> None:
        if not np.array_equal(tau.tau, self.tau):
            _fail("probabilities", "computed from a pheromone matrix other than the current one")
        check_probabilities(p.p, self.tau, self.ref.eta, self.params.alpha, self.params.beta)

    def _tours(self, batch) -> None:
        check_permutations(batch.tours, len(self.ref.dist))
        check_lower_bound(batch.costs, self.ref.lower_bound, "reported cost")
        own = self.ref.lengths(batch.tours)
        check_costs(batch.costs, own)
        self.own_costs = own
        self.batch = batch
        self.iteration_best.append(float(own.min()))
        self.digests.append(digest(batch.tours))

    def _elite(self, elites) -> None:
        if self.own_costs is None:
            _fail("elite", "elite selected before any tours were built")
        self.elite = check_elite(elites, self.batch.tours, self.own_costs, self.params.k)

    def _update(self, tau_in, tau_out) -> None:
        if self.elite is None:
            _fail("pheromone update", "update before any elite was selected")
        if not np.array_equal(tau_in.tau, self.tau):
            _fail("pheromone update", "applied to a pheromone matrix other than the current one")
        check_update(self.tau, tau_out.tau, self.batch.tours[self.elite],
                     self.own_costs[self.elite], self.params.rho, self.tau_min)
        self.tau = tau_out.tau
        self.tau_state = tau_out
        self.elite = None

    def finish(self, records, final_best: float) -> None:
        iteration_best = [r.iteration_best_cost for r in records]
        best_so_far = [r.best_cost_so_far for r in records]
        bound = self.ref.lower_bound
        check_lower_bound(iteration_best, bound, "reported iteration best")
        check_lower_bound(best_so_far, bound, "reported best-so-far")
        check_lower_bound(final_best, bound, "reported final best")
        check_best_trace(iteration_best, best_so_far, self.iteration_best, final_best)

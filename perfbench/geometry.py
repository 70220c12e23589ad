"""The benchmark's own instances and geometry.

Instances are generated here from the benchmark seed and handed to the
program only as TSPLIB text. The reference values the checks compare
against (distances with TSPLIB ``nint`` rounding, the best nearest-neighbour
tour, a 1-tree lower bound) are computed here too, from the same
coordinates, without calling the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIDE = 2000.0
CLUSTER_SIGMA = 60.0
# EUC_2D rounds a distance below 0.5 to 0, which the program rejects as a
# duplicate city; generated cities are kept at least this far apart.
MIN_SEPARATION = 1.0

_KIND_CODE = {"uniform": 0, "clustered": 1}


def coordinates(n: int, kind: str, seed: int) -> np.ndarray:
    """n cities in a SIDE x SIDE square, rounded to one decimal.

    ``uniform`` scatters them (the make-up of the bundled rnd442);
    ``clustered`` draws n // 25 centres and spreads each city around one
    with a normal of standard deviation CLUSTER_SIGMA (the make-up of the
    bundled rnd120). The same (n, kind, seed) always gives the same cities.
    """
    g = np.random.default_rng(np.random.SeedSequence([seed, n, _KIND_CODE[kind]]))
    if kind == "clustered":
        centres = g.uniform(0.0, SIDE, size=(max(2, n // 25), 2))
        which = g.integers(0, len(centres), size=n)

        def draw(idx):
            return centres[which[idx]] + g.normal(0.0, CLUSTER_SIGMA, size=(len(idx), 2))
    else:
        def draw(idx):
            return g.uniform(0.0, SIDE, size=(len(idx), 2))

    pts = np.round(draw(np.arange(n)), 1)
    while True:
        diff = pts[:, None, :] - pts[None, :, :]
        close = np.sqrt((diff * diff).sum(axis=2)) < MIN_SEPARATION
        close = np.triu(close, k=1).any(axis=0)
        if not close.any():
            return pts
        idx = np.flatnonzero(close)
        pts[idx] = np.round(draw(idx), 1)


def tsplib_text(name: str, pts: np.ndarray, comment: str) -> str:
    lines = [f"NAME : {name}", "TYPE : TSP", f"COMMENT : {comment}",
             f"DIMENSION : {len(pts)}", "EDGE_WEIGHT_TYPE : EUC_2D",
             "NODE_COORD_SECTION"]
    lines += [f"{i + 1} {x:.1f} {y:.1f}" for i, (x, y) in enumerate(pts)]
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def distance_matrix(pts: np.ndarray) -> np.ndarray:
    """EUC_2D distances: Euclidean length rounded half up (TSPLIB nint)."""
    diff = pts[:, None, :] - pts[None, :, :]
    return np.floor(np.sqrt((diff * diff).sum(axis=2)) + 0.5)


def tour_lengths(tours: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Closed-tour lengths of the rows of an (m, n) tour array."""
    return dist[tours, np.roll(tours, -1, axis=1)].sum(axis=1)


def nearest_neighbour_lengths(dist: np.ndarray, starts: int = 120) -> np.ndarray:
    """Lengths of nearest-neighbour tours from evenly spaced start cities.

    Up to ``starts`` start cities, spaced evenly over 0..n-1, are walked in
    lockstep; each walk goes to the closest unvisited city (lowest index on
    ties) and closes the cycle.
    """
    n = len(dist)
    begin = np.arange(0, n, max(1, n // starts))
    w = len(begin)
    rows = np.arange(w)
    visited = np.zeros((w, n), dtype=bool)
    visited[rows, begin] = True
    cur = begin.copy()
    total = np.zeros(w)
    for _ in range(n - 1):
        cand = np.where(visited, np.inf, dist[cur])
        nxt = cand.argmin(axis=1)
        total += cand[rows, nxt]
        visited[rows, nxt] = True
        cur = nxt
    total += dist[cur, begin]
    return total


def one_tree_bound(dist: np.ndarray) -> float:
    """1-tree lower bound on any tour: a minimum spanning tree of cities
    1..n-1 (Prim) plus the two shortest edges at city 0."""
    n = len(dist)
    sub = dist[1:, 1:]
    in_tree = np.zeros(n - 1, dtype=bool)
    in_tree[0] = True
    best = sub[0].copy()
    weight = 0.0
    for _ in range(n - 2):
        cand = np.where(in_tree, np.inf, best)
        j = int(cand.argmin())
        weight += cand[j]
        in_tree[j] = True
        np.minimum(best, sub[j], out=best)
    return weight + float(np.sort(dist[0, 1:])[:2].sum())


@dataclass(frozen=True)
class Reference:
    """What the checks compare against, derived from one set of cities."""

    dist: np.ndarray
    eta: np.ndarray
    lower_bound: float
    nn_length: float        # the best nearest-neighbour tour
    nn_mean_length: float   # the mean nearest-neighbour tour over the starts

    @classmethod
    def from_coordinates(cls, pts: np.ndarray) -> "Reference":
        dist = distance_matrix(pts)
        eta = np.zeros_like(dist)
        np.divide(1.0, dist, out=eta, where=~np.eye(len(dist), dtype=bool))
        nn = nearest_neighbour_lengths(dist)
        return cls(dist=dist, eta=eta, lower_bound=one_tree_bound(dist),
                   nn_length=float(nn.min()), nn_mean_length=float(nn.mean()))

    def lengths(self, tours: np.ndarray) -> np.ndarray:
        return tour_lengths(tours, self.dist)

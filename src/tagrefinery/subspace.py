"""Sparse subspace clustering of images.

Solves the sparse self-representation problem

    min_{Z,E} ||Z||_1 + mu * ||E||_F^2
    s.t.      X = Z X + E,  diag(Z) = 0,  Z 1 = 1,

with rows of X as images, via an augmented-Lagrangian splitting with an
adaptively growing penalty. The affinity |Z| + |Z^T| then feeds spectral
clustering on the symmetric normalized Laplacian with a deterministic,
seeded k-means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .tagmat import (
    DatasetError, FeatureMatrix, SimilarityGraph, _add_transpose, _block_rows, _check_seed, _freeze,
    _unit_rows,
)


# Penalty schedule of the augmented-Lagrangian loop: a solver detail, not a model parameter.
_PENALTY_INIT = 1.0
_PENALTY_GROWTH = 1.1
_PENALTY_MAX = 1e8


@dataclass(frozen=True)
class SscConfig:
    """Knobs for the self-representation solver.

    mu is the quadratic error penalty of the objective; max_iters and tol
    (on the constraint residuals) stop the augmented-Lagrangian loop.
    """

    mu: float = 10.0
    max_iters: int = 4000
    tol: float = 1e-5

    def validate(self) -> None:
        problems = []
        if not self.mu > 0:
            problems.append(f"mu must be > 0, got {self.mu}")
        if not self.tol > 0:
            problems.append(f"tol must be > 0, got {self.tol}")
        if self.max_iters < 1:
            problems.append(f"max_iters must be >= 1, got {self.max_iters}")
        if problems:
            raise DatasetError("; ".join(problems))


@dataclass(frozen=True)
class SscResiduals:
    recon_rel: float
    rowsum_max: float
    gap_max: float


@dataclass(frozen=True)
class SelfRepresentation:
    """Coefficients z (row i reconstructs image i from the others) and residual e.

    e is stored in the same row-per-image orientation as the (normalized)
    feature matrix the solver ran on. residuals holds the final constraint
    violations; converged reports whether they all met the tolerance.
    """

    z: np.ndarray
    e: np.ndarray
    residuals: SscResiduals
    converged: bool
    n_iters: int
    objective: float


@dataclass(frozen=True)
class ClusterAssignment:
    labels: np.ndarray
    k: int
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        if self.k < 1:
            raise DatasetError(f"k must be >= 1, got {self.k}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.k):
            raise DatasetError(f"cluster labels out of range [0, {self.k}): got {labels.min()} to {labels.max()}")

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)


def _threshold_rows(n: int) -> int:
    """Rows per soft-threshold block: its |a| temporary is 1/16 of a _BLOCK_BYTES row block."""
    return max(1, _block_rows(n) // 16)


def ssc_solve(images: FeatureMatrix, config: SscConfig = SscConfig()) -> SelfRepresentation:
    """Run the self-representation solver on the given images.

    Rows are normalized to unit length first; as in cosine_similarity_graph, a
    zero-norm row raises DatasetError("zero-norm feature row(s) at indices [...]").
    Splitting: Z carries the reconstruction and row-sum constraints (its
    matrix X X^T + I + 1 1^T is inverted once: one GEMM per Z update), a
    copy J the L1 norm (soft threshold, diagonal projected to zero every
    iteration), E the reconstruction error in closed form. Dual ascent on
    all three couplings; penalty rho grows by _PENALTY_GROWTH up to
    _PENALTY_MAX. The returned z is the thresholded copy: zero diagonal.

    What is returned is the first iterate whose residuals meet tol under the
    growing penalty, not the optimum of the program: as rho grows the
    threshold 1/rho shrinks until Z and J agree, so the schedule decides
    where the loop stops. On a 500-image bundle that point sits 1.5 % above
    the optimal objective, with about ten times its nonzeros per row.

    The loop holds four n x n float64 arrays: M^-1, two iterate buffers (the
    Z right-hand side, Z, then Z - J; and J, with y2/rho in between) and the
    dual y2. The soft threshold runs in place a few rows at a time, so its
    |a| temporary is at most about 64 KB. The set-up holds two: M, which LAPACK
    factors in its own buffer, and the identity that M^-1 overwrites. Traced
    at n = 1000 (max_iters = 3), the call peaks at 4.25 n x n above its input.

    Non-convergence within max_iters is not an error: the last iterate is
    returned with converged=False and the residuals achieved.
    """
    config.validate()
    x = np.asarray(images.data, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise DatasetError("self-representation needs at least 2 images")
    x = _unit_rows(x)

    x_norm = np.linalg.norm(x)
    ones = np.ones(n)
    # Z-update matrix M = X X^T + I + 1 1^T: SPD with eigenvalues >= 1, so inverted once, safely.
    m = x @ x.T
    m.flat[:: n + 1] += 1.0
    m += 1.0
    # m is symmetric, so its Fortran view m.T is factored in m's own buffer, and the
    # Fortran-ordered identity is overwritten by M^-1: no copy for LAPACK.
    factor = scipy.linalg.cho_factor(m.T, overwrite_a=True)
    m_inv = scipy.linalg.cho_solve(factor, np.eye(n).T, overwrite_b=True)
    del m, factor  # n x n freed before the loop allocates its iterates

    z = np.empty((n, n))       # Z right-hand side, Z, then Z - J (swapped with j)
    j = np.zeros((n, n))       # J, with y2 / rho in between
    e = np.zeros_like(x)
    y1 = np.zeros_like(x)      # dual of X = Z X + E
    y2 = np.zeros((n, n))      # dual of Z = J
    y3 = np.zeros(n)           # dual of Z 1 = 1
    rho = _PENALTY_INIT
    step = _threshold_rows(n)

    residuals = SscResiduals(np.inf, np.inf, np.inf)
    converged = False
    it = 0
    for it in range(1, config.max_iters + 1):
        np.matmul(x - e + y1 / rho, x.T, out=z)
        z += j
        z -= np.divide(y2, rho, out=j)
        z += (1.0 - y3 / rho)[:, None]
        z, j = np.matmul(z, m_inv, out=j), z  # Z = rhs M^-1 in J's buffer, whose value is in rhs

        # J = sign(a) max(|a| - 1/rho, 0) at a = z + y2/rho; copysign keeps signed zeros.
        np.add(z, np.divide(y2, rho, out=j), out=j)
        for start in range(0, n, step):
            a = j[start : start + step]
            t = np.abs(a)
            np.subtract(t, 1.0 / rho, out=t)
            np.copysign(np.maximum(t, 0.0, out=t), a, out=a)
        np.fill_diagonal(j, 0.0)

        zx = z @ x
        z_ones = z @ ones
        e = (y1 + rho * (x - zx)) / (2.0 * config.mu + rho)

        y1 += rho * (x - zx - e)
        d = np.subtract(z, j, out=z)
        # max |d| without an |d| array; + 0.0 turns an all-zero -0.0 into the 0.0 abs gives.
        gap_max = max(float(d.max()), float(-d.min())) + 0.0
        d *= rho
        y2 += d
        y3 += rho * (z_ones - 1.0)
        rho = min(rho * _PENALTY_GROWTH, _PENALTY_MAX)

        # Feasibility is reported for the returned iterate J.
        residuals = SscResiduals(
            recon_rel=float(np.linalg.norm(x - j @ x - e) / x_norm),
            rowsum_max=float(np.abs(j @ ones - 1.0).max()),
            gap_max=gap_max,
        )
        if max(residuals.recon_rel, residuals.rowsum_max, residuals.gap_max) <= config.tol:
            converged = True
            break

    del z, d, y2, m_inv  # only J is left n x n when |J| is taken
    objective = float(np.abs(j).sum() + config.mu * (e ** 2).sum())
    j.setflags(write=False)
    e.setflags(write=False)
    return SelfRepresentation(
        z=j, e=e, residuals=residuals, converged=converged, n_iters=it, objective=objective
    )


def affinity(rep: SelfRepresentation) -> SimilarityGraph:
    """Affinity |Z| + |Z^T| over images; symmetric with zero diagonal.

    Summed in place in the |Z| buffer, which SimilarityGraph keeps, so the
    call holds one n x n array (1.26 n x n above its input at n = 1000).
    """
    return SimilarityGraph(_freeze(_add_transpose(np.abs(rep.z))))


# ---------------------------------------------------------------------------
# Spectral clustering
# ---------------------------------------------------------------------------


def _normalized_laplacian(weights: np.ndarray) -> np.ndarray:
    """Symmetrized I - D^-1/2 W D^-1/2; isolated nodes get a zero D^-1/2 entry.

    Built in one n x n buffer with the float operations of (L + L^T) / 2 at
    L = eye - D^-1/2 W D^-1/2, so the bits are the same; _add_transpose sums
    L with its transpose in place, so no second n x n array is made (spectral
    clustering traces at 1.15 n x n above its input at n = 1000). The result
    is exactly symmetric: its transpose is the same matrix in Fortran order,
    which scipy.linalg.eigh can overwrite without a copy.
    """
    n = weights.shape[0]
    deg = weights.sum(axis=1)
    dinv = np.zeros(n)
    pos = deg > 0
    dinv[pos] = 1.0 / np.sqrt(deg[pos])
    nlap = np.multiply(dinv[:, None], weights)
    nlap *= dinv[None, :]
    np.subtract(0.0, nlap, out=nlap)  # eye - x: 0 - x off the diagonal, and
    nlap.flat[:: n + 1] += 1.0        # (0 - x) + 1, which is exactly 1 - x, on it
    _add_transpose(nlap)
    nlap /= 2.0
    return nlap


def _spectral_embedding(weights: np.ndarray, k: int) -> np.ndarray:
    """Row-normalized k smallest eigenvectors of the symmetric normalized Laplacian."""
    nlap = _normalized_laplacian(weights)
    _, vecs = scipy.linalg.eigh(nlap.T, subset_by_index=(0, k - 1), overwrite_a=True)
    norms = np.linalg.norm(vecs, axis=1)
    keep = norms > 0
    vecs[keep] /= norms[keep, None]
    return vecs


def _farthest_first_centers(points: np.ndarray, k: int, first: int) -> np.ndarray:
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[first]
    mind = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        nxt = int(np.argmax(mind))
        centers[c] = points[nxt]
        d = ((points - centers[c]) ** 2).sum(axis=1)
        mind = np.minimum(mind, d)
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray, max_iter: int = 300):
    """Lloyd iterations with empty-cluster repair; returns labels, inertia, notes."""
    k = centers.shape[0]
    notes = []
    labels = np.zeros(points.shape[0], dtype=np.int64)
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(points.shape[0]), new_labels]

        repairs = 0
        empty = [c for c in range(k) if not np.any(new_labels == c)]
        while empty and repairs < 3:
            # Re-seed each empty centroid at the point farthest from its own centroid.
            for c in empty:
                far = int(np.argmax(point_d2))
                centers[c] = points[far]
                new_labels[far] = c
                point_d2[far] = 0.0
            repairs += 1
            empty = [c for c in range(k) if not np.any(new_labels == c)]
        if empty:
            note = f"clusters {empty} empty after {repairs} repair passes"
            if note not in notes:
                notes.append(note)

        done = np.array_equal(new_labels, labels)
        labels = new_labels
        for c in range(k):
            mask = labels == c
            if np.any(mask):
                centers[c] = points[mask].mean(axis=0)
        if done:
            break
    else:
        notes.append(f"k-means stopped at {max_iter} iterations")
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(points.shape[0]), labels].sum())
    return labels, inertia, notes


def _kmeans(points: np.ndarray, k: int, seed: int, n_restarts: int = 10):
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_restarts):
        first = int(rng.integers(points.shape[0]))
        centers = _farthest_first_centers(points, k, first)
        labels, inertia, notes = _lloyd(points, centers)
        if best is None or inertia < best[1]:
            best = (labels, inertia, notes)
    return best


def spectral_cluster(aff: SimilarityGraph, k: int, seed: int = 0) -> ClusterAssignment:
    """Cluster by k-means on the spectral embedding of the affinity graph.

    Deterministic for a fixed seed: k-means uses greedy farthest-point
    seeding from seeded random starts, 10 restarts, best inertia wins.
    """
    n = aff.size
    if k < 1:
        raise DatasetError(f"k must be >= 1, got {k}")
    if k > n:
        raise DatasetError(f"k={k} exceeds the number of images {n}")
    _check_seed(seed)
    if k == 1:
        return ClusterAssignment(labels=np.zeros(n, dtype=np.int64), k=1)
    embedding = _spectral_embedding(aff.weights, k)
    labels, _, notes = _kmeans(embedding, k, seed)
    return ClusterAssignment(labels=labels, k=k, notes=tuple(notes))


def eigengap_k(aff: SimilarityGraph, k_max: int) -> int:
    """Suggest k from the largest gap in the smallest normalized-Laplacian eigenvalues.

    Heuristic helper only; clustering never calls it implicitly.
    """
    n = aff.size
    k_max = min(k_max, n - 1)
    if k_max < 1:
        return 1
    nlap = _normalized_laplacian(aff.weights)
    vals = scipy.linalg.eigh(nlap.T, eigvals_only=True, subset_by_index=(0, k_max),
                             overwrite_a=True)
    gaps = np.diff(vals)
    return int(np.argmax(gaps)) + 1

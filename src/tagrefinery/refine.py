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
subproblem of the transposed instance, so one matrix-free conjugate-gradient
half-step serves both factors.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np

from .tagmat import FeatureMatrix, GraphLaplacian, TagMatrix, read_dense_matrix, write_dense_matrix


class RefineError(ValueError):
    """Raised for invalid refinement configuration or mismatched dimensions."""


class CgBreakdownError(RuntimeError):
    """Conjugate gradient met a non-positive curvature direction.

    The subproblem operator should be PSD whenever 0 <= mu < 1 and the
    Laplacians are valid, so this signals a lambda/mu misconfiguration or
    numerically broken inputs.
    """


@dataclass(frozen=True)
class RefineConfig:
    rank: int = 8
    lambda1: float = 0.1
    lambda2: float = 0.01
    mu: float = 0.4
    outer_iters: int = 30
    cg_iters: int = 200
    cg_tol: float = 1e-8
    seed: int = 0
    # Relative objective-change threshold for stopping the outer loop early.
    obj_tol: float = 1e-6

    def validate(self, f_i: int | None = None, f_t: int | None = None) -> None:
        problems = []
        if self.rank < 1:
            problems.append(f"rank must be >= 1, got {self.rank}")
        if f_i is not None and f_t is not None and self.rank > min(f_i, f_t):
            problems.append(
                f"rank {self.rank} exceeds min feature dimension {min(f_i, f_t)}"
            )
        if self.lambda1 < 0 or self.lambda2 < 0:
            problems.append("lambda1 and lambda2 must be nonnegative")
        if not 0.0 <= self.mu < 1.0:
            problems.append(f"mu must satisfy 0 <= mu < 1, got {self.mu}")
        if self.outer_iters < 1:
            problems.append(f"outer_iters must be >= 1, got {self.outer_iters}")
        if self.cg_iters < 1:
            problems.append(f"cg_iters must be >= 1, got {self.cg_iters}")
        if not self.cg_tol > 0:
            problems.append(f"cg_tol must be > 0, got {self.cg_tol}")
        if self.obj_tol < 0:
            problems.append(f"obj_tol must be >= 0, got {self.obj_tol}")
        if problems:
            raise RefineError("; ".join(problems))


@dataclass(frozen=True)
class FactorPair:
    """Low-rank factors: p maps image features, q maps tag features."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=np.float64)
        q = np.array(self.q, dtype=np.float64)
        if p.ndim != 2 or q.ndim != 2 or p.shape[1] != q.shape[1]:
            raise RefineError(f"factor shapes {p.shape} / {q.shape} are inconsistent")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise RefineError("factors contain non-finite entries")
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


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
        config.validate(v.dim, t.dim)
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
            raise RefineError("; ".join(problems))
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

    def half_step(self, x, y) -> tuple[np.ndarray, bool]:
        """Minimize over the row factor with y fixed, by CG warm-started at x; see _cg."""
        b, cfg = self.cols @ y, self.config

        def normal(z):
            return 2.0 * self.rows.T @ (self.residual_map((self.rows @ z) @ b.T) @ b) + cfg.lambda1 * z

        return _cg(normal, 2.0 * self.rows.T @ (self.o @ b), x, cfg.cg_tol, cfg.cg_iters)


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
        raise RefineError(f"free factor must be 'p' or 'q', got {free!r}")
    inst = _Instance.build(tags, v, t, l_v, l_s, config)
    x, y = factors.p, factors.q
    if free == "q":
        inst, x, y = inst.transposed(), y, x
    g = inst.residuals(x, y)[1]
    return 2.0 * inst.rows.T @ (g @ (inst.cols @ y)) + config.lambda1 * x


def _cg(apply_a, b, x0, tol, max_iters):
    """Conjugate gradient for the matrix-shaped PSD system A x = b.

    Returns x and whether CG stopped at max_iters before meeting tol.
    """
    x = x0.copy()
    r = b - apply_a(x)
    p = r.copy()
    rs = float(np.sum(r * r))
    b_norm = float(np.linalg.norm(b))
    thresh = tol * b_norm if b_norm > 0 else tol
    if np.sqrt(rs) <= thresh:
        return x, False
    for _ in range(max_iters):
        ap = apply_a(p)
        p_ap = float(np.sum(p * ap))
        if p_ap <= 0.0:
            raise CgBreakdownError(
                "non-positive curvature in factor subproblem "
                f"(p^T A p = {p_ap:.3e}); check lambda1/lambda2/mu"
            )
        alpha = rs / p_ap
        x += alpha * p
        r -= alpha * ap
        rs_new = float(np.sum(r * r))
        if np.sqrt(rs_new) <= thresh:
            return x, False
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, True


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
    """Alternating minimization over P and Q with CG half-steps.

    Each half-step solves its convex quadratic from a warm start, so the
    recorded objective trace (initial value, then one entry per half-step)
    never increases beyond roundoff. Deterministic for a fixed seed.
    Passing init resumes from previously saved factors instead of the
    seeded Gaussian start. A fit that stops at outer_iters without meeting
    obj_tol logs a warning and returns converged=False. A fit whose CG
    half-steps stop at cg_iters logs one warning with their count.
    """
    inst = _Instance.build(tags, v, t, l_v, l_s, config)
    inst_t = inst.transposed()
    if init is not None:
        if init.p.shape != (v.dim, config.rank) or init.q.shape != (t.dim, config.rank):
            raise RefineError(
                f"initial factors {init.p.shape}/{init.q.shape} do not match "
                f"features and rank ({v.dim}x{config.rank}, {t.dim}x{config.rank})"
            )
        p, q = init.p, init.q  # _cg copies its start, so the read-only arrays are safe
    else:
        rng = np.random.default_rng(config.seed)
        scale = 1.0 / np.sqrt(config.rank)
        p = rng.standard_normal((v.dim, config.rank)) * scale
        q = rng.standard_normal((t.dim, config.rank)) * scale

    log = logging.getLogger(__name__)
    trace = [inst.objective(p, q)]
    cg_capped = 0
    for outer in range(config.outer_iters):
        p, capped = inst.half_step(p, q)
        trace.append(inst.objective(p, q))
        cg_capped += capped
        q, capped = inst_t.half_step(q, p)
        trace.append(inst.objective(p, q))
        cg_capped += capped
        change = abs(trace[-3] - trace[-1]) / max(abs(trace[-3]), 1e-12)
        if change <= config.obj_tol:
            break
    else:
        log.warning(
            "refine stopped at refine.outer_iters=%d with relative objective change %.3e",
            config.outer_iters, change,
        )
    if cg_capped:
        log.warning(
            "refine: %d of %d CG half-steps stopped at refine.cg_iters=%d",
            cg_capped, 2 * (outer + 1), config.cg_iters,
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
        raise RefineError(
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
    return FactorPair(p=read_dense_matrix(p_path), q=read_dense_matrix(q_path))

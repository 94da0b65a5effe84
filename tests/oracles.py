"""Independent brute-force reference implementations.

These deliberately recompute everything with plain loops and textbook
formulas, sharing no code with the package internals, so test expectations
come from a second path rather than the implementation under test.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from tagrefinery.tagmat import TagMatrix


def tags_from_dense(dense):
    """scipy's own dense -> COO -> CSR conversion; only TagMatrix's validation is shared."""
    return TagMatrix(sp.csr_array(np.asarray(dense, dtype=np.float64)))


def clamped_tags(scores):
    """refined.mtx's matrix as a full clipped copy of the scores, converted by scipy."""
    return tags_from_dense(np.clip(scores, 0.0, 1.0))


def top_n_indices(row, n):
    order = sorted(range(len(row)), key=lambda j: (-row[j], j))
    return order[: min(n, len(row))]


def ap_ar(scores, truth_dense, n):
    """Per-image precision/recall@n via python sets; empty truth rows skipped."""
    precisions, recalls = [], []
    for i in range(len(truth_dense)):
        true_set = {j for j, v in enumerate(truth_dense[i]) if v != 0}
        if not true_set:
            continue
        top = set(top_n_indices(list(scores[i]), n))
        hits = len(top & true_set)
        precisions.append(hits / n)
        recalls.append(hits / len(true_set))
    return precisions, recalls


def sharing_scores(presence, sims, n_neighbors, w_local, w_cooc, w_freq):
    """Loop evaluation of the documented three-component voting formula."""
    m, n_tags = presence.shape
    local = [[0.0] * n_tags for _ in range(m)]
    if m > 1:
        n_nb = min(n_neighbors, m - 1)
        for i in range(m):
            others = [j for j in range(m) if j != i]
            nbrs = sorted(others, key=lambda j: (-sims[i][j], j))[:n_nb]
            denom = sum(sims[i][j] for j in nbrs)
            if denom > 0:
                for t in range(n_tags):
                    local[i][t] = sum(
                        sims[i][j] * (1.0 if presence[j][t] else 0.0) for j in nbrs
                    ) / denom

    counts = [sum(1 for i in range(m) if presence[i][t]) for t in range(n_tags)]
    cooc = [[0.0] * n_tags for _ in range(m)]
    for i in range(m):
        own = [t for t in range(n_tags) if presence[i][t]]
        for t in range(n_tags):
            best = 0.0
            for tp in own:
                both = sum(1 for a in range(m) if presence[a][tp] and presence[a][t])
                best = max(best, (both + 1.0) / (counts[tp] + 2.0))
            cooc[i][t] = best

    freq = [[counts[t] / m for t in range(n_tags)] for _ in range(m)]

    def minmax(mat):
        flat = [v for row in mat for v in row]
        lo, hi = min(flat), max(flat)
        if hi - lo <= 0:
            return [[0.0] * n_tags for _ in range(m)]
        return [[(v - lo) / (hi - lo) for v in row] for row in mat]

    local, cooc, freq = minmax(local), minmax(cooc), minmax(freq)
    total = w_local + w_cooc + w_freq
    return np.array(
        [
            [
                (w_local * local[i][t] + w_cooc * cooc[i][t] + w_freq * freq[i][t]) / total
                for t in range(n_tags)
            ]
            for i in range(m)
        ]
    )


def shared_tags(tags_dense, labels, sims, n_neighbors, w_local, w_cooc, w_freq,
                max_added, min_confidence):
    """Loop evaluation of the documented admission rule of tag sharing.

    Per cluster, scores come from sharing_scores on the cluster's block; per
    image, absent tags scoring >= min_confidence are ranked by (-score, tag
    index) and the first max_added are added at their scores.
    """
    n_images, n_tags = len(tags_dense), len(tags_dense[0])
    out = [[float(v) for v in row] for row in tags_dense]
    for c in sorted(set(labels)):
        idx = [i for i in range(n_images) if labels[i] == c]
        presence = np.array([[tags_dense[i][t] != 0 for t in range(n_tags)] for i in idx])
        block = np.array([[sims[i][j] for j in idx] for i in idx])
        scores = sharing_scores(presence, block, n_neighbors, w_local, w_cooc, w_freq)
        for r, i in enumerate(idx):
            cand = [t for t in range(n_tags)
                    if tags_dense[i][t] == 0 and scores[r][t] >= min_confidence]
            for t in sorted(cand, key=lambda t: (-scores[r][t], t))[:max_added]:
                out[i][t] = scores[r][t]
    return np.array(out)


def refine_objective(o, annotated, v, t, p, q, l_v, l_s, lam1, lam2, mu):
    """Subtracted-form loss plus regularizers, evaluated entry by entry."""
    ohat = v @ p @ q.T @ t.T
    n_i, n_t = o.shape
    loss = 0.0
    for i in range(n_i):
        for j in range(n_t):
            r2 = (o[i, j] - ohat[i, j]) ** 2
            loss += r2
            if not annotated[i, j]:
                loss -= mu * r2
    reg1 = 0.5 * lam1 * ((p ** 2).sum() + (q ** 2).sum())
    reg2 = lam2 * (np.trace(ohat.T @ l_v @ ohat) + np.trace(ohat @ l_s @ ohat.T))
    return loss + reg1 + reg2


def unweighted_imc_gradient(o, v, t, p, q, lam1, free):
    """Plain least-squares gradient for the fully observed, unregularized-graph model."""
    ohat = v @ p @ q.T @ t.T
    if free == "p":
        return 2.0 * v.T @ (ohat - o) @ t @ q + lam1 * p
    return 2.0 * t.T @ (ohat - o).T @ v @ p + lam1 * q


def central_difference(f, x, h=1e-5):
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def dense_unweighted_als(o, v, t, r, lam1, n_outer, seed):
    """Exact alternating least squares for mu=0, lambda2=0 via normal equations.

    Uses the same seeded Gaussian initialization convention as the solver
    under test, but solves every half-step exactly with dense Kronecker
    systems. Returns the factor pair and the final objective.
    """
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(r)
    p = rng.standard_normal((v.shape[1], r)) * scale
    q = rng.standard_normal((t.shape[1], r)) * scale
    for _ in range(n_outer):
        b = t @ q
        lhs = 2.0 * np.kron(v.T @ v, b.T @ b) + lam1 * np.eye(v.shape[1] * r)
        rhs = (2.0 * v.T @ o @ b).ravel()
        p = np.linalg.solve(lhs, rhs).reshape(v.shape[1], r)
        a = v @ p
        lhs = 2.0 * np.kron(t.T @ t, a.T @ a) + lam1 * np.eye(t.shape[1] * r)
        rhs = (2.0 * t.T @ o.T @ a).ravel()
        q = np.linalg.solve(lhs, rhs).reshape(t.shape[1], r)
    resid = o - v @ p @ q.T @ t.T
    objective = (resid ** 2).sum() + 0.5 * lam1 * ((p ** 2).sum() + (q ** 2).sum())
    return p, q, objective


def imc_normal_matrix(annotated, v, b, l_v, l_s, lam1, lam2, mu):
    """Normal matrix of the row-factor subproblem in vec(X) = X.ravel(), by Kronecker products.

    2[(1-mu) V^T V (x) B^T B + mu sum_i v_i v_i^T (x) C_i
      + lam2 (V^T L_v V (x) B^T B + V^T V (x) B^T L_s B)] + lam1 I,
    where C_i = sum of b_j b_j^T over the annotated positions j of row i.
    """
    f, r = v.shape[1], b.shape[1]
    btb = b.T @ b
    h = (1.0 - mu) * np.kron(v.T @ v, btb)
    for i in range(v.shape[0]):
        c_i = np.zeros((r, r))
        for j in range(b.shape[0]):
            if annotated[i, j]:
                c_i += np.outer(b[j], b[j])
        h += mu * np.kron(np.outer(v[i], v[i]), c_i)
    h += lam2 * (np.kron(v.T @ l_v @ v, btb) + np.kron(v.T @ v, b.T @ l_s @ b))
    return 2.0 * h + lam1 * np.eye(f * r)


def ssc_reference(x, mu, max_iters, tol, rho=1.0, growth=1.1, rho_max=1e8):
    """Textbook ADMM loop of the self-representation solver, one temporary per term.

    Row-normalizes x, then runs the same splitting and penalty schedule as
    subspace.ssc_solve with plain array expressions and the same sum order
    in every term. It solves with the Cholesky factor where ssc_solve applies
    a precomputed inverse, so the two agree to roundoff. Returns
    (z, e, n_iters, converged, (recon_rel, rowsum_max, gap_max)).
    """
    x = np.asarray(x, dtype=np.float64)
    x = x / np.linalg.norm(x, axis=1)[:, None]
    n = x.shape[0]
    x_norm = np.linalg.norm(x)
    ones = np.ones(n)
    m = x @ x.T + np.eye(n) + np.outer(ones, ones)
    cho = scipy.linalg.cho_factor(m, lower=True)

    j = np.zeros((n, n))
    e = np.zeros_like(x)
    y1 = np.zeros_like(x)
    y2 = np.zeros((n, n))
    y3 = np.zeros(n)
    residuals = (np.inf, np.inf, np.inf)
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        rhs = (
            (x - e + y1 / rho) @ x.T
            + j
            - y2 / rho
            + np.outer(ones - y3 / rho, ones)
        )
        z = scipy.linalg.cho_solve(cho, rhs.T).T

        a = z + y2 / rho
        j = np.sign(a) * np.maximum(np.abs(a) - 1.0 / rho, 0.0)
        np.fill_diagonal(j, 0.0)

        zx = z @ x
        e = (y1 + rho * (x - zx)) / (2.0 * mu + rho)

        r_recon = x - zx - e
        r_gap = z - j
        r_rowsum = z @ ones - 1.0
        y1 += rho * r_recon
        y2 += rho * r_gap
        y3 += rho * r_rowsum
        rho = min(rho * growth, rho_max)

        residuals = (
            float(np.linalg.norm(x - j @ x - e) / x_norm),
            float(np.abs(j @ ones - 1.0).max()),
            float(np.abs(r_gap).max()),
        )
        if max(residuals) <= tol:
            converged = True
            break
    return j, e, it, converged, residuals


# ---------------------------------------------------------------------------
# Bit pins of the cluster stage
#
# Verbatim copies of the GEMM-inverse self-representation loop, the affinity
# and the normalized Laplacian as they stood before the stage was cut to four
# n x n arrays. ssc_pinned stays the record of that loop's arithmetic: since
# the solver came to carry one n x n state (A = Z + y2/rho), it reproduces
# ssc_pinned's z and e to roundoff (1e-12) and its iteration count, nonzero
# pattern and clustering exactly. The affinity and the Laplacian must still be
# reproduced bit for bit.
# ---------------------------------------------------------------------------


def ssc_pinned(x, mu, max_iters, tol, rho=1.0, growth=1.1, rho_max=1e8):
    """Returns (z, e, n_iters, converged, (recon_rel, rowsum_max, gap_max), objective)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    norms = np.linalg.norm(x, axis=1)
    x = x / norms[:, None]

    x_norm = np.linalg.norm(x)
    ones = np.ones(n)
    m = x @ x.T
    m.flat[:: n + 1] += 1.0
    m += 1.0
    m_inv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(m), np.eye(n), overwrite_b=True)
    del m

    z = np.empty((n, n))
    j = np.zeros((n, n))
    buf = np.empty((n, n))
    e = np.zeros_like(x)
    y1 = np.zeros_like(x)
    y2 = np.zeros((n, n))
    y3 = np.zeros(n)

    residuals = (np.inf, np.inf, np.inf)
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        np.divide(y2, rho, out=buf)
        np.matmul(x - e + y1 / rho, x.T, out=z)
        z += j
        z -= buf
        z += (1.0 - y3 / rho)[:, None]
        z, j = np.matmul(z, m_inv, out=j), z

        np.add(z, buf, out=buf)
        np.subtract(np.abs(buf, out=j), 1.0 / rho, out=j)
        np.copysign(np.maximum(j, 0.0, out=j), buf, out=j)
        np.fill_diagonal(j, 0.0)

        zx = z @ x
        e = (y1 + rho * (x - zx)) / (2.0 * mu + rho)

        y1 += rho * (x - zx - e)
        np.subtract(z, j, out=buf)
        gap_max = float(np.abs(buf).max())
        buf *= rho
        y2 += buf
        y3 += rho * (z @ ones - 1.0)
        rho = min(rho * growth, rho_max)

        residuals = (
            float(np.linalg.norm(x - j @ x - e) / x_norm),
            float(np.abs(j @ ones - 1.0).max()),
            gap_max,
        )
        if max(residuals) <= tol:
            converged = True
            break

    objective = float(np.abs(j).sum() + mu * (e ** 2).sum())
    return j, e, it, converged, residuals, objective


def affinity_pinned(z):
    a = np.abs(z)
    return a + a.T


def normalized_laplacian_pinned(weights):
    n = weights.shape[0]
    deg = weights.sum(axis=1)
    dinv = np.zeros(n)
    pos = deg > 0
    dinv[pos] = 1.0 / np.sqrt(deg[pos])
    nlap = np.eye(n) - dinv[:, None] * weights * dinv[None, :]
    return (nlap + nlap.T) / 2.0

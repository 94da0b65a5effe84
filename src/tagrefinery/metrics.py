"""Ranking evaluation (average precision/recall at N) and noise injection."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .config import NoiseSpec, _check_args, _shown
from .tagmat import DatasetError, TagMatrix, top_n_tags


@dataclass(frozen=True)
class EvalReport:
    """AP@N / AR@N means plus the per-image values behind them.

    per_image_* and included_images cover only the images that entered the
    means: images with an empty ground-truth row are skipped.
    """

    n: int
    ap: float
    ar: float
    per_image_precision: tuple[float, ...]
    per_image_recall: tuple[float, ...]
    included_images: tuple[int, ...]


def _require_binary(truth: TagMatrix, what: str) -> None:
    if truth.nnz and not np.all(truth.matrix.data == 1.0):
        raise DatasetError(f"{what} must be binary (confidences exactly 0 or 1)")


def ap_ar_at_n(predicted, truth: TagMatrix, n: int) -> EvalReport:
    """Precision@n and recall@n per image against binary ground truth.

    predicted may be a TagMatrix or a raw score matrix; ranking uses the
    shared deterministic top-n rule (score descending, tag index ascending).
    Precision always divides by n; recall divides by the image's
    ground-truth tag count. Images with no ground-truth tags are excluded
    from both means, as their recall is undefined.
    """
    _check_args(TagMatrix, {}, truth=truth)
    if sp.issparse(predicted):
        raise DatasetError(f"predicted must be a TagMatrix or a dense score matrix, "
                           f"got {_shown(predicted)}")
    scores = predicted.toarray() if isinstance(predicted, TagMatrix) else np.asarray(predicted)
    if scores.shape != (truth.n_images, truth.n_tags):
        raise DatasetError(
            f"prediction shape {scores.shape} does not match truth "
            f"{(truth.n_images, truth.n_tags)}"
        )
    _require_binary(truth, "ground truth")

    counts = np.diff(truth.matrix.indptr)
    included = np.flatnonzero(counts > 0)
    if not included.size:
        raise DatasetError("all ground-truth rows are empty; nothing to evaluate")
    hits = truth.matrix[included[:, None], top_n_tags(scores[included], n)].sum(axis=1)
    precisions = hits / n
    recalls = hits / counts[included]
    return EvalReport(
        n=n,
        ap=float(np.mean(precisions)),
        ar=float(np.mean(recalls)),
        per_image_precision=tuple(precisions.tolist()),
        per_image_recall=tuple(recalls.tolist()),
        included_images=tuple(included.tolist()),
    )


def inject_noise(truth: TagMatrix, spec: NoiseSpec) -> TagMatrix:
    """Corrupt a binary tag matrix with missing and spurious annotations.

    Deletes floor(missing_rate * nnz) uniformly chosen true entries and
    flips floor(inaccurate_rate * nnz) uniformly chosen zero positions to
    1. Deletion and addition sets are disjoint by construction, and the
    result is bit-reproducible for a fixed seed.
    """
    _check_args(NoiseSpec, {}, spec=spec)
    _check_args(TagMatrix, {}, truth=truth)
    _require_binary(truth, "noise injection input")
    rng = np.random.default_rng(spec.seed)
    coo = truth.matrix.tocoo()
    n_entries = coo.nnz
    n_cells = truth.n_images * truth.n_tags

    n_delete = int(np.floor(spec.missing_rate * n_entries))
    keep = np.ones(n_entries, dtype=bool)
    if n_delete:
        keep[rng.choice(n_entries, size=n_delete, replace=False)] = False

    n_add = int(np.floor(spec.inaccurate_rate * n_entries))
    n_zero = n_cells - n_entries
    if n_add > n_zero:
        raise DatasetError(
            f"cannot add {n_add} spurious entries: only {n_zero} zero positions available"
        )
    rows = [coo.row[keep]]
    cols = [coo.col[keep]]
    if n_add:
        zero_flat = np.flatnonzero(~truth.support().ravel())
        picked = rng.choice(zero_flat, size=n_add, replace=False)
        rows.append(picked // truth.n_tags)
        cols.append(picked % truth.n_tags)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    return TagMatrix.from_entries(
        truth.n_images, truth.n_tags, rows, cols, np.ones(rows.size)
    )


def format_report(report: EvalReport) -> str:
    lines = [
        f"n: {report.n}",
        f"ap: {report.ap:.17g}",
        f"ar: {report.ar:.17g}",
        f"images_evaluated: {len(report.included_images)}",
    ]
    return "\n".join(lines) + "\n"


def save_report(report: EvalReport, path, per_image_csv=None) -> None:
    _check_args(EvalReport, {}, report=report)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_report(report))
    if per_image_csv is not None:
        with open(per_image_csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["image_index", f"precision_at_{report.n}", f"recall_at_{report.n}"])
            for img, prec, rec in zip(
                report.included_images, report.per_image_precision, report.per_image_recall
            ):
                writer.writerow([img, f"{prec:.17g}", f"{rec:.17g}"])

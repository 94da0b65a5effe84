"""Evaluation metric and noise injection tests."""

import numpy as np
import pytest

from tagrefinery.metrics import (
    EvalReport,
    NoiseSpec,
    ap_ar_at_n,
    format_report,
    inject_noise,
    save_report,
)
from tagrefinery.tagmat import DatasetError, TagMatrix

from oracles import ap_ar


def binary_matrix(rng, shape, density=0.4):
    return TagMatrix.from_dense((rng.random(shape) < density).astype(float))


class TestApArAtN:
    def test_perfect_predictions(self):
        truth = TagMatrix.from_dense([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        report = ap_ar_at_n(truth, truth, 2)
        assert report.ap == 1.0
        assert report.ar == 1.0

    def test_half_right_top_two(self):
        # Truth {0,1,2}; scores rank tags 0 then 3 on top.
        truth = TagMatrix.from_dense([[1.0, 1.0, 1.0, 0.0]])
        scores = np.array([[0.9, 0.2, 0.1, 0.8]])
        report = ap_ar_at_n(scores, truth, 2)
        assert report.ap == pytest.approx(0.5)
        assert report.ar == pytest.approx(1.0 / 3.0)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n_i = int(rng.integers(2, 12))
            n_t = int(rng.integers(2, 15))
            truth = binary_matrix(rng, (n_i, n_t))
            if truth.nnz == 0:
                continue
            scores = rng.standard_normal((n_i, n_t))
            n = int(rng.integers(1, n_t + 2))
            report = ap_ar_at_n(scores, truth, n)
            precs, recs = ap_ar(scores, truth.toarray(), n)
            assert list(report.per_image_precision) == precs
            assert list(report.per_image_recall) == recs
            assert report.ap == float(np.mean(precs))
            assert report.ar == float(np.mean(recs))

    def test_empty_rows_excluded_by_default(self):
        truth = TagMatrix.from_dense([[1.0, 0.0], [0.0, 0.0]])
        scores = np.array([[0.9, 0.1], [0.5, 0.4]])
        report = ap_ar_at_n(scores, truth, 1)
        assert report.included_images == (0,)
        assert report.ap == 1.0

    def test_all_empty_truth_rejected(self):
        truth = TagMatrix.from_dense(np.zeros((2, 3)))
        with pytest.raises(DatasetError, match="empty"):
            ap_ar_at_n(np.zeros((2, 3)), truth, 1)

    def test_non_binary_truth_rejected(self):
        truth = TagMatrix.from_dense([[0.5, 0.0]])
        with pytest.raises(DatasetError, match="binary"):
            ap_ar_at_n(np.zeros((1, 2)), truth, 1)

    def test_shape_mismatch_rejected(self):
        truth = TagMatrix.from_dense([[1.0, 0.0]])
        with pytest.raises(DatasetError, match="shape"):
            ap_ar_at_n(np.zeros((2, 2)), truth, 1)

    def test_recall_one_when_n_covers_all_tags(self):
        rng = np.random.default_rng(1)
        truth = binary_matrix(rng, (6, 5))
        scores = rng.standard_normal((6, 5))
        report = ap_ar_at_n(scores, truth, 5)
        assert report.ar == 1.0

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        truth = binary_matrix(rng, (8, 7))
        scores = rng.standard_normal((8, 7))
        r1 = ap_ar_at_n(scores, truth, 3)
        r2 = ap_ar_at_n(3.0 * scores + 11.0, truth, 3)
        r3 = ap_ar_at_n(np.exp(scores), truth, 3)
        assert r1.ap == r2.ap == r3.ap
        assert r1.ar == r2.ar == r3.ar


class TestInjectNoise:
    def test_noop_rates(self):
        rng = np.random.default_rng(3)
        truth = binary_matrix(rng, (5, 6))
        out = inject_noise(truth, NoiseSpec(0.0, 0.0, seed=1))
        np.testing.assert_array_equal(out.toarray(), truth.toarray())

    def test_delete_everything(self):
        rng = np.random.default_rng(4)
        truth = binary_matrix(rng, (5, 6))
        out = inject_noise(truth, NoiseSpec(1.0, 0.0, seed=1))
        assert out.nnz == 0

    def test_exact_counts_and_determinism(self):
        rng = np.random.default_rng(5)
        truth = binary_matrix(rng, (10, 12), density=0.35)
        spec = NoiseSpec(0.3, 0.3, seed=42)
        out1 = inject_noise(truth, spec)
        out2 = inject_noise(truth, spec)
        np.testing.assert_array_equal(out1.toarray(), out2.toarray())
        n_e = truth.nnz
        n_del = int(np.floor(0.3 * n_e))
        n_add = int(np.floor(0.3 * n_e))
        before = truth.support()
        after = out1.support()
        deleted = before & ~after
        added = after & ~before
        assert deleted.sum() == n_del
        assert added.sum() == n_add
        assert not np.any(deleted & added)

    def test_additions_only_on_original_zeros(self):
        rng = np.random.default_rng(6)
        truth = binary_matrix(rng, (6, 6), density=0.5)
        out = inject_noise(truth, NoiseSpec(0.5, 0.5, seed=7))
        added = out.support() & ~truth.support()
        assert np.all(~truth.support()[added])

    def test_too_many_additions_rejected(self):
        truth = TagMatrix.from_dense([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(DatasetError, match="zero positions"):
            inject_noise(truth, NoiseSpec(0.0, 0.9, seed=0))

    def test_non_binary_rejected(self):
        truth = TagMatrix.from_dense([[0.4]])
        with pytest.raises(DatasetError, match="binary"):
            inject_noise(truth, NoiseSpec(0.1, 0.1, seed=0))

    def test_rate_validation(self):
        with pytest.raises(DatasetError, match="missing_rate"):
            NoiseSpec(1.5, 0.0)
        with pytest.raises(DatasetError, match="inaccurate_rate"):
            NoiseSpec(0.0, -0.2)


class TestReportIO:
    def test_format_and_save(self, tmp_path):
        report = EvalReport(
            n=5, ap=0.75, ar=0.5,
            per_image_precision=(1.0, 0.5), per_image_recall=(0.6, 0.4),
            included_images=(0, 2),
        )
        text = format_report(report)
        assert "n: 5" in text
        assert "ap: 0.75" in text
        path = tmp_path / "report.txt"
        csv_path = tmp_path / "per_image.csv"
        save_report(report, path, per_image_csv=csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "image_index,precision_at_5,recall_at_5"
        assert lines[1].startswith("0,1,")

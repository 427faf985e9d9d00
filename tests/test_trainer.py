"""Model zoo gradients, training loop, transfer metrics, output writers."""

import json
import math

import numpy as np
import pytest

from crucial.data import TimeSeriesSample, gen_drift_classification, gen_sine_regression, make_prefixes
from crucial.loss import CrucialConfig, Variant
from crucial.numerics import SeededRng
from crucial.trainer import (
    TaskSpec,
    TrainingDiverged,
    TransferMatrix,
    auc_roc,
    bwt,
    evaluate,
    featurize,
    forward_backward,
    fwt,
    make_model,
    run_continuous,
    train_model,
    write_metrics_csv,
    write_transfer_json,
)


def local_maxima(counts):
    """Strict local maxima, plateaus collapsed to one peak."""
    peaks = 0
    i = 1
    n = len(counts)
    while i < n - 1:
        if counts[i] > counts[i - 1]:
            j = i
            while j + 1 < n and counts[j + 1] == counts[j]:
                j += 1
            if j < n - 1 and counts[j + 1] < counts[j]:
                peaks += 1
            i = j + 1
        else:
            i += 1
    return peaks


def directional_fd(model, X, y, base_loss, direction, h=1e-6):
    """Central difference of the summed loss along one parameter direction."""
    saved = model.params.copy()
    model.params = saved + h * direction
    up = float(np.sum(forward_backward(model, X, y, base_loss)[0]))
    model.params = saved - h * direction
    dn = float(np.sum(forward_backward(model, X, y, base_loss)[0]))
    model.params = saved
    return (up - dn) / (2.0 * h)


class TestFeaturize:
    def test_window_takes_suffix_and_pads_short_series(self):
        model = make_model("linear", 4, 1, SeededRng(0))
        long = TimeSeriesSample(id=0, values=np.arange(10.0), label=1.0)
        short = TimeSeriesSample(id=1, values=np.array([5.0, 7.0]), label=2.0)
        X, y = featurize([long, short], model)
        assert np.array_equal(X[0], [6.0, 7.0, 8.0, 9.0])
        assert np.array_equal(X[1], [0.0, 0.0, 5.0, 7.0])
        assert np.array_equal(y, [1.0, 2.0])

    def test_recurrent_model_needs_uniform_lengths(self):
        model = make_model("elman_rnn", 4, 1, SeededRng(0), hidden=3)
        a = TimeSeriesSample(id=0, values=np.arange(6.0), label=0.0)
        b = TimeSeriesSample(id=1, values=np.arange(5.0), label=0.0)
        X, _ = featurize([a, a], model)
        assert X.shape == (2, 6)
        with pytest.raises(ValueError):
            featurize([a, b], model)

    def test_classification_labels_cast_and_range_checked(self):
        model = make_model("linear", 4, 2, SeededRng(0))
        good = TimeSeriesSample(id=0, values=np.arange(4.0), label=1)
        bad = TimeSeriesSample(id=1, values=np.arange(4.0), label=2)
        _, y = featurize([good], model)
        assert y.dtype == np.int64
        with pytest.raises(ValueError):
            featurize([good, bad], model)

    def test_rejects_empty_unlabeled_multivariate(self):
        model = make_model("linear", 4, 1, SeededRng(0))
        with pytest.raises(ValueError):
            featurize([], model)
        with pytest.raises(ValueError):
            featurize([TimeSeriesSample(id=0, values=np.arange(4.0), label=None)], model)
        with pytest.raises(ValueError):
            featurize([TimeSeriesSample(id=0, values=np.zeros((4, 2)), label=0.0)], model)


class TestGradients:
    def test_linear_mse_closed_form(self):
        model = make_model("linear", 3, 1, SeededRng(7))
        X = np.array([[1.0, -2.0, 0.5]])
        y = np.array([0.3])
        losses, grads = forward_backward(model, X, y, "mse")
        r = float(model.forward(X)[0, 0] - 0.3)
        assert losses[0] == pytest.approx(r * r, rel=1e-14)
        expect = np.concatenate([2.0 * r * X[0], [2.0 * r]])
        assert np.allclose(grads[0], expect, rtol=1e-13)

    def test_zero_residual_gives_zero_gradient(self):
        model = make_model("linear", 3, 1, SeededRng(7))
        X = np.array([[0.4, 1.0, -0.2]])
        y = model.forward(X)[:, 0]
        losses, grads = forward_backward(model, X, y, "mse")
        assert losses[0] == 0.0
        assert np.all(grads[0] == 0.0)

    @pytest.mark.parametrize("kind,base_loss,n_out", [
        ("linear", "mse", 1),
        ("linear", "cross_entropy", 2),
        ("mlp", "mse", 1),
        ("mlp", "cross_entropy", 3),
        ("elman_rnn", "mse", 1),
        ("elman_rnn", "cross_entropy", 2),
    ])
    def test_per_sample_grads_match_finite_differences(self, kind, base_loss, n_out):
        rng = SeededRng(21)
        model = make_model(kind, 5, n_out, rng, hidden=(4,) if kind == "mlp" else 4)
        gen = rng.derive("fd").generator
        X = gen.standard_normal((6, 5))
        if base_loss == "mse":
            y = gen.standard_normal(6)
        else:
            y = gen.integers(0, n_out, 6).astype(np.int64)
        _, grads = forward_backward(model, X, y, base_loss)
        total_grad = np.sum(grads, axis=0)
        for _ in range(25):
            d = gen.standard_normal(model.n_params)
            d /= np.linalg.norm(d)
            fd = directional_fd(model, X, y, base_loss, d)
            an = float(total_grad @ d)
            assert fd == pytest.approx(an, rel=1e-4, abs=1e-7)

    def test_cross_entropy_accepts_float_coded_labels(self):
        model = make_model("linear", 4, 2, SeededRng(3))
        X = np.ones((2, 4))
        losses, _ = forward_backward(model, X, np.array([0.0, 1.0]), "cross_entropy")
        assert losses.shape == (2,) and np.all(losses > 0.0)

    def test_batch_validation(self):
        model = make_model("linear", 4, 1, SeededRng(3))
        with pytest.raises(ValueError):
            forward_backward(model, np.zeros((0, 4)), np.zeros(0), "mse")
        with pytest.raises(ValueError):
            forward_backward(model, np.zeros((2, 4)), np.zeros(3), "mse")
        with pytest.raises(ValueError):
            forward_backward(model, np.zeros((2, 4)), np.zeros(2), "huber")


class TestTaskSpec:
    def test_pairing_rules(self):
        TaskSpec("regression", "mse", 1, 0.1)
        TaskSpec("single_shot", "cross_entropy", 1, 0.1)
        with pytest.raises(ValueError):
            TaskSpec("regression", "cross_entropy", 1, 0.1)
        with pytest.raises(ValueError):
            TaskSpec("single_shot", "mse", 1, 0.1)
        with pytest.raises(ValueError):
            TaskSpec("lifelong", "mse", 1, 0.1)
        with pytest.raises(ValueError):
            TaskSpec("regression", "mse", 0, 0.1)
        with pytest.raises(ValueError):
            TaskSpec("regression", "mse", 1, 0.0)


class TestTrainLoop:
    def _sine_setup(self, master=0):
        rng = SeededRng(master)
        ds = gen_sine_regression(64, 32, 0.1, rng.derive("data"))
        model = make_model("linear", 8, 1, rng.derive("model"))
        return ds, model

    def test_loss_decreases_on_regression(self):
        ds, model = self._sine_setup()
        task = TaskSpec("regression", "mse", 60, 0.1)
        res = train_model(model, ds.samples, task)
        assert res.epoch_mean_losses[-1] < 0.5 * res.epoch_mean_losses[0]
        assert len(res.epoch_mean_losses) == 60
        assert len(res.kappa_ge1_counts) == 60

    def test_inactive_wrapper_is_bit_exact_neutral(self):
        # a confidence curvature so large that every factor is exactly 1.0
        # must reproduce plain training to the last bit
        ds, model_a = self._sine_setup()
        _, model_b = self._sine_setup()
        assert np.array_equal(model_a.params, model_b.params)
        plain = TaskSpec("regression", "mse", 40, 0.1)
        inert = TaskSpec("regression", "mse", 40, 0.1,
                         wrapper=CrucialConfig(Variant.BASELINE, lam=1e300, threshold=0.0))
        res_a = train_model(model_a, ds.samples, plain)
        res_b = train_model(model_b, ds.samples, inert)
        assert np.array_equal(res_a.model.params, res_b.model.params)
        assert res_a.epoch_mean_losses == res_b.epoch_mean_losses

    def test_unwrapped_counts_report_whole_batch(self):
        ds, model = self._sine_setup()
        res = train_model(model, ds.samples, TaskSpec("regression", "mse", 3, 0.05))
        assert res.kappa_ge1_counts == [64, 64, 64]

    def test_divergence_guard_trips(self):
        ds, model = self._sine_setup()
        task = TaskSpec("regression", "mse", 200, 50.0)
        with pytest.raises(TrainingDiverged):
            train_model(model, ds.samples, task)

    def test_training_is_deterministic(self):
        ds, model_a = self._sine_setup(3)
        _, model_b = self._sine_setup(3)
        task = TaskSpec("regression", "mse", 20, 0.1,
                        wrapper=CrucialConfig(Variant.ADP, lam=0.01))
        res_a = train_model(model_a, ds.samples, task)
        res_b = train_model(model_b, ds.samples, task)
        assert res_a.epoch_mean_losses == res_b.epoch_mean_losses
        assert np.array_equal(res_a.model.params, res_b.model.params)

    def test_adaptive_selection_count_cycles_on_classification(self):
        # the adaptive threshold tracks skewness, so the confident-set size
        # rises and falls instead of saturating
        rng = SeededRng(123)
        ds = gen_drift_classification(512, 64, 1.0, 0.0, rng.derive("data/train"),
                                      class_sep=1.2)
        model = make_model("mlp", 16, 2, rng.derive("model"), hidden=(8,))
        task = TaskSpec("single_shot", "cross_entropy", 40, 1.0,
                        wrapper=CrucialConfig(Variant.ADP, lam=0.001))
        res = train_model(model, ds.samples, task)
        counts = res.kappa_ge1_counts
        assert len(set(counts)) > 1
        assert local_maxima(counts) >= 3


def loop_midrank_auc(scores, labels):
    """Rank-statistic AUC with midranks found by walking the sorted scores."""
    pos = labels == 1
    n_pos = int(np.sum(pos))
    n_neg = labels.shape[0] - n_pos
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(labels.shape[0], dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i: j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = float(np.sum(ranks[pos]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


class TestAuc:
    def test_matches_pair_counting_with_ties(self):
        gen = SeededRng(14).generator
        scores = np.round(gen.standard_normal(80), 1)  # rounding forces ties
        labels = (gen.random(80) < 0.45).astype(int)
        heavy_ties = [
            np.round(gen.standard_normal(300), 0),  # a handful of distinct values
            gen.integers(0, 2, 300).astype(float),  # two tie groups
            np.full(40, 0.5),                       # one tie group
        ]
        cases = [(scores, labels)] + [
            (s, np.resize([0, 1], s.size)[gen.permutation(s.size)]) for s in heavy_ties
        ]
        for scores, labels in cases:
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = sum(1.0 for p in pos for q in neg if p > q)
            ties = sum(0.5 for p in pos for q in neg if p == q)
            expect = (wins + ties) / (len(pos) * len(neg))
            assert auc_roc(scores, labels) == pytest.approx(expect, abs=1e-12)
            assert auc_roc(scores, labels) == loop_midrank_auc(scores, labels)

    def test_extremes(self):
        labels = np.array([0, 0, 1, 1])
        assert auc_roc(np.array([0.1, 0.2, 0.8, 0.9]), labels) == 1.0
        assert auc_roc(np.array([0.9, 0.8, 0.2, 0.1]), labels) == 0.0
        with pytest.raises(ValueError):
            auc_roc(np.array([0.1, 0.2]), np.array([1, 1]))


class TestEvaluate:
    def test_regression_reports_mse(self):
        ds = gen_sine_regression(32, 16, 0.1, SeededRng(2))
        model = make_model("linear", 8, 1, SeededRng(2))
        m = evaluate(model, ds.samples, TaskSpec("regression", "mse", 1, 0.1))
        X, y = featurize(ds.samples, model)
        manual = float(np.mean((model.forward(X)[:, 0] - y) ** 2))
        assert m == {"mse": pytest.approx(manual, rel=1e-14)}

    def test_binary_classification_reports_accuracy_and_auc(self):
        ds = gen_drift_classification(64, 16, 0.0, 0.0, SeededRng(2))
        model = make_model("linear", 8, 2, SeededRng(2))
        m = evaluate(model, ds.samples, TaskSpec("single_shot", "cross_entropy", 1, 0.1))
        assert set(m) == {"accuracy", "auc"}
        assert 0.0 <= m["accuracy"] <= 1.0 and 0.0 <= m["auc"] <= 1.0


class TestTransfer:
    def test_bwt_uniform_shift(self):
        R = np.eye(3) * 0.0 + 0.6
        R[2, 0] = R[0, 0] + 0.1
        R[2, 1] = R[1, 1] + 0.1
        tm = TransferMatrix(R=R, baseline=np.zeros(3), baseline_seed=0)
        assert bwt(tm) == pytest.approx(0.1, abs=1e-15)

    def test_fwt_superdiagonal_example(self):
        R = np.full((3, 3), 0.7)
        tm = TransferMatrix(R=R, baseline=np.full(3, 0.5), baseline_seed=0)
        assert fwt(tm) == pytest.approx(0.2, abs=1e-15)

    def test_both_match_direct_summation_on_random_matrix(self):
        gen = SeededRng(33).generator
        k = 5
        R = gen.random((k, k))
        b = gen.random(k)
        tm = TransferMatrix(R=R, baseline=b, baseline_seed=1)
        bwt_direct = sum(R[k - 1, i] - R[i, i] for i in range(k - 1)) / (k - 1)
        fwt_direct = sum(R[i - 1, i] - b[i] for i in range(1, k)) / (k - 1)
        assert bwt(tm) == pytest.approx(bwt_direct, abs=1e-15)
        assert fwt(tm) == pytest.approx(fwt_direct, abs=1e-15)

    def test_single_stage_matrix_rejected(self):
        tm = TransferMatrix(R=np.ones((1, 1)), baseline=np.ones(1), baseline_seed=0)
        with pytest.raises(ValueError):
            bwt(tm)
        with pytest.raises(ValueError):
            fwt(tm)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            TransferMatrix(R=np.ones((2, 3)), baseline=np.ones(2), baseline_seed=0)
        with pytest.raises(ValueError):
            TransferMatrix(R=np.ones((2, 2)), baseline=np.ones(3), baseline_seed=0)

    def test_run_continuous_fills_matrix_deterministically(self):
        def one_run():
            rng = SeededRng(5)
            ds = gen_drift_classification(128, 32, 1.0, 0.0, rng.derive("data"))
            prefixes = make_prefixes(ds, [8, 16, 32])
            model = make_model("linear", 8, 2, rng.derive("model"))
            task = TaskSpec("continuous", "cross_entropy", 15, 0.1)
            return run_continuous(model, prefixes, task, rng.derive("run")), rng

        tm_a, rng = one_run()
        tm_b, _ = one_run()
        assert tm_a.R.shape == (3, 3)
        assert np.array_equal(tm_a.R, tm_b.R)
        assert np.array_equal(tm_a.baseline, tm_b.baseline)
        assert tm_a.baseline_seed == rng.derive("run").derive("baseline-model").seed
        assert np.all(tm_a.R >= 0.0) and np.all(tm_a.R <= 1.0)

    def test_run_continuous_validation(self):
        rng = SeededRng(5)
        ds = gen_drift_classification(32, 16, 0.0, 0.0, rng.derive("data"))
        prefixes = make_prefixes(ds, [4, 8])
        model = make_model("linear", 8, 2, rng.derive("model"))
        task = TaskSpec("continuous", "cross_entropy", 2, 0.1)
        with pytest.raises(ValueError):
            run_continuous(model, [], task, rng)
        with pytest.raises(ValueError):
            run_continuous(model, [prefixes[1], prefixes[0]], task, rng)


class TestWriters:
    def test_metrics_csv_layout(self, tmp_path):
        p = tmp_path / "metrics.csv"
        write_metrics_csv(p, [
            ("run-a", 7, 0, "train", "mse", 0.5),
            ("run-a", 7, 1, "test", "accuracy", 0.875),
        ])
        lines = p.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "run_id,seed,epoch,split,metric_name,value"
        assert lines[1] == "run-a,7,0,train,mse,0.5"
        assert lines[2] == "run-a,7,1,test,accuracy,0.875"

    def test_transfer_json_contents(self, tmp_path):
        R = np.array([[0.6, 0.4], [0.7, 0.8]])
        tm = TransferMatrix(R=R, baseline=np.array([0.5, 0.5]), baseline_seed=11)
        p = tmp_path / "transfer.json"
        write_transfer_json(p, tm)
        payload = json.loads(p.read_text(encoding="utf-8"))
        assert set(payload) == {"R", "baseline", "bwt", "fwt", "baseline_seed"}
        assert payload["R"] == [[0.6, 0.4], [0.7, 0.8]]
        assert payload["bwt"] == pytest.approx(bwt(tm))
        assert payload["fwt"] == pytest.approx(fwt(tm))
        assert payload["baseline_seed"] == 11

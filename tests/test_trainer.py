"""Model zoo gradients, training loop, transfer metrics, output writers."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

import reference
from crucial import trainer
from crucial.data import Dataset, gen_drift_classification, gen_sine_regression, make_prefixes
from crucial.loss import CrucialConfig, ModulatedLoss, Variant, advance_epoch_adp, modulate_epoch
from crucial.numerics import SeededRng, derive_seed
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
    train_epoch,
    train_model,
    write_metrics_csv,
    write_transfer_json,
)
from crucial.trainer import _column_sums, _losses_and_dout


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


def directional_fd(model, X, y, direction, h=1e-6):
    """Central difference of the summed loss along one parameter direction."""
    saved = model.params.copy()
    model.params = saved + h * direction
    up = float(np.sum(forward_backward(model, X, y)[0]))
    model.params = saved - h * direction
    dn = float(np.sum(forward_backward(model, X, y)[0]))
    model.params = saved
    return (up - dn) / (2.0 * h)


def per_sample_rows(model, X, y):
    """Model.per_sample_grads on the batch's own dl/dout rows."""
    out, cache = model.forward_with_cache(X)
    if model.n_outputs == 1:
        dout = 2.0 * (out - y[:, None])
    else:
        p = np.exp(out - out.max(axis=1, keepdims=True))
        dout = p / p.sum(axis=1, keepdims=True)
        dout[np.arange(y.size), y.astype(np.intp)] -= 1.0
    return model.per_sample_grads(cache, dout)


class TestFeaturize:
    def test_window_takes_suffix_and_pads_short_series(self):
        model = make_model("linear", 4, 1, SeededRng(0))
        long = Dataset(ids=[0], values=[np.arange(10.0)], labels=[1.0])
        short = Dataset(ids=[1], values=[[5.0, 7.0]], labels=[2.0])
        X, y = featurize(long, model)
        assert np.array_equal(X[0], [6.0, 7.0, 8.0, 9.0])
        assert np.array_equal(y, [1.0])
        X, y = featurize(short, model)
        assert np.array_equal(X[0], [0.0, 0.0, 5.0, 7.0])
        assert np.array_equal(y, [2.0])

    def test_matches_the_per_row_copy(self):
        # reference: a per-row copy of the last `window` values, left-padded with zeros
        ds = gen_sine_regression(9, 16, 0.1, SeededRng(3))
        for window in (1, 7, 16, 20):
            X, y = featurize(ds, make_model("mlp", window, 1, SeededRng(0)))
            ref = np.zeros((9, window))
            for i, row in enumerate(ds.values):
                k = min(window, row.shape[0])
                ref[i, window - k:] = row[row.shape[0] - k:]
            assert np.array_equal(X, ref)
            assert np.array_equal(y, ds.labels)

    def test_recurrent_model_needs_uniform_lengths(self):
        # a Dataset cannot hold ragged series, so the recurrent model always
        # reads one (n, T) block
        model = make_model("elman_rnn", 4, 1, SeededRng(0), hidden=3)
        a = Dataset(ids=[0, 1], values=[np.arange(6.0), np.arange(6.0)], labels=[0.0, 0.0])
        X, _ = featurize(a, model)
        assert X.shape == (2, 6)
        with pytest.raises(ValueError):
            Dataset(ids=[0, 1], values=[np.arange(6.0), np.arange(5.0)], labels=[0.0, 0.0])

    def test_classification_labels_cast_and_range_checked(self):
        model = make_model("linear", 4, 2, SeededRng(0))
        good = Dataset(ids=[0], values=[np.arange(4.0)], labels=[1])
        bad = Dataset(ids=[0, 1], values=[np.arange(4.0), np.arange(4.0)], labels=[1, 2])
        _, y = featurize(good, model)
        assert y.dtype == np.int64
        with pytest.raises(ValueError):
            featurize(bad, model)

    def test_classification_refuses_real_valued_labels(self):
        model = make_model("linear", 4, 2, SeededRng(0))
        values = [np.arange(4.0), np.arange(4.0)]
        _, y = featurize(Dataset(ids=[0, 1], values=values, labels=[1.0, 0.0]), model)
        assert y.dtype == np.int64 and y.tolist() == [1, 0]
        with pytest.raises(ValueError, match="whole numbers"):
            featurize(Dataset(ids=[0, 1], values=values, labels=[0.5, 1.0]), model)

    def test_rejects_empty_unlabeled_multivariate(self):
        model = make_model("linear", 4, 1, SeededRng(0))
        with pytest.raises(ValueError):
            featurize(Dataset(ids=[], values=np.empty((0, 4)), labels=[]), model)
        with pytest.raises(ValueError):
            featurize(Dataset(ids=[0], values=[np.arange(4.0)], labels=[np.nan]), model)
        with pytest.raises(ValueError):
            featurize(Dataset(ids=[0], values=np.zeros((1, 4, 2)), labels=[0.0]), model)


class TestGradients:
    def test_linear_mse_closed_form(self):
        model = make_model("linear", 3, 1, SeededRng(7))
        X = np.array([[1.0, -2.0, 0.5]])
        y = np.array([0.3])
        losses, grad = forward_backward(model, X, y)
        r = float(model.forward(X)[0, 0] - 0.3)
        assert losses[0] == pytest.approx(r * r, rel=1e-14)
        expect = np.concatenate([2.0 * r * X[0], [2.0 * r]])
        assert np.allclose(grad, expect, rtol=1e-13)

    def test_zero_residual_gives_zero_gradient(self):
        model = make_model("linear", 3, 1, SeededRng(7))
        X = np.array([[0.4, 1.0, -0.2]])
        y = model.forward(X)[:, 0]
        losses, grad = forward_backward(model, X, y)
        assert losses[0] == 0.0
        assert np.all(grad == 0.0)

    @pytest.mark.parametrize("kind,loss,n_out", [
        ("linear", "mse", 1),
        ("linear", "cross_entropy", 2),
        ("mlp", "mse", 1),
        ("mlp", "cross_entropy", 3),
        ("elman_rnn", "mse", 1),
        ("elman_rnn", "cross_entropy", 2),
    ])
    def test_per_sample_grads_match_finite_differences(self, kind, loss, n_out):
        rng = SeededRng(21)
        model = make_model(kind, 5, n_out, rng, hidden=(4,) if kind == "mlp" else 4)
        gen = rng.derive("fd").generator
        X = gen.standard_normal((6, 5))
        if loss == "mse":
            y = gen.standard_normal(6)
        else:
            y = gen.integers(0, n_out, 6).astype(np.int64)
        _, total_grad = forward_backward(model, X, y)
        for _ in range(25):
            d = gen.standard_normal(model.n_params)
            d /= np.linalg.norm(d)
            fd = directional_fd(model, X, y, d)
            an = float(total_grad @ d)
            assert fd == pytest.approx(an, rel=1e-4, abs=1e-7)
        # each one-hot row of the reference probes one sample's loss alone
        rows = per_sample_rows(model, X, y)
        for i in range(X.shape[0]):
            d = gen.standard_normal(model.n_params)
            d /= np.linalg.norm(d)
            fd = directional_fd(model, X[i:i + 1], y[i:i + 1], d)
            assert fd == pytest.approx(float(rows[i] @ d), rel=1e-4, abs=1e-7)

    def test_cross_entropy_accepts_float_coded_labels(self):
        model = make_model("linear", 4, 2, SeededRng(3))
        X = np.ones((2, 4))
        losses, _ = forward_backward(model, X, np.array([0.0, 1.0]))
        assert losses.shape == (2,) and np.all(losses > 0.0)

    def test_batch_validation(self):
        model = make_model("linear", 4, 1, SeededRng(3))
        with pytest.raises(ValueError):
            forward_backward(model, np.zeros((0, 4)), np.zeros(0))
        with pytest.raises(ValueError):
            forward_backward(model, np.zeros((2, 4)), np.zeros(3))


MODEL_KINDS = ("linear", "mlp", "elman_rnn")


def _small_model(kind, n_out, rng):
    return make_model(kind, 5, n_out, rng, hidden=(4, 3) if kind == "mlp" else 4)


class TestBackward:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("n_out", [1, 3])
    def test_backward_is_the_sum_of_per_sample_rows(self, kind, n_out):
        rng = SeededRng(31)
        model = _small_model(kind, n_out, rng)
        gen = rng.derive("batch").generator
        X = gen.standard_normal((7, 5))
        dout = gen.standard_normal((7, n_out))
        _, cache = model.forward_with_cache(X)
        total = model.backward(cache, dout)
        rows = model.per_sample_grads(cache, dout)
        assert total.shape == (model.n_params,)
        assert rows.shape == (7, model.n_params)
        scale = max(1.0, float(np.max(np.abs(total))))
        assert np.max(np.abs(total - rows.sum(axis=0))) <= 1e-12 * scale
        # row i is sample i's gradient from a batch of one
        for i in range(7):
            _, alone = model.forward_with_cache(X[i:i + 1])
            single = model.backward(alone, dout[i:i + 1])
            assert np.max(np.abs(rows[i] - single)) <= 1e-12 * scale

    @pytest.mark.parametrize("variant", [Variant.ADP, Variant.SIN])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_wrapped_step_is_the_kappa_weighted_mean_of_rows(self, variant, kind):
        rng = SeededRng(41)
        model = _small_model(kind, 1, rng)
        gen = rng.derive("batch").generator
        X = gen.standard_normal((16, 5))
        y = gen.standard_normal(16)
        losses, _ = forward_backward(model, X, y)
        if variant is Variant.ADP:
            cfg = CrucialConfig(Variant.ADP, lam=0.05)
            epoch, prev_losses = 3, losses
        else:
            cfg = CrucialConfig(Variant.SIN, lam=0.01, omega=0.37, phase=0.4)
            epoch, prev_losses = 2, None
        rows = per_sample_rows(model, X, y)
        before = model.params.copy()
        task = TaskSpec(1, 0.1, wrapper=cfg)
        mod = train_epoch(model, (X, y), task, epoch, prev_losses)
        if variant is Variant.SIN:
            gated = ~mod.selected
            assert 0 < np.count_nonzero(gated) < 16
            assert np.all(mod.kappa[gated] == 0.0)
        else:
            assert np.any(mod.kappa > 1.0) and np.any(mod.kappa < 1.0)
        expect = 0.1 * np.mean(mod.kappa[:, None] * rows, axis=0)
        step = before - model.params
        assert np.max(np.abs(step - expect)) <= 1e-12 * max(1.0, float(np.max(np.abs(expect))))


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestElmanInPlace:
    # Odd n is where a strided and a contiguous gemv give different bits.
    @pytest.mark.parametrize("n", [1, 7, 512, 599])
    @pytest.mark.parametrize("T", [1, 16, 33, 64])
    def test_same_bits_as_the_per_step_reference(self, n, T):
        for hidden in (1, 4, 8):
            for n_out in (1, 2):
                rng = SeededRng(derive_seed(0, f"elman/{n}/{T}/{hidden}/{n_out}"))
                model = make_model("elman_rnn", T, n_out, rng.derive("model"), hidden=hidden)
                model.params[:] = rng.derive("params").generator.uniform(-1.0, 1.0, model.n_params)
                gen = rng.derive("batch").generator
                X = gen.standard_normal((n, T))
                dout = gen.standard_normal((n, n_out))
                out, cache = model.forward_with_cache(X)
                ref_out, ref_cache = reference.elman_forward_with_cache(model, X)
                case = f"hidden={hidden}, outputs={n_out}"
                assert np.array_equal(bits(out), bits(ref_out)), case
                assert np.array_equal(bits(cache[1]), bits(ref_cache[1])), case
                assert np.array_equal(bits(model.backward(cache, dout)),
                                      bits(reference.elman_backward(model, ref_cache, dout))), case

    def test_backward_leaves_its_cache_untouched(self):
        rng = SeededRng(53)
        model = make_model("elman_rnn", 16, 2, rng.derive("model"), hidden=8)
        gen = rng.derive("batch").generator
        X = gen.standard_normal((33, 16))
        dout = gen.standard_normal((33, 2))
        _, cache = model.forward_with_cache(X)
        before = [a.tobytes() for a in cache]
        first = model.backward(cache, dout)
        assert [a.tobytes() for a in cache] == before
        assert np.array_equal(bits(model.backward(cache, dout)), bits(first))
        assert [a.tobytes() for a in cache] == before


def _column_sum_values(gen, n, cols):
    """(label, array) pairs: magnitudes 1e-13 to 1e13 of both signs, alone
    and with -0.0, subnormals and infinities mixed in."""
    wide = gen.choice([-1.0, 1.0], (n, cols)) * 10.0 ** gen.uniform(-13.0, 13.0, (n, cols))
    specials = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1e-308, np.inf, -np.inf])
    mixed = wide.copy()
    mask = gen.random((n, cols)) < 0.2
    mixed[mask] = gen.choice(specials, int(mask.sum()))
    tiny = gen.choice(specials[:5], (n, cols)) * gen.integers(1, 4, (n, cols))
    return [("wide", wide), ("specials", mixed), ("zeros_and_subnormals", tiny)]


class TestColumnSums:
    # Bias gradients go through _column_sums, and every output's last bits
    # depend on it summing exactly as sum(axis=0) does.  Unlike the golden
    # manifest this runs under every numpy version, so it names an einsum
    # whose summation order has changed.
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 63, 512, 599, 4096])
    @pytest.mark.parametrize("cols", [1, 2, 3, 8, 16])
    def test_same_bits_as_sum_over_axis_0(self, n, cols):
        gen = SeededRng(derive_seed(0, f"column-sums/{n}/{cols}")).generator
        for label, values in _column_sum_values(gen, n, cols):
            strided = np.empty((2 * n, 2 * cols))
            strided[::2, ::2] = values
            layouts = {
                "contiguous": values,
                "strided_view": strided[::2, ::2],
                "column_major": np.asfortranarray(values),
            }
            for layout, a in layouts.items():
                with np.errstate(invalid="ignore"):
                    got, want = _column_sums(a), a.sum(axis=0)
                assert np.array_equal(bits(got), bits(want)), f"{label}, {layout}"


class _FixedLogits:
    """Stands in for a model whose forward pass returns the given logits."""

    def __init__(self, out):
        self.out = out
        self.n_outputs = out.shape[1]

    def forward_with_cache(self, X):
        return self.out.copy(), None


class TestMlpAndCrossEntropyBits:
    @pytest.mark.parametrize("n", [1, 7, 512, 599])
    @pytest.mark.parametrize("hidden", [(), (8,), (4, 3)], ids=["linear", "h8", "h4_3"])
    @pytest.mark.parametrize("n_out", [1, 2, 3])
    def test_same_bits_as_the_reference(self, n, hidden, n_out):
        kind = "mlp" if hidden else "linear"
        rng = SeededRng(derive_seed(0, f"mlp/{n}/{hidden}/{n_out}"))
        model = make_model(kind, 5, n_out, rng.derive("model"), hidden=hidden)
        model.params[:] = rng.derive("params").generator.uniform(-2.0, 2.0, model.n_params)
        gen = rng.derive("batch").generator
        X = gen.standard_normal((n, 5))
        y = gen.standard_normal(n) if n_out == 1 else gen.integers(0, n_out, n)
        losses, dout, cache = _losses_and_dout(model, X, y)
        ref_losses, ref_dout, ref_cache = reference.losses_and_dout(model, X, y)
        assert np.array_equal(bits(losses), bits(ref_losses))
        assert np.array_equal(bits(dout), bits(ref_dout))
        assert np.array_equal(bits(model.backward(cache, dout)),
                              bits(reference.mlp_backward(model, ref_cache, ref_dout)))

    @pytest.mark.parametrize("rows", [
        [[1.5, 1.5], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [1e300, -1e300],
         [-1e300, 1e300], [-1e300, -1e300], [1e300, 1e300], [0.25, -3.0]],
        [[2.0, 2.0, 1.0], [1.0, 2.0, 2.0], [-0.0, 0.0, -0.0], [0.0, -0.0, -1.0],
         [1e300, -1e300, 1e300], [-1e300, -1e300, -1e300], [-1e300, 0.0, 1e300],
         [3.0, 3.0, 3.0]],
    ], ids=["two_outputs", "three_outputs"])
    def test_ties_signed_zeros_and_huge_logits(self, rows):
        out = np.array(rows)
        n, k = out.shape
        model = _FixedLogits(out)
        X = np.zeros((n, 1))
        for y in (np.zeros(n), np.arange(n) % k, np.full(n, k - 1)):
            losses, dout, _ = _losses_and_dout(model, X, y)
            ref_losses, ref_dout, _ = reference.losses_and_dout(model, X, y)
            assert np.array_equal(bits(losses), bits(ref_losses))
            assert np.array_equal(bits(dout), bits(ref_dout))


class TestLayout:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_fresh_keeps_class_kind_hidden_and_size(self, kind):
        model = _small_model(kind, 2, SeededRng(51))
        other = model.fresh(SeededRng(52))
        assert type(other) is type(model)
        assert (other.kind, other.hidden, other.n_params) == (model.kind, model.hidden, model.n_params)

    def test_linear_is_drawn_from_its_own_stream(self):
        rng = SeededRng(53)
        model = make_model("linear", 5, 2, rng, hidden=(4, 3))
        assert model.hidden == ()
        # fresh on make_model's seed gives the same bits; a plain MLPModel
        # (the "init/mlp" stream) would not
        assert model.fresh(rng).params.tobytes() == model.params.tobytes()
        w = rng.derive("init/linear").generator.uniform(-1 / math.sqrt(5), 1 / math.sqrt(5), (5, 2))
        assert model.params.tobytes() == np.concatenate([w.reshape(-1), np.zeros(2)]).tobytes()
        X = rng.derive("x").generator.standard_normal((4, 5))
        dout = rng.derive("dout").generator.standard_normal((4, 2))
        out, cache = model.forward_with_cache(X)
        assert out.tobytes() == (X @ w + 0.0).tobytes()
        expect = np.concatenate([(X.T @ dout).reshape(-1), dout.sum(axis=0)])
        assert model.backward(cache, dout).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("hidden", [(8, 16), ()], ids=["two_sizes", "no_size"])
    def test_the_rnn_refuses_any_other_count_of_hidden_sizes(self, hidden):
        with pytest.raises(ValueError, match="exactly one hidden size"):
            make_model("elman_rnn", 4, 1, SeededRng(55), hidden=hidden)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_blocks_are_views_of_params(self, kind):
        model = _small_model(kind, 2, SeededRng(54))
        blocks = model._blocks()
        assert np.concatenate([b.reshape(-1) for b in blocks]).tobytes() == model.params.tobytes()
        model.params *= -2.0
        assert np.concatenate([b.reshape(-1) for b in blocks]).tobytes() == model.params.tobytes()


class TestTaskSpec:
    def test_pairing_rules(self):
        with pytest.raises(ValueError):
            TaskSpec(0, 0.1)
        with pytest.raises(ValueError):
            TaskSpec(1, 0.0)

    def test_cycled_wrapper_angle_must_stay_finite(self):
        sin = CrucialConfig(Variant.SIN, omega=1e308)
        TaskSpec(2, 0.1, wrapper=sin)  # last angle 1e308
        with pytest.raises(ValueError, match="last angle"):
            TaskSpec(3, 0.1, wrapper=sin)
        with pytest.raises(ValueError, match="last angle"):  # -1e308 - 1e308
            TaskSpec(2, 0.1,
                     wrapper=CrucialConfig(Variant.SIN, omega=-1e308, phase=-1e308))
        TaskSpec(3, 0.1, wrapper=CrucialConfig(Variant.ADP, omega=1e308))


def train_collecting(model, ds, task):
    """Run train_model with an on_epoch collector; returns [(epoch, record)]."""
    seen = []
    train_model(model, ds, task, on_epoch=lambda epoch, mod: seen.append((epoch, mod)))
    return seen


def mean_raw_losses(seen):
    return [float(np.mean(mod.input_loss)) for _, mod in seen]


def confident_counts(seen):
    return [int(np.count_nonzero(mod.selected & (mod.kappa >= 1.0))) for _, mod in seen]


class TestTrainLoop:
    def _sine_setup(self, master=0):
        rng = SeededRng(master)
        ds = gen_sine_regression(64, 32, 0.1, rng.derive("data"))
        model = make_model("linear", 8, 1, rng.derive("model"))
        return ds, model

    def test_loss_decreases_on_regression(self):
        ds, model = self._sine_setup()
        task = TaskSpec(60, 0.1)
        seen = train_collecting(model, ds, task)
        losses = mean_raw_losses(seen)
        assert losses[-1] < 0.5 * losses[0]
        assert len(losses) == 60

    def test_inactive_wrapper_is_bit_exact_neutral(self):
        # a confidence curvature so large that every factor is exactly 1.0
        # must reproduce plain training to the last bit
        ds, model_a = self._sine_setup()
        _, model_b = self._sine_setup()
        assert np.array_equal(model_a.params, model_b.params)
        plain = TaskSpec(40, 0.1)
        inert = TaskSpec(40, 0.1,
                         wrapper=CrucialConfig(Variant.BASELINE, lam=1e300, threshold=0.0))
        seen_a = train_collecting(model_a, ds, plain)
        seen_b = train_collecting(model_b, ds, inert)
        assert np.array_equal(model_a.params, model_b.params)
        assert mean_raw_losses(seen_a) == mean_raw_losses(seen_b)

    def test_unwrapped_counts_report_whole_batch(self):
        ds, model = self._sine_setup()
        seen = train_collecting(model, ds, TaskSpec(3, 0.05))
        assert confident_counts(seen) == [64, 64, 64]

    def test_divergence_guard_trips(self):
        ds, model = self._sine_setup()
        task = TaskSpec(200, 50.0)
        with pytest.raises(TrainingDiverged):
            train_model(model, ds, task)

    def test_the_last_step_is_guarded_too(self):
        ds, model = self._sine_setup()
        with pytest.raises(TrainingDiverged, match="after epoch 0"):
            train_model(model, ds, TaskSpec(1, 1e305))

    def test_training_is_deterministic(self):
        ds, model_a = self._sine_setup(3)
        _, model_b = self._sine_setup(3)
        task = TaskSpec(20, 0.1,
                        wrapper=CrucialConfig(Variant.ADP, lam=0.01))
        seen_a = train_collecting(model_a, ds, task)
        seen_b = train_collecting(model_b, ds, task)
        assert mean_raw_losses(seen_a) == mean_raw_losses(seen_b)
        assert np.array_equal(model_a.params, model_b.params)

    def test_adaptive_selection_count_cycles_on_classification(self):
        # the adaptive threshold tracks skewness, so the confident-set size
        # rises and falls instead of saturating
        rng = SeededRng(123)
        ds = gen_drift_classification(512, 64, 1.0, 0.0, rng.derive("data/train"),
                                      class_sep=1.2)
        model = make_model("mlp", 16, 2, rng.derive("model"), hidden=(8,))
        task = TaskSpec(40, 1.0,
                        wrapper=CrucialConfig(Variant.ADP, lam=0.001))
        counts = confident_counts(train_collecting(model, ds, task))
        assert len(set(counts)) > 1
        assert local_maxima(counts) >= 3


class TestOnEpoch:
    """on_epoch is the only view of an epoch: when it is called and with what."""

    def _setup(self, master=5):
        rng = SeededRng(master)
        ds = gen_sine_regression(48, 24, 0.1, rng.derive("data"))
        return ds, make_model("mlp", 8, 1, rng.derive("model"), hidden=(4,))

    def test_one_call_per_epoch_in_order_with_train_epochs_record(self, monkeypatch):
        returned = []

        def spying_train_epoch(*args):
            record = train_epoch(*args)
            returned.append(record)
            return record

        monkeypatch.setattr(trainer, "train_epoch", spying_train_epoch)
        ds, model = self._setup()
        task = TaskSpec(7, 0.1, wrapper=CrucialConfig(Variant.ADP, lam=0.01))
        seen = train_collecting(model, ds, task)
        assert [epoch for epoch, _ in seen] == list(range(7))
        assert len(returned) == 7
        assert all(mod is record for (_, mod), record in zip(seen, returned))

    @pytest.mark.parametrize("wrapper", [
        None,
        CrucialConfig(Variant.ADP, lam=0.01),
        CrucialConfig(Variant.SIN, lam=0.01, omega=0.7),
    ])
    def test_input_loss_is_the_loss_before_the_step(self, wrapper):
        ds, model = self._setup()
        before = [model.params.copy()]
        seen = []

        def on_epoch(epoch, mod):
            seen.append(mod)
            before.append(model.params.copy())

        train_model(model, ds, TaskSpec(5, 0.2, wrapper=wrapper),
                    on_epoch=on_epoch)
        assert len(seen) == 5
        X, y = featurize(ds, model)
        for params, mod in zip(before, seen):
            model.params = params
            assert np.array_equal(mod.input_loss, forward_backward(model, X, y)[0])
        # each epoch stepped, so consecutive records differ
        assert not np.array_equal(seen[0].input_loss, seen[-1].input_loss)

    def test_the_final_guard_makes_no_call(self):
        ds, model = self._setup()
        seen = []
        with pytest.raises(TrainingDiverged, match="after epoch 0"):
            train_model(model, ds, TaskSpec(1, 1e305),
                        on_epoch=lambda epoch, mod: seen.append(epoch))
        assert seen == [0]

    def test_a_diverging_epoch_is_not_seen(self):
        ds, model = self._setup()
        seen = []
        with pytest.raises(TrainingDiverged, match=r"at epoch \d+") as info:
            train_model(model, ds, TaskSpec(200, 50.0),
                        on_epoch=lambda epoch, mod: seen.append(epoch))
        t = int(str(info.value).rsplit(" ", 1)[-1])
        assert t >= 1
        assert seen == list(range(t))

    def test_adp_weighs_each_epoch_against_the_previous_records_losses(self):
        # Epoch t >= 1 is weighed against advance_epoch_adp of epoch t-1's raw
        # losses and epoch 0 against 0.0, on every train_model call: a second
        # call on the same model, as in a continuous stage, starts afresh.
        ds, model = self._setup()
        task = TaskSpec(6, 0.1, wrapper=CrucialConfig(Variant.ADP, lam=0.01))
        for _ in range(2):
            seen = train_collecting(model, ds, task)
            assert [epoch for epoch, _ in seen] == list(range(6))
            expect = [0.0] + [advance_epoch_adp(mod.input_loss) for _, mod in seen[:-1]]
            assert all(threshold != 0.0 for threshold in expect[1:])
            for (_, mod), threshold in zip(seen, expect):
                assert np.array_equal(bits(mod.threshold),
                                      bits(np.full(mod.input_loss.size, threshold)))

    def test_sin_records_are_the_cycle_at_their_epoch(self):
        ds, model = self._setup()
        cfg = CrucialConfig(Variant.SIN, lam=0.01, omega=0.7, phase=0.3)
        seen = train_collecting(model, ds, TaskSpec(9, 0.1, wrapper=cfg))
        assert [epoch for epoch, _ in seen] == list(range(9))
        for t, mod in seen:
            ref = modulate_epoch(mod.input_loss, cfg, t)
            for f in fields(ModulatedLoss):
                assert getattr(mod, f.name).tobytes() == getattr(ref, f.name).tobytes(), (t, f)


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
        m = evaluate(model, ds)
        X, y = featurize(ds, model)
        manual = float(np.mean((model.forward(X)[:, 0] - y) ** 2))
        assert m == {"mse": pytest.approx(manual, rel=1e-14)}

    def test_binary_classification_reports_accuracy_and_auc(self):
        ds = gen_drift_classification(64, 16, 0.0, 0.0, SeededRng(2))
        model = make_model("linear", 8, 2, SeededRng(2))
        m = evaluate(model, ds)
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
        with pytest.raises(ValueError, match="at least 2 stages"):
            TransferMatrix(R=np.ones((1, 1)), baseline=np.ones(1), baseline_seed=0)

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
            task = TaskSpec(15, 0.1)
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
        task = TaskSpec(2, 0.1)
        with pytest.raises(ValueError):
            run_continuous(model, [], task, rng)
        with pytest.raises(ValueError):
            run_continuous(model, [prefixes[1], prefixes[0]], task, rng)

    def test_run_continuous_refuses_one_prefix_before_training(self):
        rng = SeededRng(5)
        ds = gen_drift_classification(32, 16, 0.0, 0.0, rng.derive("data"))
        model = make_model("linear", 8, 2, rng.derive("model"))
        before = model.params.copy()
        with pytest.raises(ValueError, match="at least 2 prefixes"):
            run_continuous(model, make_prefixes(ds, [8]), TaskSpec(2, 0.1), rng)
        assert model.params.tobytes() == before.tobytes()


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

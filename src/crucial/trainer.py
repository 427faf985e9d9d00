"""Desk-scale models and training loops for the three task shapes.

Three small numpy models (linear, tanh MLP, Elman recurrent) expose a flat
parameter vector and per-sample gradient contributions, so the confidence
wrapper can scale each sample's gradient by its factor before the full-batch
descent step:

    w  <-  w - eta * mean_i( factor_i * dl_i/dw )

With no wrapper the factors are identically 1.0 and the epoch is a plain
gradient-descent epoch, bit for bit.  The continuous task trains one model
sequentially over nested prefix datasets and fills the transfer matrix R
(R[i, j] = score on prefix j after stage i) from which backward and forward
transfer are computed.

Batch forward/backward is vectorized across samples; the gradient reduction
is a fixed-order numpy mean, so runs are deterministic for a given seed
regardless of thread count.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, PrefixDataset, TimeSeriesSample
from .loss import (
    CrucialConfig,
    EpochState,
    ModulatedLoss,
    Variant,
    advance_epoch_adp,
    initial_epoch_state,
    modulate_epoch,
)
from .numerics import SeededRng

__all__ = [
    "DIVERGENCE_LIMIT",
    "ElmanRNN",
    "LinearModel",
    "MLPModel",
    "Model",
    "TaskSpec",
    "TrainResult",
    "TrainingDiverged",
    "TransferMatrix",
    "auc_roc",
    "bwt",
    "evaluate",
    "featurize",
    "forward_backward",
    "fwt",
    "make_model",
    "run_continuous",
    "train_epoch",
    "train_model",
    "write_metrics_csv",
    "write_transfer_json",
]

DIVERGENCE_LIMIT = 1e6


class TrainingDiverged(RuntimeError):
    """Raised when the mean raw loss exceeds the divergence guard."""


class Model:
    """Base for the desk-scale zoo: flat parameter vector, deterministic forward.

    Subclasses implement forward_with_cache/per_sample_grads; ``params`` is
    the single flat float64 vector the trainer updates in place.
    """

    kind: str = "base"

    def __init__(self, window: int, n_outputs: int):
        if window < 1 or n_outputs < 1:
            raise ValueError("Model: window and n_outputs must be positive")
        self.window = window
        self.n_outputs = n_outputs
        self.params = np.zeros(0, dtype=np.float64)

    @property
    def n_params(self) -> int:
        return int(self.params.size)

    def forward(self, X: np.ndarray) -> np.ndarray:
        return self.forward_with_cache(X)[0]

    def forward_with_cache(self, X: np.ndarray):
        raise NotImplementedError

    def per_sample_grads(self, cache, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def fresh(self, rng: SeededRng) -> "Model":
        """A new model of the same architecture with freshly drawn parameters."""
        raise NotImplementedError


class LinearModel(Model):
    """Affine map from the last ``window`` values to the outputs."""

    kind = "linear"

    def __init__(self, window: int, n_outputs: int, rng: SeededRng):
        super().__init__(window, n_outputs)
        gen = rng.derive("init/linear").generator
        scale = 1.0 / math.sqrt(window)
        w = gen.uniform(-scale, scale, (window, n_outputs))
        b = np.zeros(n_outputs)
        self.params = np.concatenate([w.reshape(-1), b])

    def _unpack(self):
        f, c = self.window, self.n_outputs
        w = self.params[: f * c].reshape(f, c)
        b = self.params[f * c:]
        return w, b

    def forward_with_cache(self, X: np.ndarray):
        w, b = self._unpack()
        return X @ w + b, X

    def per_sample_grads(self, cache, dout: np.ndarray) -> np.ndarray:
        X = cache
        gw = np.einsum("nf,nc->nfc", X, dout).reshape(X.shape[0], -1)
        return np.concatenate([gw, dout], axis=1)

    def fresh(self, rng: SeededRng) -> "LinearModel":
        return LinearModel(self.window, self.n_outputs, rng)


class MLPModel(Model):
    """Feed-forward net with tanh hidden layers on the last ``window`` values."""

    kind = "mlp"

    def __init__(self, window: int, n_outputs: int, rng: SeededRng,
                 hidden: tuple[int, ...] = (8,)):
        super().__init__(window, n_outputs)
        if not hidden or any(h < 1 for h in hidden):
            raise ValueError("MLPModel: hidden sizes must be positive")
        self.hidden = tuple(int(h) for h in hidden)
        gen = rng.derive("init/mlp").generator
        dims = [window, *self.hidden, n_outputs]
        chunks = []
        self._shapes = []
        for fan_in, fan_out in zip(dims, dims[1:]):
            scale = 1.0 / math.sqrt(fan_in)
            chunks.append(gen.uniform(-scale, scale, (fan_in, fan_out)).reshape(-1))
            chunks.append(np.zeros(fan_out))
            self._shapes.append((fan_in, fan_out))
        self.params = np.concatenate(chunks)

    def _unpack(self):
        mats = []
        off = 0
        for fan_in, fan_out in self._shapes:
            w = self.params[off: off + fan_in * fan_out].reshape(fan_in, fan_out)
            off += fan_in * fan_out
            b = self.params[off: off + fan_out]
            off += fan_out
            mats.append((w, b))
        return mats

    def forward_with_cache(self, X: np.ndarray):
        mats = self._unpack()
        acts = [X]
        h = X
        for w, b in mats[:-1]:
            h = np.tanh(h @ w + b)
            acts.append(h)
        w, b = mats[-1]
        out = h @ w + b
        return out, (mats, acts)

    def per_sample_grads(self, cache, dout: np.ndarray) -> np.ndarray:
        mats, acts = cache
        n = dout.shape[0]
        grads = [None] * len(mats)
        delta = dout
        for layer in range(len(mats) - 1, -1, -1):
            a_in = acts[layer]
            gw = np.einsum("nf,nc->nfc", a_in, delta).reshape(n, -1)
            grads[layer] = np.concatenate([gw, delta], axis=1)
            if layer > 0:
                w, _ = mats[layer]
                delta = (delta @ w.T) * (1.0 - acts[layer] ** 2)
        return np.concatenate(grads, axis=1)

    def fresh(self, rng: SeededRng) -> "MLPModel":
        return MLPModel(self.window, self.n_outputs, rng, self.hidden)


class ElmanRNN(Model):
    """Single-layer Elman recurrence read out from the final hidden state.

    Consumes the whole series (no windowing): h_t = tanh(x_t * w_xh +
    h_{t-1} W_hh + b_h), output from h_T.  Backpropagation through time is
    exact and per-sample.
    """

    kind = "elman_rnn"

    def __init__(self, window: int, n_outputs: int, rng: SeededRng, hidden: int = 8):
        super().__init__(window, n_outputs)
        if hidden < 1:
            raise ValueError("ElmanRNN: hidden size must be positive")
        self.hidden_size = int(hidden)
        gen = rng.derive("init/elman_rnn").generator
        h = self.hidden_size
        w_xh = gen.uniform(-1.0, 1.0, h)
        w_hh = gen.uniform(-0.5, 0.5, (h, h)) / math.sqrt(h)
        b_h = np.zeros(h)
        w_ho = gen.uniform(-1.0, 1.0, (h, n_outputs)) / math.sqrt(h)
        b_o = np.zeros(n_outputs)
        self.params = np.concatenate(
            [w_xh, w_hh.reshape(-1), b_h, w_ho.reshape(-1), b_o]
        )

    def _unpack(self):
        h, c = self.hidden_size, self.n_outputs
        off = 0
        w_xh = self.params[off: off + h]; off += h
        w_hh = self.params[off: off + h * h].reshape(h, h); off += h * h
        b_h = self.params[off: off + h]; off += h
        w_ho = self.params[off: off + h * c].reshape(h, c); off += h * c
        b_o = self.params[off: off + c]
        return w_xh, w_hh, b_h, w_ho, b_o

    def forward_with_cache(self, X: np.ndarray):
        if X.ndim != 2:
            raise ValueError("ElmanRNN: expects (n_samples, T) input")
        w_xh, w_hh, b_h, w_ho, b_o = self._unpack()
        n, T = X.shape
        hs = np.zeros((T + 1, n, self.hidden_size))
        for t in range(T):
            hs[t + 1] = np.tanh(
                X[:, t][:, None] * w_xh[None, :] + hs[t] @ w_hh + b_h
            )
        out = hs[T] @ w_ho + b_o
        return out, (X, hs)

    def per_sample_grads(self, cache, dout: np.ndarray) -> np.ndarray:
        X, hs = cache
        w_xh, w_hh, b_h, w_ho, b_o = self._unpack()
        n, T = X.shape
        h = self.hidden_size
        g_xh = np.zeros((n, h))
        g_hh = np.zeros((n, h, h))
        g_bh = np.zeros((n, h))
        g_ho = np.einsum("nh,nc->nhc", hs[T], dout)
        g_bo = dout
        dh = dout @ w_ho.T
        for t in range(T - 1, -1, -1):
            dpre = dh * (1.0 - hs[t + 1] ** 2)
            g_xh += X[:, t][:, None] * dpre
            g_bh += dpre
            g_hh += np.einsum("nh,nk->nhk", hs[t], dpre)
            dh = dpre @ w_hh.T
        return np.concatenate(
            [g_xh, g_hh.reshape(n, -1), g_bh, g_ho.reshape(n, -1), g_bo], axis=1
        )

    def fresh(self, rng: SeededRng) -> "ElmanRNN":
        return ElmanRNN(self.window, self.n_outputs, rng, self.hidden_size)


def make_model(kind: str, window: int, n_outputs: int, rng: SeededRng,
               hidden=(8,)) -> Model:
    """Factory over the model zoo; hidden applies to mlp (tuple) and rnn (int)."""
    if kind == "linear":
        return LinearModel(window, n_outputs, rng)
    if kind == "mlp":
        hid = tuple(hidden) if not isinstance(hidden, int) else (hidden,)
        return MLPModel(window, n_outputs, rng, hid)
    if kind == "elman_rnn":
        hid = hidden[0] if isinstance(hidden, (tuple, list)) else int(hidden)
        return ElmanRNN(window, n_outputs, rng, hid)
    raise ValueError(f"make_model: unknown kind {kind!r}")


@dataclass(frozen=True)
class TaskSpec:
    """One training job: task shape, base loss, budget, optional wrapper.

    Regression pairs with MSE; both classification shapes pair with
    cross-entropy.  The wrapper, when present, scales per-sample gradients
    by its confidence factors.
    """

    task: str                        # regression | single_shot | continuous
    base_loss: str                   # mse | cross_entropy
    epochs: int
    learning_rate: float
    wrapper: CrucialConfig | None = None

    def __post_init__(self) -> None:
        if self.task not in ("regression", "single_shot", "continuous"):
            raise ValueError(f"TaskSpec: unknown task {self.task!r}")
        if self.base_loss not in ("mse", "cross_entropy"):
            raise ValueError(f"TaskSpec: unknown base_loss {self.base_loss!r}")
        if self.task == "regression" and self.base_loss != "mse":
            raise ValueError("TaskSpec: regression pairs with mse")
        if self.task != "regression" and self.base_loss != "cross_entropy":
            raise ValueError("TaskSpec: classification pairs with cross_entropy")
        if self.epochs < 1:
            raise ValueError("TaskSpec: epochs must be >= 1")
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0.0:
            raise ValueError("TaskSpec: learning_rate must be finite and > 0")


def featurize(samples: list[TimeSeriesSample], model: Model):
    """Build the model's input matrix X and target vector y.

    Window models read the last ``window`` values (zero-padded on the left
    when the series is shorter); the recurrent model reads whole series and
    requires a uniform length.  Multivariate input is out of the zoo's
    scope; use dimension 1.
    """
    if not samples:
        raise ValueError("featurize: empty sample list")
    if any(s.values.ndim != 1 for s in samples):
        raise ValueError("featurize: model zoo expects univariate series")
    if isinstance(model, ElmanRNN):
        T = samples[0].length
        if any(s.length != T for s in samples):
            raise ValueError("featurize: recurrent model needs uniform lengths")
        X = np.stack([s.values for s in samples]).astype(np.float64)
    else:
        w = model.window
        X = np.zeros((len(samples), w), dtype=np.float64)
        for i, s in enumerate(samples):
            k = min(w, s.length)
            X[i, w - k:] = s.values[s.length - k:]
    labels = [s.label for s in samples]
    if any(l is None for l in labels):
        raise ValueError("featurize: all samples must be labeled for training")
    if model.n_outputs == 1:
        y = np.array([float(l) for l in labels], dtype=np.float64)
    else:
        y = np.array([int(l) for l in labels], dtype=np.int64)
        if y.min() < 0 or y.max() >= model.n_outputs:
            raise ValueError("featurize: class label out of range")
    return X, y


def forward_backward(model: Model, X: np.ndarray, y: np.ndarray, base_loss: str):
    """Per-sample losses l_i and per-sample gradients dl_i/dw.

    MSE uses l = (yhat - y)^2 (so the linear single-sample gradient is
    2*(yhat - y)*x); cross-entropy is softmax negative log-likelihood.
    Returns (losses shaped (n,), grads shaped (n, n_params)).
    """
    if X.shape[0] == 0:
        raise ValueError("forward_backward: empty batch")
    if X.shape[0] != y.shape[0]:
        raise ValueError("forward_backward: X and y disagree on batch size")
    out, cache = model.forward_with_cache(X)
    if base_loss == "mse":
        if model.n_outputs != 1:
            raise ValueError("forward_backward: mse expects a single output")
        r = out[:, 0] - y
        losses = r * r
        dout = (2.0 * r)[:, None]
    elif base_loss == "cross_entropy":
        z = out - np.max(out, axis=1, keepdims=True)
        ez = np.exp(z)
        p = ez / np.sum(ez, axis=1, keepdims=True)
        idx = np.arange(X.shape[0])
        cls = y.astype(np.intp)
        losses = -np.log(np.maximum(p[idx, cls], 1e-300))
        dout = p.copy()
        dout[idx, cls] -= 1.0
    else:
        raise ValueError(f"forward_backward: unknown base_loss {base_loss!r}")
    grads = model.per_sample_grads(cache, dout)
    return losses, grads


def train_epoch(model: Model, data, task: TaskSpec, state: EpochState):
    """One full-batch epoch; returns (model, the epoch's ModulatedLoss record).

    data is the (X, y) pair from featurize.  Per-sample gradients are
    scaled by each sample's confidence factor kappa and averaged in fixed
    order; a mean raw loss above DIVERGENCE_LIMIT aborts before the update.
    """
    X, y = data
    losses, grads = forward_backward(model, X, y, task.base_loss)
    mean_loss = float(np.mean(losses))
    if not math.isfinite(mean_loss) or mean_loss > DIVERGENCE_LIMIT:
        raise TrainingDiverged(
            f"mean loss {mean_loss:.3e} beyond guard {DIVERGENCE_LIMIT:.0e} "
            f"at epoch {state.epoch_index}"
        )
    mod = modulate_epoch(losses, state, task.wrapper)
    step = np.mean(mod.kappa[:, None] * grads, axis=0)
    model.params -= task.learning_rate * step
    return model, mod


def _advance_state(state: EpochState, raw_losses: np.ndarray, task: TaskSpec) -> EpochState:
    nxt = state.epoch_index + 1
    cfg = task.wrapper
    if cfg is not None and cfg.variant is Variant.ADP:
        return advance_epoch_adp(raw_losses, cfg, nxt)
    return EpochState(epoch_index=nxt, threshold=0.0)


@dataclass
class TrainResult:
    """Outcome of train_model: final model plus per-epoch diagnostics.

    kappa_ge1_counts are the confident-set sizes (selected samples with
    kappa >= 1); traces holds each epoch's ModulatedLoss when kept.
    """

    model: Model
    epoch_mean_losses: list[float]
    kappa_ge1_counts: list[int]
    traces: list[ModulatedLoss] = field(repr=False, default_factory=list)
    final_state: EpochState | None = None


def train_model(model: Model, samples: list[TimeSeriesSample], task: TaskSpec,
                *, keep_traces: bool = False,
                initial_state: EpochState | None = None) -> TrainResult:
    """Train for task.epochs full-batch epochs on one sample list."""
    data = featurize(samples, model)
    state = initial_state if initial_state is not None else initial_epoch_state()
    mean_losses: list[float] = []
    counts: list[int] = []
    traces: list[ModulatedLoss] = []
    for _ in range(task.epochs):
        model, mod = train_epoch(model, data, task, state)
        mean_losses.append(float(np.mean(mod.input_loss)))
        counts.append(int(np.count_nonzero(mod.selected & (mod.kappa >= 1.0))))
        if keep_traces:
            traces.append(mod)
        state = _advance_state(state, mod.input_loss, task)
    return TrainResult(
        model=model,
        epoch_mean_losses=mean_losses,
        kappa_ge1_counts=counts,
        traces=traces,
        final_state=state,
    )


def auc_roc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve by the rank statistic (midranks on ties)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(np.sum(pos))
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc_roc: need both classes present")
    # A tie group ending at 1-based rank e with c members has midrank e - (c - 1)/2.
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    midranks = np.cumsum(counts) - 0.5 * (counts - 1)
    rank_sum = float(np.sum(midranks[group][pos]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate(model: Model, samples: list[TimeSeriesSample], task: TaskSpec) -> dict:
    """Fixed evaluation metrics: mse for regression; accuracy (+ auc when
    binary) for classification."""
    X, y = featurize(samples, model)
    out = model.forward(X)
    if task.base_loss == "mse":
        r = out[:, 0] - y
        return {"mse": float(np.mean(r * r))}
    pred = np.argmax(out, axis=1)
    metrics = {"accuracy": float(np.mean(pred == y))}
    classes = set(int(v) for v in np.unique(y))
    if classes == {0, 1} and model.n_outputs == 2:
        metrics["auc"] = auc_roc(out[:, 1] - out[:, 0], y)
    return metrics


def _continuous_score(model: Model, samples, task: TaskSpec) -> float:
    """Transfer-matrix entry: AUC for binary labels, accuracy otherwise."""
    m = evaluate(model, samples, task)
    return m["auc"] if "auc" in m else m["accuracy"]


@dataclass
class TransferMatrix:
    """Continuous-task outcome: R[i, j] = score on prefix j after stage i.

    baseline holds the untrained reference scores b from a freshly seeded
    model; baseline_seed records the extra seed that model used.
    """

    R: np.ndarray
    baseline: np.ndarray
    baseline_seed: int

    def __post_init__(self) -> None:
        self.R = np.asarray(self.R, dtype=np.float64)
        self.baseline = np.asarray(self.baseline, dtype=np.float64)
        if self.R.ndim != 2 or self.R.shape[0] != self.R.shape[1]:
            raise ValueError("TransferMatrix: R must be square")
        if self.baseline.shape != (self.R.shape[0],):
            raise ValueError("TransferMatrix: baseline length must match R")


def bwt(tm: TransferMatrix) -> float:
    """Backward transfer: mean of final-row score minus own-stage score.

    bwt = sum_{i=1}^{K-1} (R[K, i] - R[i, i]) / (K - 1) in 1-based terms;
    positive means later stages improved earlier prefixes.
    """
    k = tm.R.shape[0]
    if k < 2:
        raise ValueError("bwt: needs at least 2 stages")
    return float(sum(tm.R[k - 1, i] - tm.R[i, i] for i in range(k - 1)) / (k - 1))


def fwt(tm: TransferMatrix) -> float:
    """Forward transfer: mean of pre-stage score minus untrained baseline.

    fwt = sum_{i=2}^{K} (R[i-1, i] - b[i]) / (K - 1) in 1-based terms.
    """
    k = tm.R.shape[0]
    if k < 2:
        raise ValueError("fwt: needs at least 2 stages")
    return float(
        sum(tm.R[i - 1, i] - tm.baseline[i] for i in range(1, k)) / (k - 1)
    )


def run_continuous(model: Model, prefixes: list[PrefixDataset], task: TaskSpec,
                   rng: SeededRng) -> TransferMatrix:
    """Train sequentially over nested prefixes and fill the transfer matrix.

    After each stage the model is scored on every prefix (row i of R).  The
    untrained baseline row comes from a fresh model drawn with one extra
    derived seed, recorded on the result.  Adaptive wrapper statistics
    reset at each stage unless the wrapper sets accumulate_stats.
    """
    if not prefixes:
        raise ValueError("run_continuous: no prefixes")
    ts = [p.t for p in prefixes]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("run_continuous: prefixes must be strictly nested in time")
    k = len(prefixes)
    baseline_rng = rng.derive("baseline-model")
    fresh = model.fresh(baseline_rng)
    baseline = np.array(
        [_continuous_score(fresh, p.samples, task) for p in prefixes]
    )
    R = np.zeros((k, k))
    state: EpochState | None = None
    for i, prefix in enumerate(prefixes):
        carry = (
            state
            if (task.wrapper is not None and task.wrapper.accumulate_stats)
            else None
        )
        result = train_model(model, prefix.samples, task, initial_state=carry)
        model = result.model
        state = result.final_state
        for j, other in enumerate(prefixes):
            R[i, j] = _continuous_score(model, other.samples, task)
    return TransferMatrix(R=R, baseline=baseline, baseline_seed=baseline_rng.seed)


def write_metrics_csv(path, rows) -> None:
    """Write metric rows (run_id, seed, epoch, split, metric_name, value)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id", "seed", "epoch", "split", "metric_name", "value"])
        for run_id, seed, epoch, split, name, value in rows:
            writer.writerow([run_id, seed, epoch, split, name, repr(float(value))])


def write_transfer_json(path, tm: TransferMatrix) -> None:
    """Write {R, baseline, bwt, fwt} (plus the recorded baseline seed)."""
    payload = {
        "R": [[float(v) for v in row] for row in tm.R],
        "baseline": [float(v) for v in tm.baseline],
        "bwt": bwt(tm),
        "fwt": fwt(tm),
        "baseline_seed": int(tm.baseline_seed),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

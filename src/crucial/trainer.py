"""Desk-scale models and task-agnostic training loops.

Three small numpy models (tanh MLP, linear = the MLP with no hidden layer,
Elman recurrent) share one flat parameter layout and a summed backward pass:
``backward(cache, dout)`` is the gradient of sum_i dout_i . out_i.  kappa_i
is a detached per-sample weight (envelope theorem), so the full-batch step

    w  <-  w - eta * mean_i( kappa_i * dl_i/dw )

is one ordinary backward pass with each row of dl/dout scaled by kappa_i / n;
no per-sample gradient is formed.  With no wrapper the factors are
identically 1.0 and the epoch is a plain gradient-descent epoch, bit for
bit.  run_continuous trains one model sequentially over nested prefix
datasets and fills the transfer matrix R (R[i, j] = score on prefix j after
stage i) from which backward and forward transfer are computed.

Batch forward/backward is vectorized across samples.  The weight gradients
reduce over samples by matrix products and the bias gradients by
``_column_sums``, which gives ``sum(axis=0)``'s bits: numpy adds the rows of
a row-major array with two or more columns in sequence, and sums a single
column pairwise.  So a given seed gives the same bits on the same machine,
numpy and BLAS build.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .loss import CrucialConfig, ModulatedLoss, Variant, modulate_epoch
from .numerics import SeededRng

__all__ = [
    "DIVERGENCE_LIMIT",
    "ElmanRNN",
    "LinearModel",
    "MLPModel",
    "Model",
    "TaskSpec",
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


def _column_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=0) of a 2-D array, bit for bit, without one call per row.

    When a has two or more columns and its rows lie farther apart in memory
    than its columns (any row-major array), sum(axis=0) runs one inner-loop
    call per row and adds the rows in sequence; einsum adds them in the same
    sequence in one call (2.4 against 6.2 us at 512 x 2 on a 2-core VM).
    Otherwise sum runs down each column and adds it pairwise, which einsum
    does not.
    """
    if a.shape[1] > 1 and abs(a.strides[1]) < abs(a.strides[0]):
        return np.einsum("ij->j", a)
    return a.sum(axis=0)


class Model:
    """Base for the desk-scale zoo: flat parameter vector, deterministic forward.

    A subclass draws its parameter blocks once and passes them, in order, to
    ``_set_blocks``, which lays them out as ``params``, the flat float64
    vector the trainer updates in place.  ``_blocks`` views params as those
    blocks; backward ``_flatten``s its gradient blocks in the same order.
    Subclasses set ``hidden`` and implement forward_with_cache and backward.
    """

    kind: str = "base"

    def __init__(self, window: int, n_outputs: int):
        if window < 1 or n_outputs < 1:
            raise ValueError("Model: window and n_outputs must be positive")
        self.window = window
        self.n_outputs = n_outputs

    @staticmethod
    def _flatten(blocks: list[np.ndarray]) -> np.ndarray:
        return np.concatenate([block.ravel() for block in blocks])

    def _set_blocks(self, blocks: list[np.ndarray]) -> None:
        """Record each block's (start, stop, shape) and lay the blocks out as params."""
        stops = np.cumsum([block.size for block in blocks]).tolist()
        self._layout = [(stop - b.size, stop, b.shape) for stop, b in zip(stops, blocks)]
        self.params = self._flatten(blocks)

    def _blocks(self) -> list[np.ndarray]:
        """Views of params reshaped into the blocks, in order."""
        return [self.params[start:stop].reshape(shape) for start, stop, shape in self._layout]

    @property
    def n_params(self) -> int:
        return int(self.params.size)

    def forward(self, X: np.ndarray) -> np.ndarray:
        return self.forward_with_cache(X)[0]

    def forward_with_cache(self, X: np.ndarray):
        raise NotImplementedError

    def backward(self, cache, dout: np.ndarray) -> np.ndarray:
        """Gradient of sum_i dout_i . out_i with respect to params, (n_params,)."""
        raise NotImplementedError

    def per_sample_grads(self, cache, dout: np.ndarray) -> np.ndarray:
        """Reference (n, n_params) rows: row i is backward on dout's i-th row
        alone, so the rows sum to backward(cache, dout).  Costs n backward
        passes; the training path never calls it."""
        onehot = np.eye(dout.shape[0])[:, :, None]
        return np.stack([self.backward(cache, dout * rows) for rows in onehot])

    def fresh(self, rng: SeededRng) -> "Model":
        """A new model of the same architecture with freshly drawn parameters."""
        return type(self)(self.window, self.n_outputs, rng, self.hidden)


class MLPModel(Model):
    """Feed-forward net with tanh hidden layers on the last ``window`` values."""

    kind = "mlp"

    def __init__(self, window: int, n_outputs: int, rng: SeededRng,
                 hidden: tuple[int, ...] = (8,)):
        super().__init__(window, n_outputs)
        self.hidden = self._hidden_layers(hidden)
        gen = rng.derive(f"init/{self.kind}").generator
        dims = [window, *self.hidden, n_outputs]
        blocks = []
        for fan_in, fan_out in zip(dims, dims[1:]):
            scale = 1.0 / math.sqrt(fan_in)
            blocks += [gen.uniform(-scale, scale, (fan_in, fan_out)), np.zeros(fan_out)]
        self._set_blocks(blocks)

    @staticmethod
    def _hidden_layers(hidden) -> tuple[int, ...]:
        hidden = (hidden,) if isinstance(hidden, int) else tuple(int(h) for h in hidden)
        if not hidden or any(h < 1 for h in hidden):
            raise ValueError("MLPModel: hidden sizes must be positive")
        return hidden

    def forward_with_cache(self, X: np.ndarray):
        blocks = self._blocks()
        acts = [X]
        for w, b in zip(blocks[:-2:2], blocks[1:-2:2]):
            acts.append(np.tanh(acts[-1] @ w + b))
        return acts[-1] @ blocks[-2] + blocks[-1], (blocks, acts)

    def backward(self, cache, dout: np.ndarray) -> np.ndarray:
        blocks, acts = cache
        grads = []
        delta = dout
        for layer in range(len(acts) - 1, -1, -1):
            grads += [_column_sums(delta), acts[layer].T @ delta]
            if layer > 0:
                delta = (delta @ blocks[2 * layer].T) * (1.0 - acts[layer] ** 2)
        return self._flatten(grads[::-1])


class LinearModel(MLPModel):
    """Affine map X @ w + b from the last ``window`` values: the MLP with no
    hidden layer, drawn from its own "init/linear" substream."""

    kind = "linear"

    @staticmethod
    def _hidden_layers(hidden) -> tuple[int, ...]:
        return ()


class ElmanRNN(Model):
    """Single-layer Elman recurrence read out from the final hidden state.

    Consumes the whole series (no windowing): h_t = tanh(x_t * w_xh +
    h_{t-1} W_hh + b_h), output from h_T.  Backpropagation through time is
    exact and summed over samples: each step adds one (h, h) product to the
    W_hh gradient.
    """

    kind = "elman_rnn"

    def __init__(self, window: int, n_outputs: int, rng: SeededRng, hidden=8):
        super().__init__(window, n_outputs)
        sizes = tuple(hidden) if isinstance(hidden, (tuple, list)) else (hidden,)
        if len(sizes) != 1:
            raise ValueError(f"ElmanRNN: needs exactly one hidden size, got {len(sizes)}")
        self.hidden = int(sizes[0])
        if self.hidden < 1:
            raise ValueError("ElmanRNN: hidden size must be positive")
        gen = rng.derive(f"init/{self.kind}").generator
        h = self.hidden
        self._set_blocks([
            gen.uniform(-1.0, 1.0, h),                              # w_xh
            gen.uniform(-0.5, 0.5, (h, h)) / math.sqrt(h),          # W_hh
            np.zeros(h),                                            # b_h
            gen.uniform(-1.0, 1.0, (h, n_outputs)) / math.sqrt(h),  # w_ho
            np.zeros(n_outputs),                                    # b_o
        ])

    def forward_with_cache(self, X: np.ndarray):
        if X.ndim != 2:
            raise ValueError("ElmanRNN: expects (n_samples, T) input")
        w_xh, w_hh, b_h, w_ho, b_o = self._blocks()
        n, T = X.shape
        hs = np.empty((T + 1, n, self.hidden))
        hs[0] = 0.0
        # Every step works in place in hs and adds in the order
        # (x_t * w_xh + h_{t-1} W_hh) + b_h.  The input products fill hs[1:]
        # at once.  b_h is added from a contiguous (n, h) copy: at n = 512,
        # h = 8 that add takes 1.1 us against 3.5 us for a broadcast (h,)
        # row, with the same bits.
        np.multiply(X.T[:, :, None], w_xh, out=hs[1:])
        bias = np.broadcast_to(b_h, hs.shape[1:]).copy()
        mm = np.empty_like(bias)
        for t in range(T):
            h = hs[t + 1]
            np.matmul(hs[t], w_hh, out=mm)
            h += mm
            h += bias
            np.tanh(h, out=h)
        out = hs[T] @ w_ho + b_o
        return out, (X, hs)

    def backward(self, cache, dout: np.ndarray) -> np.ndarray:
        X, hs = cache
        _, w_hh, _, w_ho, _ = self._blocks()
        T = X.shape[1]
        h = self.hidden
        g_xh = np.zeros(h)
        g_hh = np.zeros((h, h))
        g_bh = np.zeros(h)
        dh = dout @ w_ho.T
        dpre = np.empty_like(dh)
        # One (n, h) dpre buffer serves every step, and hs is only read:
        # per_sample_grads runs backward n times on one cache.  Keeping
        # every step's dpre for batched products after the loop was slower
        # (0.494 s against 0.440 s for the continual-plain bench workload on
        # a 2-core VM) and adds a (T, n, h) array of peak memory.  X[:, t]
        # stays a strided column: a contiguous copy of X.T gives gemv other
        # last bits on odd n.  _column_sums(dpre) keeps sum(axis=0)'s order; a
        # reduce over a transposed copy adds the rows pairwise, with other bits.
        for t in range(T - 1, -1, -1):
            np.square(hs[t + 1], out=dpre)
            np.subtract(1.0, dpre, out=dpre)
            dpre *= dh
            g_xh += X[:, t] @ dpre
            g_bh += _column_sums(dpre)
            g_hh += hs[t].T @ dpre
            np.matmul(dpre, w_hh.T, out=dh)
        return self._flatten([g_xh, g_hh, g_bh, hs[T].T @ dout, _column_sums(dout)])


_MODELS = {cls.kind: cls for cls in (LinearModel, MLPModel, ElmanRNN)}


def make_model(kind: str, window: int, n_outputs: int, rng: SeededRng,
               hidden=(8,)) -> Model:
    """Factory over the model zoo.  hidden is the mlp's layer sizes (one or
    more) and the rnn's state size (exactly one; more raise ValueError);
    linear ignores it."""
    if kind not in _MODELS:
        raise ValueError(f"make_model: unknown kind {kind!r}")
    return _MODELS[kind](window, n_outputs, rng, hidden)


@dataclass(frozen=True)
class TaskSpec:
    """One training budget: epochs, learning rate, optional wrapper.

    It names no task: the model's output count picks the loss, MSE for one
    output and cross-entropy for more.  The wrapper, when present, scales
    each sample's row of dl/dout by its confidence factor before the one
    backward pass.  A cycled wrapper's angle omega*epoch + phase must stay
    finite up to the last epoch.
    """

    epochs: int
    learning_rate: float
    wrapper: CrucialConfig | None = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("TaskSpec: epochs must be >= 1")
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0.0:
            raise ValueError("TaskSpec: learning_rate must be finite and > 0")
        cfg = self.wrapper
        if (cfg is not None and cfg.variant is Variant.SIN
                and not math.isfinite(cfg.omega * (self.epochs - 1) + cfg.phase)):
            raise ValueError("TaskSpec: the cycled wrapper's last angle "
                             "omega*(epochs - 1) + phase is not finite")


def featurize(dataset: Dataset, model: Model):
    """Build the model's input matrix X and target vector y from a dataset.

    Window models read the last ``window`` values of every series, which
    is a slice of dataset.values, zero-padded on the left only when the
    window is longer than the series; the recurrent model reads whole
    series.  Multivariate input is out of the zoo's scope; use dimension 1.
    Every sample must be labeled; a classifier's labels must be whole
    numbers in [0, n_outputs) (ValueError otherwise).
    """
    values = dataset.values
    if len(dataset) == 0:
        raise ValueError("featurize: empty dataset")
    if values.ndim != 2:
        raise ValueError("featurize: model zoo expects univariate series")
    T = values.shape[1]
    w = T if isinstance(model, ElmanRNN) else model.window
    X = values[:, T - w:] if w <= T else np.pad(values, ((0, 0), (w - T, 0)))
    labels = dataset.labels
    if np.isnan(labels).any():
        raise ValueError("featurize: all samples must be labeled for training")
    if model.n_outputs == 1:
        return X, labels.astype(np.float64)
    if labels.dtype.kind == "f" and (labels != np.floor(labels)).any():
        raise ValueError("featurize: class labels must be whole numbers")
    if labels.min() < 0 or labels.max() >= model.n_outputs:
        raise ValueError("featurize: class label out of range")
    return X, labels.astype(np.int64)


def _losses_and_dout(model: Model, X: np.ndarray, y: np.ndarray):
    """Forward pass: per-sample losses l_i, dl_i/dout_i rows, and the cache.
    A one-output model is scored by MSE, any other by cross-entropy."""
    if X.shape[0] == 0:
        raise ValueError("forward_backward: empty batch")
    if X.shape[0] != y.shape[0]:
        raise ValueError("forward_backward: X and y disagree on batch size")
    out, cache = model.forward_with_cache(X)
    if model.n_outputs == 1:
        r = out[:, 0] - y
        losses = r * r
        dout = (2.0 * r)[:, None]
    else:
        # The row max as np.maximum over the columns: np.max(axis=1) makes
        # one call per row (15 us at n = 512).  Max does not round; a tie of
        # -0.0 and 0.0 changes only the sign of a zero in z, which exp drops.
        top = out[:, 0]
        for column in out.T[1:]:
            top = np.maximum(top, column)
        z = out - top[:, None]
        ez = np.exp(z)
        p = ez / np.sum(ez, axis=1, keepdims=True)
        idx = np.arange(X.shape[0])
        cls = y.astype(np.intp)
        losses = -np.log(np.maximum(p[idx, cls], 1e-300))
        dout = p
        dout[idx, cls] -= 1.0
    return losses, dout, cache


def forward_backward(model: Model, X: np.ndarray, y: np.ndarray):
    """Per-sample losses l_i and the gradient of their sum, sum_i dl_i/dw.

    A one-output model's MSE uses l = (yhat - y)^2 (so the linear
    single-sample gradient is 2*(yhat - y)*x); any other model's
    cross-entropy is softmax negative log-likelihood.
    Returns (losses shaped (n,), gradient shaped (n_params,)).
    """
    losses, dout, cache = _losses_and_dout(model, X, y)
    return losses, model.backward(cache, dout)


def _guard(losses: np.ndarray, when: str) -> None:
    """Raise TrainingDiverged when the mean raw loss is not finite or is
    above DIVERGENCE_LIMIT."""
    mean_loss = float(np.mean(losses))
    if not math.isfinite(mean_loss) or mean_loss > DIVERGENCE_LIMIT:
        raise TrainingDiverged(
            f"mean loss {mean_loss:.3e} beyond guard {DIVERGENCE_LIMIT:.0e} {when}")


def train_epoch(model: Model, data, task: TaskSpec, epoch: int = 0,
                prev_losses=None) -> ModulatedLoss:
    """One full-batch epoch, in place on model.params; returns the epoch's
    ModulatedLoss record (input_loss: the raw losses before the step).

    data is the (X, y) pair from featurize.  task.wrapper weighs the losses
    as modulate_epoch does at this epoch index, given the previous epoch's
    raw losses prev_losses (None in a first epoch).  The step is one
    backward pass with each sample's dl/dout row scaled by kappa_i / n,
    i.e. the mean of the kappa-weighted per-sample gradients; a mean raw
    loss above DIVERGENCE_LIMIT aborts before the update.  Overflow in the
    forward pass or the step is left to that guard, here or on the next
    forward pass; the wrapper's kernel runs outside it and keeps its own
    warnings.
    """
    X, y = data
    with np.errstate(over="ignore", invalid="ignore"):
        losses, dout, cache = _losses_and_dout(model, X, y)
    _guard(losses, f"at epoch {epoch}")
    mod = modulate_epoch(losses, task.wrapper, epoch, prev_losses)
    with np.errstate(over="ignore", invalid="ignore"):
        grad = model.backward(cache, dout * (mod.kappa / X.shape[0])[:, None])
        model.params -= task.learning_rate * grad
    return mod


def train_model(model: Model, dataset: Dataset, task: TaskSpec, *,
                on_epoch: Callable[[int, ModulatedLoss], None] | None = None) -> None:
    """Train model in place for task.epochs full-batch epochs on one dataset
    (featurized once); returns None.  Epoch t is train_epoch at index t
    given epoch t-1's raw losses (none at epoch 0), so the wrapper's adaptive
    threshold and cycle start afresh at every call.  The trained model's mean
    raw loss must pass the divergence guard too.  on_epoch, when given, is
    the only view of an epoch: on_epoch(epoch, record) after each step, with
    the record train_epoch returned (an epoch that diverges raises first,
    and the final guard makes no call)."""
    data = featurize(dataset, model)
    prev_losses = None
    for epoch in range(task.epochs):
        mod = train_epoch(model, data, task, epoch, prev_losses)
        prev_losses = mod.input_loss
        if on_epoch is not None:
            on_epoch(epoch, mod)
    with np.errstate(over="ignore", invalid="ignore"):
        _guard(_losses_and_dout(model, *data)[0], f"after epoch {task.epochs - 1}")


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


def evaluate(model: Model, dataset: Dataset) -> dict:
    """Fixed evaluation metrics on a dataset: mse for a one-output model;
    accuracy (+ auc when binary) for any other."""
    X, y = featurize(dataset, model)
    out = model.forward(X)
    if model.n_outputs == 1:
        r = out[:, 0] - y
        return {"mse": float(np.mean(r * r))}
    pred = np.argmax(out, axis=1)
    metrics = {"accuracy": float(np.mean(pred == y))}
    classes = set(int(v) for v in np.unique(y))
    if classes == {0, 1} and model.n_outputs == 2:
        metrics["auc"] = auc_roc(out[:, 1] - out[:, 0], y)
    return metrics


def _continuous_score(model: Model, dataset: Dataset) -> float:
    """Transfer-matrix entry: AUC for binary labels, accuracy otherwise.

    Overflow while scoring is silenced as in a training step: the model has
    passed its stage's divergence guard, and a run that goes on to diverge
    is reported by a later stage's guard.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        m = evaluate(model, dataset)
    return m["auc"] if "auc" in m else m["accuracy"]


@dataclass
class TransferMatrix:
    """Continuous-task outcome: R[i, j] = score on prefix j after stage i.

    baseline holds the untrained reference scores b from a freshly seeded
    model; baseline_seed records the extra seed that model used.  R has two
    or more stages, the fewest over which BWT and FWT are defined.
    """

    R: np.ndarray
    baseline: np.ndarray
    baseline_seed: int

    def __post_init__(self) -> None:
        self.R = np.asarray(self.R, dtype=np.float64)
        self.baseline = np.asarray(self.baseline, dtype=np.float64)
        if self.R.ndim != 2 or self.R.shape[0] != self.R.shape[1] or self.R.shape[0] < 2:
            raise ValueError("TransferMatrix: R must be square with at least 2 stages")
        if self.baseline.shape != (self.R.shape[0],):
            raise ValueError("TransferMatrix: baseline length must match R")


def bwt(tm: TransferMatrix) -> float:
    """Backward transfer: mean of final-row score minus own-stage score.

    bwt = sum_{i=1}^{K-1} (R[K, i] - R[i, i]) / (K - 1) in 1-based terms;
    positive means later stages improved earlier prefixes.
    """
    k = tm.R.shape[0]
    return float(sum(tm.R[k - 1, i] - tm.R[i, i] for i in range(k - 1)) / (k - 1))


def fwt(tm: TransferMatrix) -> float:
    """Forward transfer: mean of pre-stage score minus untrained baseline.

    fwt = sum_{i=2}^{K} (R[i-1, i] - b[i]) / (K - 1) in 1-based terms.
    """
    k = tm.R.shape[0]
    return float(
        sum(tm.R[i - 1, i] - tm.baseline[i] for i in range(1, k)) / (k - 1)
    )


def run_continuous(model: Model, prefixes: list[Dataset], task: TaskSpec,
                   rng: SeededRng) -> TransferMatrix:
    """Train sequentially over nested prefixes and fill the transfer matrix.

    prefixes are two or more datasets of strictly increasing series length,
    as make_prefixes returns them; fewer raise ValueError before training.
    After each stage the model is scored on every prefix (row i of R).  The
    untrained baseline row comes from a fresh model drawn with one extra
    derived seed, recorded on the result.  Each stage is one train_model
    call, which updates model in place; each stage starts at epoch 0 with no
    previous losses, so the adaptive threshold and the cycle's epoch index
    restart at every stage.  Returns the filled TransferMatrix; model ends
    as the last stage left it.
    """
    if len(prefixes) < 2:
        raise ValueError("run_continuous: needs at least 2 prefixes")
    ts = [p.values.shape[1] for p in prefixes]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("run_continuous: prefixes must be strictly nested in time")
    k = len(prefixes)
    baseline_rng = rng.derive("baseline-model")
    fresh = model.fresh(baseline_rng)
    baseline = np.array([_continuous_score(fresh, p) for p in prefixes])
    R = np.zeros((k, k))
    for i, prefix in enumerate(prefixes):
        train_model(model, prefix, task)
        for j, other in enumerate(prefixes):
            R[i, j] = _continuous_score(model, other)
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

"""Reference implementations the library's fast paths must match bit for bit.

Each function here is an earlier, plainer form of a library kernel, kept so a
test can compare the kernel against it with ``view(np.uint64)``, or, for the
two orderings, value for value.
"""

import numpy as np

from crucial.sampler import Ordering


def elman_forward_with_cache(model, X: np.ndarray):
    """ElmanRNN.forward_with_cache with fresh arrays at every step."""
    w_xh, w_hh, b_h, w_ho, b_o = model._blocks()
    n, T = X.shape
    hs = np.zeros((T + 1, n, model.hidden))
    for t in range(T):
        hs[t + 1] = np.tanh(
            X[:, t][:, None] * w_xh[None, :] + hs[t] @ w_hh + b_h
        )
    out = hs[T] @ w_ho + b_o
    return out, (X, hs)


def elman_backward(model, cache, dout: np.ndarray) -> np.ndarray:
    """ElmanRNN.backward with fresh arrays at every step."""
    X, hs = cache
    _, w_hh, _, w_ho, _ = model._blocks()
    T = X.shape[1]
    h = model.hidden
    g_xh = np.zeros(h)
    g_hh = np.zeros((h, h))
    g_bh = np.zeros(h)
    dh = dout @ w_ho.T
    for t in range(T - 1, -1, -1):
        dpre = dh * (1.0 - hs[t + 1] ** 2)
        g_xh += X[:, t] @ dpre
        g_bh += dpre.sum(axis=0)
        g_hh += hs[t].T @ dpre
        dh = dpre @ w_hh.T
    return model._flatten([g_xh, g_hh, g_bh, hs[T].T @ dout, dout.sum(axis=0)])


def mlp_backward(model, cache, dout: np.ndarray) -> np.ndarray:
    """MLPModel.backward (and so LinearModel's) with numpy's sum(axis=0)."""
    blocks, acts = cache
    grads = []
    delta = dout
    for layer in range(len(acts) - 1, -1, -1):
        grads += [delta.sum(axis=0), acts[layer].T @ delta]
        if layer > 0:
            delta = (delta @ blocks[2 * layer].T) * (1.0 - acts[layer] ** 2)
    return model._flatten(grads[::-1])


def losses_and_dout(model, X: np.ndarray, y: np.ndarray):
    """trainer._losses_and_dout with the softmax max taken by np.max."""
    out, cache = model.forward_with_cache(X)
    if model.n_outputs == 1:
        r = out[:, 0] - y
        losses = r * r
        dout = (2.0 * r)[:, None]
    else:
        z = out - np.max(out, axis=1, keepdims=True)
        ez = np.exp(z)
        p = ez / np.sum(ez, axis=1, keepdims=True)
        idx = np.arange(X.shape[0])
        cls = y.astype(np.intp)
        losses = -np.log(np.maximum(p[idx, cls], 1e-300))
        dout = p
        dout[idx, cls] -= 1.0
    return losses, dout, cache


def analytic_ordering(e_u: float, e_p: float) -> Ordering:
    """The closed forms' ordering as the sampler wrote it inline: inconclusive
    within 1e-12 relative (finite inputs)."""
    if abs(e_u - e_p) < 1e-12 * max(abs(e_u), abs(e_p), 1e-300):
        return Ordering.INCONCLUSIVE
    return Ordering.U_BEATS_P if e_u < e_p else Ordering.P_BEATS_U


def mc_ordering(e_u: float, e_p: float) -> Ordering:
    """The Monte Carlo ordering as simulate wrote it: inconclusive only on
    equal estimates."""
    return (Ordering.INCONCLUSIVE if e_u == e_p else
            Ordering.U_BEATS_P if e_u < e_p else Ordering.P_BEATS_U)

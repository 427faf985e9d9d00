"""Reference implementations the library's fast paths must match bit for bit.

Each function here is an earlier, plainer form of a library kernel, kept so a
test can compare the kernel against it with ``view(np.uint64)``.
"""

import numpy as np


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

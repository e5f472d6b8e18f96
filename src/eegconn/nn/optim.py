"""Adam optimizer with bias correction and multiplicative step decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeError

# Elements per block of the in-place update: two float64 scratch blocks of
# this size (256 KiB each) stay cache-resident while a block of p, m, v and g
# streams through them.
CHUNK = 32768


def _scratch() -> np.ndarray:
    return np.empty(CHUNK)


@dataclass
class AdamState:
    """Per-parameter moment accumulators plus hyperparameters.

    The effective learning rate at step t is lr / (1 + decay * t), the
    step counter starting at 1 on the first update.  ``m`` and ``v`` hold
    one array per parameter key, created on its first update; ``s1`` and
    ``s2`` are the update's scratch blocks, so a step allocates no
    parameter-sized temporary.
    """

    lr: float = 1e-4
    decay: float = 1e-6
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    s1: np.ndarray = field(default_factory=_scratch, repr=False)
    s2: np.ndarray = field(default_factory=_scratch, repr=False)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> AdamState:
    """One in-place Adam update of every parameter array.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;
    p <- p - lr_t * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

    Each array is updated in blocks of ``CHUNK`` elements through the two
    scratch blocks of ``state``.  Every operation is elementwise and keeps the
    order of the formula above, so the result does not depend on the block
    size.  A parameter array must be writable and contiguous.
    """
    state.step += 1
    t = state.step
    b1, b2, eps = state.beta1, state.beta2, state.eps
    lr_t = state.lr / (1.0 + state.decay * t)
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape} for {key}")
        if key not in state.m:
            state.m[key] = np.zeros(p.shape)
            state.v[key] = np.zeros(p.shape)
        pf = p.reshape(-1, copy=False)
        mf = state.m[key].reshape(-1)
        vf = state.v[key].reshape(-1)
        gf = g.reshape(-1)
        for lo in range(0, pf.size, CHUNK):
            hi = min(lo + CHUNK, pf.size)
            pc, mc, vc, gc = pf[lo:hi], mf[lo:hi], vf[lo:hi], gf[lo:hi]
            s1, s2 = state.s1[: hi - lo], state.s2[: hi - lo]
            mc *= b1
            np.multiply(gc, 1.0 - b1, out=s1)
            mc += s1
            vc *= b2
            np.multiply(gc, 1.0 - b2, out=s1)
            s1 *= gc
            vc += s1
            np.divide(mc, c1, out=s1)
            s1 *= lr_t
            np.divide(vc, c2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += eps
            s1 /= s2
            pc -= s1
    return state

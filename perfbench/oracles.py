"""Correctness oracles, computed apart from the offload path.

* :func:`replay_update` repeats an update workload with the same seeded
  gradients through in-memory ``adam_update``: no tiers, no cache, no
  pipelining.  The engine's gathered FP32 master and FP16 working copy must
  equal it bit for bit.
* :func:`kingma_ba_float64` is a float64 Adam (Kingma & Ba, 2015, Algorithm 1)
  written here.  It shares no code with ``repro.train.adam``, so a wrong
  formula there cannot hide in both.  It is checked within
  :data:`ADAM64_RTOL` / :data:`ADAM64_ATOL_PER_STEP`.

Every check raises :class:`OracleError`; the benchmark reports the run as
incorrect and exits non-zero.
"""

from __future__ import annotations

import concurrent.futures
from typing import Callable, List, Sequence, Tuple

import numpy as np

#: Relative tolerance of the float32 engine against the float64 reference.
ADAM64_RTOL = 1e-6
#: Absolute tolerance per Adam step, as a share of the learning rate: each
#: float32 step rounds the update ``lr * m / (sqrt(v) + eps)`` to a few ulp
#: of a value of order ``lr``.  The worst error seen is about ``2e-6 * lr``
#: per step.
ADAM64_ATOL_PER_STEP = 1e-4

#: The float64 check runs on every ``ADAM64_STRIDE``-th parameter; the
#: bitwise replay covers all of them.
ADAM64_STRIDE = 16


class OracleError(AssertionError):
    """A benchmark output disagrees with its oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def require_bitwise(name: str, got: np.ndarray, want: np.ndarray) -> None:
    require(got.dtype == want.dtype and got.shape == want.shape,
            f"{name}: {got.dtype}{got.shape} != {want.dtype}{want.shape}")
    if not np.array_equal(got.view(np.uint8), want.view(np.uint8)):
        differing = int(np.count_nonzero(got != want))
        raise OracleError(f"{name}: {differing} of {got.size} elements differ from the oracle")


def replay_update(
    init: np.ndarray,
    grads_for_iteration: Callable[[int], np.ndarray],
    subgroups: Sequence[Tuple[int, int]],
    iterations: int,
    adam_config,
) -> Tuple[np.ndarray, np.ndarray]:
    """Offload-free replay of one rank: ``(fp32 master, fp16 working copy)``.

    ``subgroups`` are ``(start, stop)`` slices of the rank-local flat vector;
    ``grads_for_iteration(i)`` is the rank's FP16 gradient of iteration ``i``.
    Subgroups are independent, so they replay on two threads (NumPy releases
    the interpreter lock).
    """
    from repro.train.adam import AdamScratch, AdamState, adam_update

    master = init.astype(np.float32, copy=True)
    fp16 = init.astype(np.float16)

    def one(bounds: Tuple[int, int]) -> None:
        start, stop = bounds
        state = AdamState.zeros(stop - start, init=master[start:stop])
        scratch = AdamScratch(stop - start)
        for i in range(iterations):
            grad = grads_for_iteration(i)[start:stop].astype(np.float32)
            adam_update(state, grad, adam_config, scratch=scratch)
        master[start:stop] = state.params
        fp16[start:stop] = state.params.astype(np.float16)

    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        for future in [pool.submit(one, bounds) for bounds in subgroups]:
            future.result()
    return master, fp16


def kingma_ba_float64(
    init: np.ndarray,
    grads_for_iteration: Callable[[int], np.ndarray],
    iterations: int,
    *,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
) -> np.ndarray:
    """Adam in float64, step by step as the paper writes it."""
    theta = init.astype(np.float64)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t in range(1, iterations + 1):
        g = grads_for_iteration(t - 1).astype(np.float64)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


def check_against_float64(
    name: str, master: np.ndarray, reference: np.ndarray, iterations: int, lr: float
) -> float:
    """Require ``master`` within tolerance of ``reference``; return the worst error."""
    error = np.abs(master.astype(np.float64) - reference)
    atol = ADAM64_ATOL_PER_STEP * lr * iterations
    bound = atol + ADAM64_RTOL * np.abs(reference)
    worst = int(np.argmax(error - bound))
    require(
        bool(np.all(error <= bound)),
        f"{name}: float64 Adam disagrees at element {worst}: |{master[worst]} - "
        f"{reference[worst]}| > {bound[worst]:.3g}",
    )
    return float(error.max())


def check_losses(got: List[float], want: List[float]) -> None:
    require(len(got) == len(want), f"loss count {len(got)} != reference {len(want)}")
    for i, (a, b) in enumerate(zip(got, want)):
        require(a == b, f"iteration {i}: loss {a!r} != reference {b!r}")
    require(got[-1] < got[0], f"final loss {got[-1]:.4f} is not below the first {got[0]:.4f}")

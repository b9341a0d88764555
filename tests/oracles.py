"""Independent oracles the test suites check the package against, and the
error NumPy raises for an array it cannot allocate.

Nothing in the package calls these: each oracle recomputes a quantity the
package produces by a separate, plainer route.
"""

import math

import numpy as np

from spikelink.decoder import forward_batch
from spikelink.encoder import filter_inputs
from spikelink.metrics import CSV_HEADER, MetricsRow
from spikelink.numerics import SeededRng, sigmoid


def finite_diff_grad(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at x.

    This is the oracle the analytic gradients are checked against, so it
    refuses to hand back garbage: any non-finite function value raises.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty(x.size, dtype=np.float64)
    flat = x.reshape(-1)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        hi = float(f(bumped.reshape(x.shape)))
        bumped[i] = flat[i] - h
        lo = float(f(bumped.reshape(x.shape)))
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise ArithmeticError(
                f"finite-difference oracle hit a non-finite value at index {i}"
            )
        grad[i] = (hi - lo) / (2.0 * h)
    return grad.reshape(x.shape)


def parse_kv_metrics(text: str) -> list[MetricsRow]:
    """Rows of `export --format kv` text: one row per non-blank line of
    space-separated key=value pairs, a missing key read as empty."""
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        values = dict(item.split("=", 1) for item in line.split(" "))
        rows.append(MetricsRow.from_fields([values.get(col, "") for col in CSV_HEADER]))
    return rows


def evaluate_line_space(encoder, decoder, counts, labels, epsilons, seed: int):
    """(test error, clean spike rate) at each channel point, as
    training.evaluate_grid documents them, one sample and one step at a
    time in line space.

    Each sample's counts become input traces (filter_inputs), and step t's
    potential is traces[t] @ ff_weights.T, W·(a∗x), plus the feedback
    weight times the filtered own-bit history and the bias.  Each sample
    draws from its own stream ("eval", index) of the seed: spike uniforms
    (steps x neurons) first, flip uniforms second; a step spikes where its
    spike uniform is below sigmoid(u), and a bit flips where its flip
    uniform is below epsilon.
    """
    counts = np.asarray(counts)
    n, steps, _ = counts.shape
    k = encoder.n_out
    taps = encoder.kernel_fb.coefficients
    wrong = [0] * len(epsilons)
    spikes = 0
    for i in range(n):
        traces = filter_inputs(counts[i : i + 1], encoder.kernel_ff)[0]
        stream = SeededRng(seed).substream("eval", i)
        spike_u = stream.uniform((steps, k))
        flip_u = stream.uniform((steps, k))
        z = np.zeros((steps, k), dtype=np.uint8)
        for t in range(steps):
            fb = np.zeros(k)
            for d in range(1, min(taps.size, t + 1)):
                fb += taps[d] * z[t - d]
            u = traces[t] @ encoder.ff_weights.T + encoder.fb_weights * fb + encoder.bias
            z[t] = spike_u[t] < sigmoid(u)
        spikes += int(z.sum())
        for j, eps in enumerate(epsilons):
            received = (z ^ (flip_u < eps)).reshape(1, -1).astype(np.float64)
            _, _, _, probs = forward_batch(decoder, received)
            wrong[j] += int(np.argmax(probs) != labels[i])
    return [(count / n, spikes / (n * steps * k)) for count in wrong]


def allocation_error(shape, dtype=np.float64) -> MemoryError:
    """The MemoryError NumPy raises for an array of this shape and dtype
    that cannot be allocated, so a test can fake a refusal it never makes."""
    from numpy._core._exceptions import _ArrayMemoryError

    return _ArrayMemoryError(tuple(shape), np.dtype(dtype))

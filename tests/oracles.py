"""Independent oracles the test suites check the package against.

Nothing in the package calls these: each one recomputes a quantity the
package produces by a separate, plainer route.
"""

import math

import numpy as np

from spikelink.metrics import CSV_HEADER, MetricsRow


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

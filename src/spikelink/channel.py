"""Binary symmetric channel: crossover law, marginalized spike statistics.

Every function takes the crossover probability itself; a run's channel
point, set as epsilon or as Eb/N0 in dB, is resolved to one by
RunConfig.crossover().  The two samplers, transmit and sample_noisy, take
their uniform draws from the caller.
"""

from __future__ import annotations

import numpy as np

from .numerics import log_sigmoid, sigmoid

__all__ = [
    "transmit",
    "noisy_spike_prob",
    "log_prob_noisy",
    "sample_noisy",
]


def _check_epsilon(epsilon: float, high: float = 1.0) -> float:
    eps = float(epsilon)
    if not 0.0 <= eps <= high:
        raise ValueError(f"crossover probability out of range: {eps}")
    return eps


def transmit(bits: np.ndarray, epsilon: float, uniforms: np.ndarray) -> np.ndarray:
    """Flip each bit whose uniform draw falls below epsilon.

    The draws come from the caller, so one set of draws can be reused
    across channel points.
    """
    eps = _check_epsilon(epsilon)
    bits = np.asarray(bits, dtype=np.uint8)
    return np.bitwise_xor(bits, (uniforms < eps).astype(np.uint8))


def noisy_spike_prob(p, epsilon: float):
    """Probability that the received bit is 1 when the spike probability is p.

    Marginalizes the channel over the transmitted bit:
    p*(1-eps) + (1-p)*eps, the convex mix the flip law induces.  Written in
    that two-term form so it matches the explicit marginalization bit for
    bit, not merely to rounding.
    """
    eps = _check_epsilon(epsilon)
    p = np.asarray(p, dtype=np.float64)
    return p * (1.0 - eps) + (1.0 - p) * eps


def log_prob_noisy(zhat, u, epsilon: float, s=None):
    """Log-probability of received bits zhat given membrane potentials u.

    Sums zhat*log(q) + (1-zhat)*log(1-q) over the last axis (the neurons),
    with q = noisy_spike_prob(s, eps) and s = sigmoid(u); a caller that
    already holds s passes it so it is not recomputed.  At epsilon = 0
    this is the clean Bernoulli log-likelihood, evaluated from u in
    log-sigmoid form so saturated potentials stay finite.
    """
    eps = _check_epsilon(epsilon, high=0.5)
    zhat = np.asarray(zhat, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if eps == 0.0:
        terms = zhat * log_sigmoid(u) + (1.0 - zhat) * log_sigmoid(-u)
    else:
        # q is pinned inside [eps, 1-eps] for eps > 0, so the logs are finite
        q = noisy_spike_prob(sigmoid(u) if s is None else s, eps)
        terms = zhat * np.log(q) + (1.0 - zhat) * np.log1p(-q)
    return np.sum(terms, axis=-1)


def sample_noisy(s, epsilon: float, uniforms: np.ndarray) -> np.ndarray:
    """Received bits drawn directly from the channel-marginalized law, given
    spike probabilities s and one uniform draw per bit from the caller.

    A bit is 1 where its uniform falls below noisy_spike_prob(s, eps); the
    law is identical to sampling clean spikes and pushing them through
    transmit, but costs a single draw.
    """
    eps = _check_epsilon(epsilon)
    return (uniforms < noisy_spike_prob(s, eps)).astype(np.uint8)

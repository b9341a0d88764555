"""Binary symmetric channel: crossover law, marginalized spike statistics.

Every function takes the crossover probability itself; a run's channel
point, set as epsilon or as Eb/N0 in dB, is resolved to one by
RunConfig.crossover().  The samplers take their uniforms from the caller:
transmit flips bits, spike_thresholds draws received bits by potential.
"""

from __future__ import annotations

import numpy as np

from .numerics import log_sigmoid, sigmoid

__all__ = [
    "transmit",
    "noisy_spike_prob",
    "log_prob_noisy",
    "spike_thresholds",
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


def spike_thresholds(uniforms, epsilon: float) -> np.ndarray:
    """Potential thresholds, one per uniform draw U: a received bit is 1
    where its potential u exceeds its threshold, the event U < q of the
    marginalized law, q = eps + (1 - 2*eps) * sigmoid(u) (inverse-CDF
    sampling).  The threshold is logit((U - eps) / (1 - 2*eps)): -inf where
    U < eps, +inf where U >= 1 - eps, and logit(U) at eps = 0, evaluation's
    clean spike.  It decides as U < q does except within float rounding of
    q, where q rounds onto eps or sigmoid(u) underflows, and at u = -inf.
    """
    eps = _check_epsilon(epsilon, high=0.5)
    uniforms = np.asarray(uniforms, dtype=np.float64)
    # log(p) - log1p(-p) of p = (U - eps) / (1 - 2*eps), in two buffers
    thresholds, tail = np.empty(uniforms.shape), np.empty(uniforms.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.subtract(uniforms, eps, out=thresholds), 1.0 - 2.0 * eps, out=thresholds)
        np.log1p(np.negative(thresholds, out=tail), out=tail)
        np.subtract(np.log(thresholds, out=thresholds), tail, out=thresholds)
    np.copyto(thresholds, -np.inf, where=uniforms < eps)
    np.copyto(thresholds, np.inf, where=uniforms >= 1.0 - eps)
    return thresholds

"""Acceptance criteria 7-10: each one's CLI protocol and its pass rule.

tests/test_acceptance.py gates on these rules at seed 0, and
tools/same_law.py compares two trees by them over many seeds.  A rule is
pure: from a run's metrics rows (mappings from metrics.csv's column names
to text or numbers) to the numbers it reads, named from the rows' own
ebn0_db, epsilon and beta columns, and whether the criterion passes.
Every bound is inclusive.
"""

from __future__ import annotations

import csv
import math

C7_ERROR = 0.10
C8_RISE = 0.03
C8_CHANCE = 0.05
C9_DEGRADATION = 0.05
C10_RATE_RISE = 0.02
C10_SPREAD = 0.03
CHANCE = 1.0 - 1.0 / 4  # the error of a guess among the default config's 4 classes
RATE_EPOCHS = 5  # the last epochs of a beta point whose spike rates are averaged


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def convergence(rows):
    """Criterion 7: the best error up to the first epoch at or below
    C7_ERROR; it passes if it got there."""
    best = math.inf
    for row in rows:
        best = min(best, float(row["error_rate"]))
        if best <= C7_ERROR:
            break
    return {"best error": best}, best <= C7_ERROR


def snr_sweep(rows):
    """Criterion 8: the error at each Eb/N0 point; it passes if no error
    rises more than C8_RISE over the previous point's and the first point's
    (epsilon 0.5) lies within C8_CHANCE of chance.

    That chance clause is read on the default 128 test samples, where the
    error is binomial with a standard deviation of about 0.038 against the
    0.05 bound, so about one seed in five fails it by chance.
    """
    errors = {f"error {float(row['ebn0_db']):g} dB": float(row["error_rate"]) for row in rows}
    e = list(errors.values())
    rises = all(b <= a + C8_RISE for a, b in zip(e, e[1:]))
    return errors, rises and CHANCE - C8_CHANCE <= e[0] <= CHANCE + C8_CHANCE


def mismatch(rows):
    """Criterion 9: the errors at the three grid points; it passes if
    neither neighbour's exceeds the middle, trained point's by more than
    C9_DEGRADATION."""
    errors = {f"error {float(row['epsilon']):.2f}": float(row["error_rate"]) for row in rows}
    low, trained, high = errors.values()
    return errors, max(low, high) <= trained + C9_DEGRADATION


def sparsity(rows):
    """Criterion 10: per beta point, the mean spike rate of its last
    RATE_EPOCHS epochs and its last epoch's error; it passes if no rate
    rises more than C10_RATE_RISE over the previous beta's and the errors
    spread at most C10_SPREAD."""
    points: dict = {}
    for row in rows:
        points.setdefault(row["point"], []).append(row)
    rates, errors = {}, {}
    for run in points.values():
        beta = f"beta={float(run[0]['beta']):g}"
        last = [float(row["spike_rate"]) for row in run[-RATE_EPOCHS:]]
        rates[f"rate {beta}"] = sum(last) / len(last)
        errors[f"error {beta}"] = float(run[-1]["error_rate"])
    r, e = list(rates.values()), list(errors.values())
    falls = all(b <= a + C10_RATE_RISE for a, b in zip(r, r[1:]))
    return {**rates, **errors}, falls and max(e) <= min(e) + C10_SPREAD


# criterion -> (verb and flags, config values, rule); a run also gets its seed
PROTOCOLS = {
    7: (["train"], {}, convergence),
    8: (["sweep-snr"], {}, snr_sweep),
    9: (["mismatch", "--epsilon", "0.15", "--epsilon-grid=0.10,0.15,0.20"], {}, mismatch),
    # dense initial firing, so the unregularized operating point sits above
    # the rate the reference pulls toward; the moving-average baseline keeps
    # the estimator drift-free
    10: (["sweep-beta"], {"init_rate": 0.3, "baseline": "on", "epochs": 40}, sparsity),
}

"""Closed-form security quantities: entropies, key rates, sampling failure.

Everything here is plain arithmetic on floats; the Monte-Carlo check at the
bottom is the one numpy consumer.  Entropies are in bits (log base 2), with
natural-log intermediates to keep the endpoint limits exact.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)


class SamplingBoundExceeded(RuntimeError):
    """Empirical failure frequency landed above the analytic envelope."""


def binary_entropy(delta: float) -> float:
    """h(delta) = -delta*log2(delta) - (1-delta)*log2(1-delta), h(0)=h(1)=0."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"entropy argument {delta} outside [0, 1]")
    if delta == 0.0 or delta == 1.0:
        return 0.0
    return -(delta * math.log(delta) + (1.0 - delta) * math.log(1.0 - delta)) / LN2


def key_rate(delta: float) -> float:
    """Asymptotic secret fraction 1 - 2 h(delta) of the coset-key scheme.

    One h(delta) pays for error correction, the second for the dual-basis
    privacy-amplification circuit.
    """
    return 1.0 - 2.0 * binary_entropy(delta)


def mayers_rate(delta: float) -> float:
    """Comparison rate 1 - h(delta) - h(2*delta) from Mayers's analysis.

    Defined for delta <= 1/2 so the doubled argument stays in domain.
    """
    if delta > 0.5:
        raise ValueError(f"mayers_rate argument {delta} above 1/2")
    return 1.0 - binary_entropy(delta) - binary_entropy(2.0 * delta)


def key_rate_threshold(tol: float = 1e-12) -> float:
    """Error rate where key_rate crosses zero, by bisection on (0, 1/2)."""
    lo, hi = 1e-9, 0.5 - 1e-9
    if key_rate(lo) <= 0.0 or key_rate(hi) >= 0.0:
        raise RuntimeError("bisection bracket lost")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if key_rate(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sampling_bound(n: int, delta: float, epsilon: float) -> float:
    """Failure envelope exp(-epsilon^2 n / (4 (delta - delta^2))).

    Bounds the probability that a random split shows at most a delta error
    rate on the tested half while the kept half of size n hides more than
    n*(delta+epsilon) errors.  At delta in {0, 1} the variance term vanishes
    and the limit is degenerate; the function returns 0.0 there.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0.0 <= delta <= 1.0 or epsilon < 0.0:
        raise ValueError("delta must be in [0,1] and epsilon nonnegative")
    var = delta - delta * delta
    if var == 0.0:
        return 0.0
    return math.exp(-(epsilon * epsilon) * n / (4.0 * var))


def leakage_bound(r: int, eta: float) -> dict[str, float]:
    """Bits of key information conceded to an adversary at projection weight eta.

    Returns the three budget lines for an r-bit key: "entropy_bound" is the
    cap h(eta) + r*eta on the extracted register's entropy, "uniformity_deficit"
    is the 2*r*eta allowance for non-uniform key statistics, and "total" is
    their h(eta) + 3*r*eta sum.
    """
    if r < 0:
        raise ValueError("key length must be nonnegative")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta {eta} outside [0, 1]")
    h = binary_entropy(eta)
    return {
        "entropy_bound": h + r * eta,
        "uniformity_deficit": 2.0 * r * eta,
        "total": 3.0 * r * eta + h,
    }


def empirical_sampling_check(
    trials: int,
    n: int,
    delta: float,
    epsilon: float,
    seed: int = 0,
) -> float:
    """Monte-Carlo frequency of the sampling failure event.

    A trial is a 2n-bit error pattern with independent per-bit rate delta,
    split at random into a tested half T and a kept half S of n bits each;
    it fails when T shows an error rate at most delta while S carries more
    than n*(delta+epsilon) errors.  Only the two counts matter, so no
    pattern is built: a trial draws the total count k ~ Binomial(2n, delta)
    and T's share t ~ Hypergeometric(k, 2n - k, n), and S gets k - t.  That
    is the law of shuffling the pattern and cutting it in half: a uniformly
    random half of any fixed pattern with k errors holds t of them with the
    hypergeometric probability, and the pattern enters only through k.

    Returns the observed frequency; raises SamplingBoundExceeded if it lands
    above max(sampling_bound, 10/trials), the analytic envelope padded by the
    resolution floor of the experiment itself.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    k = rng.binomial(2 * n, delta, size=trials)
    t_err = rng.hypergeometric(k, 2 * n - k, n)
    s_err = k - t_err
    freq = int(((t_err <= delta * n) & (s_err > n * (delta + epsilon))).sum()) / trials
    envelope = max(sampling_bound(n, delta, epsilon), 10.0 / trials)
    if freq > envelope:
        raise SamplingBoundExceeded(
            f"frequency {freq} above envelope {envelope} "
            f"(n={n}, delta={delta}, epsilon={epsilon}, trials={trials})"
        )
    return freq

from __future__ import annotations

import math
import tracemalloc

import pytest

from qkdlab.bounds import (
    SamplingBoundExceeded,
    binary_entropy,
    empirical_sampling_check,
    key_rate,
    key_rate_threshold,
    leakage_bound,
    mayers_rate,
    sampling_bound,
)


def h_oracle(d: float) -> float:
    # Independent route: log2 directly instead of natural-log intermediates.
    if d in (0.0, 1.0):
        return 0.0
    return -d * math.log2(d) - (1 - d) * math.log2(1 - d)


# ---------------------------------------------------------------------------
# binary entropy


def test_entropy_endpoints_and_max():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)


def test_entropy_frozen_value():
    # h(0.11) = 0.4999216... (worked with log2 by hand; near the rate zero).
    assert binary_entropy(0.11) == pytest.approx(0.49993, abs=1e-4)
    assert binary_entropy(0.11) == pytest.approx(h_oracle(0.11), abs=1e-12)


def test_entropy_matches_oracle_on_grid():
    for i in range(1, 100):
        d = i / 100.0
        assert binary_entropy(d) == pytest.approx(h_oracle(d), abs=1e-12)


def test_entropy_symmetric_and_concave():
    for i in range(1, 50):
        d = i / 100.0
        assert binary_entropy(d) == pytest.approx(binary_entropy(1 - d), abs=1e-12)
        mid = binary_entropy(0.5 * (d + 0.5))
        assert mid >= 0.5 * (binary_entropy(d) + binary_entropy(0.5)) - 1e-12


def test_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


# ---------------------------------------------------------------------------
# key rates


def test_key_rate_endpoints():
    assert key_rate(0.0) == 1.0
    assert key_rate(0.5) == pytest.approx(-1.0, abs=1e-12)


def test_key_rate_identity_with_entropy():
    for i in range(0, 51):
        d = i / 100.0
        assert key_rate(d) + 2 * binary_entropy(d) == pytest.approx(1.0, abs=1e-12)


def test_key_rate_zero_crossing_bracket():
    # Bisection oracle in-test, independent of key_rate_threshold.
    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if key_rate(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert 0.1100 <= lo <= hi <= 0.1101
    assert 0.1100 <= key_rate_threshold() <= 0.1101


def test_mayers_rate_and_dominance():
    assert mayers_rate(0.0) == 1.0
    # The coset-key rate strictly dominates on the whole positive region.
    for i in range(1, 101):
        d = 0.11 * i / 101.0
        assert key_rate(d) > mayers_rate(d)


def test_mayers_rate_domain():
    with pytest.raises(ValueError):
        mayers_rate(0.51)


# ---------------------------------------------------------------------------
# sampling bound


def test_sampling_bound_frozen_value():
    # n=10^4, delta=0.1, epsilon=0.05: exponent = 0.0025*10^4/0.36 = 625/9.
    expect = math.exp(-625.0 / 9.0)
    assert sampling_bound(10_000, 0.1, 0.05) == pytest.approx(expect, rel=1e-12)
    assert expect < 1e-29  # astronomically small at this size


def test_sampling_bound_epsilon_zero():
    assert sampling_bound(100, 0.2, 0.0) == 1.0


def test_sampling_bound_degenerate_endpoints():
    assert sampling_bound(100, 0.0, 0.1) == 0.0
    assert sampling_bound(100, 1.0, 0.1) == 0.0


def test_sampling_bound_monotone():
    for n1, n2 in [(100, 200), (200, 400)]:
        assert sampling_bound(n2, 0.1, 0.05) < sampling_bound(n1, 0.1, 0.05)
    for e1, e2 in [(0.01, 0.02), (0.02, 0.05)]:
        assert sampling_bound(100, 0.1, e2) < sampling_bound(100, 0.1, e1)


def test_sampling_bound_domain():
    with pytest.raises(ValueError):
        sampling_bound(0, 0.1, 0.1)
    with pytest.raises(ValueError):
        sampling_bound(10, -0.1, 0.1)


# ---------------------------------------------------------------------------
# leakage bound


def test_leakage_zero_eta():
    b = leakage_bound(8, 0.0)
    assert b == {"entropy_bound": 0.0, "uniformity_deficit": 0.0, "total": 0.0}


def test_leakage_frozen_value():
    # r=4, eta=0.01: total = 0.12 + h(0.01) = 0.2008 to four places.
    b = leakage_bound(4, 0.01)
    assert b["total"] == pytest.approx(0.2008, abs=1e-4)
    assert b["entropy_bound"] == pytest.approx(binary_entropy(0.01) + 0.04, abs=1e-12)
    assert b["uniformity_deficit"] == pytest.approx(0.08, abs=1e-12)


def test_leakage_decomposition_identity():
    for eta in (0.001, 0.01, 0.1, 0.3):
        for r in (1, 4, 11):
            b = leakage_bound(r, eta)
            assert b["entropy_bound"] + b["uniformity_deficit"] == pytest.approx(
                b["total"], abs=1e-12
            )


def test_leakage_monotone_in_eta():
    prev = -1.0
    for eta in (0.0, 0.01, 0.05, 0.1, 0.2):
        tot = leakage_bound(4, eta)["total"]
        assert tot > prev
        prev = tot


# ---------------------------------------------------------------------------
# empirical sampling check


def test_empirical_check_delta_zero():
    assert empirical_sampling_check(1000, 50, 0.0, 0.1, seed=1) == 0.0


def test_empirical_check_within_envelope():
    freq = empirical_sampling_check(20_000, 100, 0.1, 0.1, seed=2)
    assert freq <= max(sampling_bound(100, 0.1, 0.1), 10.0 / 20_000)


def test_empirical_check_epsilon_monotone():
    freqs = [
        empirical_sampling_check(20_000, 60, 0.15, eps, seed=3)
        for eps in (0.02, 0.08, 0.2)
    ]
    assert freqs[0] >= freqs[1] >= freqs[2]


def test_empirical_check_envelope_grid():
    # The envelope holds for the checker's own sampling model across a grid;
    # the SamplingBoundExceeded tripwire stays silent on honest inputs.
    for n, delta, eps in [(50, 0.25, 0.05), (100, 0.1, 0.03), (200, 0.05, 0.1)]:
        freq = empirical_sampling_check(10_000, n, delta, eps, seed=5)
        assert freq <= max(sampling_bound(n, delta, eps), 10.0 / 10_000)


def test_empirical_check_matches_exact_failure_probability():
    # T and S are independent Bin(n, delta) counts under the sampling model,
    # so the failure probability is a product of two binomial tails.
    trials, n, delta, eps = 200_000, 60, 0.15, 0.02

    def pmf(j):
        return math.comb(n, j) * delta**j * (1 - delta) ** (n - j)

    low = sum(pmf(j) for j in range(n + 1) if j <= delta * n)
    high = sum(pmf(j) for j in range(n + 1) if j > n * (delta + eps))
    p = low * high
    freq = empirical_sampling_check(trials, n, delta, eps, seed=11)
    assert abs(freq - p) <= 5 * math.sqrt(p * (1 - p) / trials)


def test_empirical_check_memory_does_not_grow_with_n():
    # Two counts per trial: 200 000 trials at n=1024 used to mean 330 MB
    # batches of per-bit floats.
    tracemalloc.start()
    try:
        empirical_sampling_check(200_000, 1024, 0.05, 0.05, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_empirical_check_domain():
    with pytest.raises(ValueError):
        empirical_sampling_check(0, 50, 0.1, 0.1)

"""The session's random choices: protocol's own draw loop against CPython.

`_sample` and `_shuffle` must make exactly the `getrandbits` calls of
`random.Random.sample` and `shuffle`, so the test half R, the key set S and
the permutation stay what the golden transcripts pin.  Each check compares
the output and the generator state afterwards with the library call.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlab.protocol import _sample, _shuffle

SEEDS = st.integers(0, 2**64 - 1)


def assert_sample_matches(seed, population, k):
    mine, ref = random.Random(seed), random.Random(seed)
    assert _sample(mine, population, k) == ref.sample(population, k)
    assert mine.getstate() == ref.getstate()


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, data=st.data())
def test_sample_draws_what_random_sample_draws(seed, data):
    n = data.draw(st.integers(0, 3000), label="n")
    k = data.draw(st.integers(0, n), label="k")
    # a list of other values than the indices, as sifting's candidates are
    assert_sample_matches(seed, [3 * i + 1 for i in range(n)], k)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, n=st.integers(0, 3000))
def test_shuffle_draws_what_random_shuffle_draws(seed, n):
    mine, ref = random.Random(seed), random.Random(seed)
    x, y = list(range(n)), list(range(n))
    _shuffle(mine, x)
    ref.shuffle(y)
    assert x == y
    assert mine.getstate() == ref.getstate()


# CPython walks a pool while the population is at most 21 for k <= 5, and at
# most 21 + 64 = 85 for k = 6; above that it samples into a set
@pytest.mark.parametrize(
    "n, k",
    [(21, k) for k in range(6)] + [(22, k) for k in range(6)] + [(85, 6), (86, 6)],
)
@pytest.mark.parametrize("seed", range(4))
def test_sample_at_the_pool_and_set_boundary(seed, n, k):
    assert_sample_matches(seed, range(n), k)


def test_sample_at_the_wire_cap():
    # Alice's test half at n = 65535: |Omega| = 353 890 signals
    assert_sample_matches(2, range(353890), 176945)


def test_sample_rejects_what_random_sample_rejects():
    for k in (-1, 4, 9):
        with pytest.raises(ValueError):
            _sample(random.Random(0), range(3), k)

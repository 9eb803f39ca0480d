import math

import numpy as np
import pytest

from glyphlab import ArgumentError, Rng, glorot_init
from glyphlab.numerics import derive_seed

# First outputs of the seed-0 stream; these pin the generator bit-for-bit
# and match the published reference vector for this algorithm.
SEED0_STREAM = [16294208416658607535, 7960286522194355700, 487617019471545679]


class TestRng:
    def test_seed0_stream_pinned(self):
        r = Rng(0)
        assert [r.next_u64() for _ in range(3)] == SEED0_STREAM

    def test_identical_seeds_identical_draws(self):
        a, b = Rng(12345), Rng(12345)
        assert [a.uniform() for _ in range(1000)] == [b.uniform() for _ in range(1000)]

    def test_bulk_matches_scalar_path(self):
        a, b = Rng(99), Rng(99)
        scalars = [a.next_u64() for _ in range(257)]
        assert scalars == [int(v) for v in b._bulk_u64(257)]

    def test_degenerate_interval(self):
        assert Rng(1).uniform(0.5, 0.5) == 0.5

    def test_bounds_order_checked(self):
        with pytest.raises(ArgumentError):
            Rng(1).uniform(1.0, 0.0)

    def test_mean_of_unit_draws(self):
        u = Rng(7).uniform_array(100_000, 0.0, 1.0)
        assert 0.49 <= u.mean() <= 0.51

    def test_draws_stay_in_range(self):
        u = Rng(21).uniform_array(10_000, -2.0, 3.0)
        assert u.min() >= -2.0 and u.max() < 3.0

    def test_shuffle_is_permutation(self):
        items = list(range(50))
        Rng(4).shuffle(items)
        assert sorted(items) == list(range(50))
        assert items != list(range(50))

    def test_derive_seed_order_sensitive(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(1, 2) != derive_seed(1, 2, 0)


class TestGlorot:
    def test_bound_is_one_for_fan_three(self):
        w = glorot_init(Rng(5), 3, 3, (50, 50))
        assert np.abs(w).max() < 1.0

    def test_reproducible(self):
        a = glorot_init(Rng(8), 4, 4, (10, 10))
        b = glorot_init(Rng(8), 4, 4, (10, 10))
        assert np.array_equal(a, b)

    def test_statistics_fan_six(self):
        w = glorot_init(Rng(13), 6, 6, (100, 100))
        assert np.abs(w).max() <= math.sqrt(0.5)
        assert -0.02 <= w.mean() <= 0.02

    def test_zero_fans_rejected(self):
        with pytest.raises(ArgumentError):
            glorot_init(Rng(1), 0, 3, (2, 2))

"""Exact-arithmetic helpers: integer k-th roots."""

import math
import random

import pytest

from gtseq.numerics import int_nth_root


class TestIntNthRoot:
    @pytest.mark.parametrize("k", range(2, 11))
    def test_floor_root_of_random_radicands(self, k):
        # Radicands of up to 2,000 bits, far past float precision, where a
        # float-seeded Newton iteration could start below the root.
        rng = random.Random(k)
        for _ in range(200):
            n = rng.getrandbits(rng.randint(1, 2000))
            r, exact = int_nth_root(n, k)
            assert r**k <= n < (r + 1) ** k
            assert exact == (r**k == n)
            if k == 2:
                assert r == math.isqrt(n)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_perfect_powers_are_exact(self, k):
        for r in (2, 3, 10**30 + 7, 2**200 - 1):
            assert int_nth_root(r**k, k) == (r, True)
            assert int_nth_root(r**k - 1, k) == (r - 1, False)

import numpy as np
import pytest
import scipy.linalg

from backaction import numerics


class TestMatExp:
    def test_zero_maps_to_identity_exactly(self):
        out = numerics.mat_exp(np.zeros((4, 4)))
        assert np.array_equal(out, np.eye(4))

    def test_diagonal(self):
        d = np.diag([-1.5, 0.0, 0.25, 3.0])
        expected = np.diag(np.exp(np.diag(d)))
        np.testing.assert_allclose(numerics.mat_exp(d), expected, rtol=1e-13)

    def test_nilpotent_truncates(self):
        # Strictly upper-triangular generator: the series stops at order 2,
        # so the exact answer is available without any exponential oracle.
        g = np.zeros((4, 4))
        g[0, 1] = 0.7
        g[1, 2] = -1.3
        g[0, 3] = 2.0
        expected = np.eye(4) + g + g @ g / 2.0 + g @ g @ g / 6.0
        np.testing.assert_allclose(numerics.mat_exp(g), expected, atol=1e-14)

    def test_matches_scipy_across_scales(self):
        rng = np.random.default_rng(20260822)
        for scale in (1e-3, 0.1, 1.0, 4.0, 40.0):
            for _ in range(20):
                a = scale * rng.standard_normal((5, 5))
                mine = numerics.mat_exp(a)
                ref = scipy.linalg.expm(a)
                np.testing.assert_allclose(
                    mine, ref, rtol=1e-9, atol=1e-9 * np.linalg.norm(ref))

    def test_inverse_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.standard_normal((4, 4))
            prod = numerics.mat_exp(a) @ numerics.mat_exp(-a)
            np.testing.assert_allclose(prod, np.eye(4), atol=1e-11)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            numerics.mat_exp(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        bad = np.zeros((3, 3))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            numerics.mat_exp(bad)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegconn.errors import DegenerateColumnError, ValidationError
from eegconn.seeding import derive_rng
from eegconn.spectral import (
    BandSpec,
    PdcTensor,
    band_grid,
    band_pdc,
    pdc_at,
)
from eegconn.var_model import VarModel
from oracles import random_stable_var, transfer_at


def model_of(coeffs, rate=128.0):
    coeffs = np.asarray(coeffs, dtype=float)
    return VarModel(coeffs=coeffs, noise_cov=np.eye(coeffs.shape[1]), rate=rate)


class TestTransfer:
    def test_zero_coeffs_gives_identity(self):
        model = model_of(np.zeros((2, 3, 3)))
        for f in (0.0, 5.0, 31.5, 64.0):
            np.testing.assert_array_equal(transfer_at(model, f), np.eye(3))

    def test_scalar_dc_value(self):
        model = model_of(np.full((1, 1, 1), 0.5))
        assert transfer_at(model, 0.0)[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_matches_independent_summation(self):
        model = random_stable_var(4, 2, derive_rng(31, "oracle"))
        for f in (0.0, 3.7, 17.2, 64.0):
            # independent evaluation path: explicit per-lag loop
            acc = np.eye(4, dtype=complex)
            for lag in range(1, 3):
                acc = acc - model.coeffs[lag - 1] * np.exp(-2j * np.pi * lag * f / model.rate)
            np.testing.assert_allclose(transfer_at(model, f), acc, atol=1e-12)

    def test_zero_frequency_identity(self):
        model = random_stable_var(5, 4, derive_rng(32, "dc"))
        expected = np.eye(5) - model.coeffs.sum(axis=0)
        assert np.abs(transfer_at(model, 0.0) - expected).max() < 1e-14

    def test_conjugate_symmetry(self):
        model = random_stable_var(3, 3, derive_rng(33, "conj"))
        a = transfer_at(model, 20.0)
        b = transfer_at(model, model.rate - 20.0)
        np.testing.assert_allclose(a, np.conj(b), atol=1e-12)

    def test_out_of_range_frequency(self):
        model = model_of(np.zeros((1, 2, 2)))
        with pytest.raises(ValidationError):
            transfer_at(model, 200.0)


class TestPdc:
    def test_zero_model_gives_identity_pdc(self):
        model = model_of(np.zeros((2, 3, 3)))
        np.testing.assert_array_equal(pdc_at(model, 10.0), np.eye(3))

    def test_structural_zero_propagates(self):
        # influence channel 1 -> channel 2 only (coeffs[0][1,0] = 0.5)
        coeffs = np.zeros((1, 2, 2))
        coeffs[0, 1, 0] = 0.5
        model = model_of(coeffs)
        for f in (0.0, 8.0, 30.0, 64.0):
            p = pdc_at(model, f)
            assert p[0, 1] == 0.0  # no influence 2 -> 1
            assert p[1, 0] > 0.0

    def test_zero_iff_transfer_zero(self):
        model = random_stable_var(4, 2, derive_rng(34, "zeros"))
        for f in (2.0, 40.0):
            a = np.abs(transfer_at(model, f))
            p = pdc_at(model, f)
            np.testing.assert_array_equal(p == 0.0, a == 0.0)

    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 64.0))
    @settings(max_examples=30)
    def test_column_normalization(self, seed, f):
        model = random_stable_var(4, 3, np.random.default_rng(seed))
        p = pdc_at(model, f)
        np.testing.assert_allclose((p**2).sum(axis=0), 1.0, atol=1e-10)
        assert p.min() >= 0.0 and p.max() <= 1.0 + 1e-12


class TestBandSpec:
    def test_default_partition(self):
        bands = BandSpec()
        assert bands.names == ("delta", "theta", "alpha", "beta", "gamma")
        assert bands.bands[0][1:] == (1.0, 4.0)
        assert bands.bands[4][1:] == (30.0, 64.0)

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            BandSpec(bands=(("a", 1.0, 5.0), ("b", 4.0, 8.0)))

    def test_band_grid_strictly_below_edge(self):
        g = band_grid(1.0, 4.0, 0.25)
        assert g[0] == 1.0 and g[-1] == 3.75 and len(g) == 12
        assert (g < 4.0).all()


class TestBandPdc:
    def test_zero_model_self_excluded_is_all_zero(self):
        model = model_of(np.zeros((2, 16, 16)))
        t = band_pdc(model, exclude_self=True)
        assert t.values.shape == (16, 16, 5)
        assert np.all(t.values == 0.0)

    def test_full_montage_shape(self):
        model = random_stable_var(16, 5, derive_rng(35, "shape"))
        t = band_pdc(model, grid_step=0.25, exclude_self=True)
        assert t.values.shape == (16, 16, 5)
        assert np.all(np.diagonal(t.values, axis1=0, axis2=1) == 0.0)

    def test_single_frequency_band_equals_pointwise(self):
        model = random_stable_var(3, 2, derive_rng(36, "single"))
        bands = BandSpec(bands=(("one", 10.0, 10.2),))
        t = band_pdc(model, bands, grid_step=0.25, exclude_self=False)
        np.testing.assert_array_equal(t.values[:, :, 0], pdc_at(model, 10.0))

    def test_every_band_is_the_mean_of_pointwise_pdc(self):
        model = random_stable_var(16, 5, derive_rng(39, "mean"))
        t = band_pdc(model, exclude_self=False)
        for b, (_, lo, hi) in enumerate(BandSpec().bands):
            pointwise = [pdc_at(model, f) for f in band_grid(lo, hi, 0.25)]
            np.testing.assert_array_equal(t.values[:, :, b], np.mean(pointwise, axis=0))

    def test_zero_norm_column_names_first_frequency(self):
        coeffs = np.zeros((1, 3, 3))
        coeffs[0, 1, 1] = 1.0  # column 1 of A(f) vanishes at f = 0 exactly
        bands = BandSpec(bands=(("low", 0.0, 4.0),))
        with pytest.raises(DegenerateColumnError, match="column 1 has zero norm at f = 0.0 Hz"):
            band_pdc(model_of(coeffs), bands, grid_step=1.0)

    def test_grid_refinement_converges(self):
        model = random_stable_var(3, 3, derive_rng(37, "conv"), target_radius=0.6)
        coarse = band_pdc(model, grid_step=0.25, exclude_self=False).values
        fine = band_pdc(model, grid_step=0.125, exclude_self=False).values
        assert np.abs(coarse - fine).max() < 1e-3

    def test_band_above_nyquist_rejected(self):
        model = model_of(np.zeros((1, 2, 2)), rate=100.0)  # nyquist 50 < 64
        with pytest.raises(ValidationError, match="Nyquist"):
            band_pdc(model)

    def test_mean_within_band_bounds(self):
        model = random_stable_var(4, 3, derive_rng(38, "bounds"))
        t = band_pdc(model, exclude_self=False)
        assert t.values.min() >= 0.0 and t.values.max() <= 1.0


class TestPdcTensorInvariants:
    def test_out_of_range_rejected(self):
        bad = np.full((2, 2, 5), 1.5)
        with pytest.raises(ValidationError):
            PdcTensor(values=bad, self_excluded=False)

    def test_nonzero_diagonal_with_exclusion_rejected(self):
        vals = np.full((2, 2, 5), 0.5)
        with pytest.raises(ValidationError):
            PdcTensor(values=vals, self_excluded=True)

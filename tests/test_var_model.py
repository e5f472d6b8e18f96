import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegconn.eeg_io import EegRecording
from eegconn.errors import SingularDesignError, ValidationError
from eegconn.seeding import derive_rng
from eegconn.var_model import (
    VarModel,
    bic_order_select,
    build_design,
    companion_spectral_radius,
    fit_var,
    simulate_var,
    var_feature_tensor,
)
from oracles import random_stable_var, stacked


def rec_of(data, rate=128.0):
    return EegRecording(data=np.asarray(data, dtype=float), rate=rate)


class TestBuildDesign:
    def test_single_channel_lag1(self):
        d = build_design(rec_of([[1.0], [2.0], [3.0], [4.0]]), 1)
        np.testing.assert_array_equal(d.x, [[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(d.y, [[2.0], [3.0], [4.0]])

    def test_two_channel_lag2_row_layout(self):
        y1, y2, y3 = [1.0, 10.0], [2.0, 20.0], [3.0, 30.0]
        d = build_design(rec_of([y1, y2, y3]), 2)
        # single row: [y'_2 (lag 1), y'_1 (lag 2)], response y'_3
        np.testing.assert_array_equal(d.x, [y2 + y1])
        np.testing.assert_array_equal(d.y, [y3])

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            build_design(rec_of([[1.0], [2.0], [3.0]]), 3)  # zero usable rows

    def test_bad_order(self):
        with pytest.raises(ValidationError):
            build_design(rec_of([[1.0], [2.0]]), 0)


class TestFitVar:
    def test_recovers_var1_coefficients(self):
        a = np.array([[[0.5, 0.0], [0.3, 0.4]]])
        rec = simulate_var(a, np.eye(2), 4000, derive_rng(11, "fit1"))
        model = fit_var(rec, 1)
        assert np.abs(model.coeffs - a).max() < 0.05

    def test_white_noise_coefficients_near_zero(self):
        rng = derive_rng(12, "wn")
        rec = rec_of(rng.standard_normal((8000, 2)))
        model = fit_var(rec, 1)
        assert np.abs(model.coeffs).max() < 0.05

    def test_coefficient_orientation(self):
        # y2 driven by lagged y1 only: the influence lands in coeffs[0][1, 0]
        a = np.array([[[0.0, 0.0], [0.6, 0.0]]])
        rec = simulate_var(a, np.eye(2), 6000, derive_rng(13, "orient"))
        model = fit_var(rec, 1)
        assert model.coeffs[0][1, 0] > 0.5
        assert abs(model.coeffs[0][0, 1]) < 0.05

    def test_insufficient_samples_states_minimum(self):
        with pytest.raises(ValidationError, match=r"T >= 12"):
            fit_var(rec_of(np.random.default_rng(0).standard_normal((11, 2))), 5)

    def test_duplicated_channel_is_singular(self):
        rng = derive_rng(14, "dup")
        base = rng.standard_normal(3000)
        rec = rec_of(np.stack([base, base], axis=1))
        with pytest.raises(SingularDesignError):
            fit_var(rec, 2)

    def test_residual_orthogonality(self):
        rec = simulate_var(
            np.array([[[0.4, 0.1], [0.2, 0.3]]]), np.eye(2), 3000, derive_rng(15, "orth")
        )
        model = fit_var(rec, 1)
        d = build_design(rec, 1)
        resid = d.y - d.x @ stacked(model)
        gram = d.x.T @ resid
        scale = np.linalg.norm(d.x, axis=0)[:, None] * np.linalg.norm(resid, axis=0)[None, :]
        assert np.abs(gram / np.maximum(scale, 1e-300)).max() < 1e-6

    def test_noise_cov_symmetric_psd(self):
        for seed in range(5):
            model_true = random_stable_var(3, 2, derive_rng(16, "psd", seed))
            rec = simulate_var(model_true.coeffs, np.eye(3), 1500, derive_rng(17, "psd", seed))
            fit = fit_var(rec, 2)
            cov = fit.noise_cov
            assert np.abs(cov - cov.T).max() < 1e-10
            assert np.linalg.eigvalsh(cov).min() > -1e-8

    def test_self_consistency_refit(self):
        gen = random_stable_var(3, 2, derive_rng(18, "selfc"), target_radius=0.7)
        rec = simulate_var(gen.coeffs, np.eye(3), 20000, derive_rng(19, "selfc"))
        fit1 = fit_var(rec, 2)
        rec2 = simulate_var(fit1.coeffs, fit1.noise_cov, 20000, derive_rng(20, "selfc"))
        fit2 = fit_var(rec2, 2)
        assert np.abs(fit2.coeffs - fit1.coeffs).max() < 0.08

    def test_consistency_improves_with_t(self):
        a = np.array([[[0.5, 0.1], [0.2, 0.4]]])
        errs = []
        for t in (1000, 4000, 16000):
            per_seed = []
            for seed in range(10):
                rec = simulate_var(a, np.eye(2), t, derive_rng(21, "cons", t, seed))
                per_seed.append(np.abs(fit_var(rec, 1).coeffs - a).max())
            errs.append(np.mean(per_seed))
        assert errs[0] > errs[1] > errs[2]


class TestBic:
    def test_recovers_order_three(self):
        coeffs = np.zeros((3, 2, 2))
        coeffs[0] = [[0.3, 0.0], [0.0, 0.3]]
        coeffs[2] = [[0.0, 0.45], [0.45, 0.0]]  # strong lag-3 coupling
        assert companion_spectral_radius(coeffs) < 1
        rec = simulate_var(coeffs, np.eye(2), 8000, derive_rng(22, "bic3"))
        best, scores = bic_order_select(rec, 6)
        assert best == 3
        assert len(scores) == 6

    def test_white_noise_selects_one(self):
        rec = rec_of(derive_rng(23, "bicwn").standard_normal((4000, 2)))
        best, _ = bic_order_select(rec, 10)
        assert best == 1

    def test_tie_breaks_small(self):
        # argmin picks the first (smallest) order on exact ties by construction
        rec = rec_of(derive_rng(24, "tie").standard_normal((500, 2)))
        best, scores = bic_order_select(rec, 3)
        assert best == int(np.argmin(scores)) + 1


class TestFeatureTensor:
    def test_shape_and_layout(self):
        model = random_stable_var(16, 5, derive_rng(25, "shape"))
        t = var_feature_tensor(model)
        assert t.shape == (16, 16, 5)
        assert t[3, 7, 2] == model.coeffs[2][3, 7]

    def test_identity_slice(self):
        model = VarModel(coeffs=np.eye(4)[None] * 0.5, noise_cov=np.eye(4), rate=128.0)
        t = var_feature_tensor(model)
        np.testing.assert_array_equal(t[:, :, 0], 0.5 * np.eye(4))

    def test_roundtrip(self):
        model = random_stable_var(4, 3, derive_rng(26, "rt"))
        # the tensor is a lossless relayout: moving the lag axis back recovers A(l)
        back = var_feature_tensor(model).transpose(2, 0, 1)
        np.testing.assert_array_equal(back, model.coeffs)


class TestModelInvariants:
    def test_asym_cov_rejected(self):
        with pytest.raises(ValidationError):
            VarModel(coeffs=np.zeros((1, 2, 2)), noise_cov=np.array([[1.0, 0.5], [0.0, 1.0]]),
                     rate=128.0)

    def test_nonfinite_coeff_rejected(self):
        c = np.zeros((1, 2, 2))
        c[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            VarModel(coeffs=c, noise_cov=np.eye(2), rate=128.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15)
    def test_random_stable_models_are_stable(self, seed):
        model = random_stable_var(4, 3, np.random.default_rng(seed))
        assert companion_spectral_radius(model.coeffs) < 0.95

    def test_simulate_rejects_unstable(self):
        with pytest.raises(ValidationError):
            simulate_var(np.array([[[1.2]]]), np.eye(1), 100, derive_rng(27, "unstable"))

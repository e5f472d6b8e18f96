import numpy as np
import pytest

from eegconn.errors import ValidationError
from eegconn.svm import LinearSvm, train_svm


class TestTrainSvm:
    def test_separable_toy_perfect(self):
        x = np.array([[0.0, 0.0]] * 20 + [[1.0, 1.0]] * 20)
        bits = np.array([0] * 20 + [1] * 20)
        svm = train_svm(x, bits)
        assert (svm.predict(x)[0] == bits).all()

    def test_identical_features_default_to_majority(self):
        x = np.ones((30, 4))
        bits = np.array([1] * 20 + [0] * 10)
        svm = train_svm(x, bits)
        assert (svm.predict(x)[0] == 1).all()
        # and the mirrored cohort goes the other way
        svm2 = train_svm(x, 1 - bits)
        assert (svm2.predict(x)[0] == 0).all()

    def test_margin_grows_as_regularization_vanishes(self, rng):
        x = np.vstack([rng.standard_normal((25, 2)) + 3.0,
                       rng.standard_normal((25, 2)) - 3.0])
        bits = np.array([1] * 25 + [0] * 25)
        margins = []
        for l2 in (1.0, 1e-2, 1e-4):
            svm = train_svm(x, bits, l2=l2, steps=4000)
            # smallest geometric margin over the set, signed
            y = 2.0 * bits - 1.0
            margins.append((y * svm.decision(x)).min() / np.linalg.norm(svm.weights))
        assert margins[0] < margins[-1]
        assert margins[-1] > 0  # separable data ends up separated

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            train_svm(np.ones((5, 2)), np.ones(5, dtype=int))

    def test_constant_feature_does_not_blow_up(self, rng):
        signed = np.where(rng.random(20) > 0.5, 1.0, -1.0) * (0.5 + rng.random(20))
        x = np.hstack([np.full((20, 1), 3.0), signed[:, None]])
        bits = (x[:, 1] > 0).astype(int)
        svm = train_svm(x, bits)
        assert np.isfinite(svm.weights).all()
        assert (svm.predict(x)[0] == bits).mean() == 1.0

    def test_param_arrays_roundtrip(self, rng):
        x = rng.standard_normal((20, 3))
        bits = (x[:, 0] > 0).astype(int)
        svm = train_svm(x, bits)
        clone = LinearSvm.from_param_arrays(svm.param_arrays())
        np.testing.assert_array_equal(clone.predict(x)[0], svm.predict(x)[0])
        np.testing.assert_allclose(clone.decision(x), svm.decision(x), atol=1e-15)

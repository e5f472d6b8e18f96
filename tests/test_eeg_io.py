import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eegconn.eeg_io import (
    EegRecording,
    load_manifest,
    load_recording,
    save_recording_csv,
    standardize,
)
from eegconn.errors import ParseError, ShapeError, ValidationError


def write(path, text):
    path.write_text(text)
    return path


class TestLoadRecording:
    def test_csv_matrix_shape_passthrough(self, tmp_path):
        p = write(tmp_path / "a.csv", "1,2\n3,4\n5,6\n7,8\n")
        rec = load_recording(p, "csv_matrix", rate=128.0)
        assert rec.data.shape[1] == 2 and rec.samples == 4
        assert rec.data[3, 1] == 8.0

    def test_whitespace_delimited(self, tmp_path):
        p = write(tmp_path / "a.txt", "1 2\n3 4\n5 6\n")
        rec = load_recording(p, "csv_matrix", rate=1.0)
        assert rec.data.shape == (3, 2)

    def test_column_concat_full_minute(self, tmp_path, rng):
        # 128 Hz x 60 s x 16 channels as one flat column
        values = rng.standard_normal(7680 * 16)
        p = tmp_path / "flat.txt"
        np.savetxt(p, values, fmt="%.17g")
        rec = load_recording(p, "column_concat", channels=16, rate=128.0)
        assert rec.data.shape[1] == 16 and rec.samples == 7680
        # channel-major: the first 7680 values are channel 1
        np.testing.assert_allclose(rec.data[:, 0], values[:7680])

    def test_column_concat_refuses_a_matrix(self, tmp_path, rng):
        # read row by row, a T x 16 table would pass as a flat stream with
        # its samples and channels interleaved
        p = tmp_path / "table.csv"
        np.savetxt(p, rng.standard_normal((64, 16)), fmt="%.17g", delimiter=",")
        with pytest.raises(ShapeError, match=r"table\.csv.*single column, found 16"):
            load_recording(p, "column_concat", channels=16, rate=128.0)

    def test_nan_rejected(self, tmp_path):
        p = write(tmp_path / "bad.csv", "1,2\nnan,4\n")
        with pytest.raises(ValidationError):
            load_recording(p, "csv_matrix", rate=1.0)

    def test_parse_error_names_line(self, tmp_path):
        p = write(tmp_path / "bad.csv", "1,2\n3,oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_recording(p, "csv_matrix", rate=1.0)

    def test_divisibility_violation(self, tmp_path):
        p = write(tmp_path / "bad.txt", "\n".join(str(i) for i in range(7)) + "\n")
        with pytest.raises(ShapeError):
            load_recording(p, "column_concat", channels=3, rate=1.0)

    def test_unknown_format_rejected(self, tmp_path):
        p = write(tmp_path / "a.csv", "1,2\n3,4\n")
        with pytest.raises(ValidationError):
            load_recording(p, "guess_me", rate=1.0)

    def test_channel_count_cross_check(self, tmp_path):
        p = write(tmp_path / "a.csv", "1,2\n3,4\n")
        with pytest.raises(ShapeError):
            load_recording(p, "csv_matrix", channels=3, rate=1.0)

    def test_loaders_agree_on_same_matrix(self, tmp_path, rng):
        mat = rng.standard_normal((11, 3))
        pm = tmp_path / "m.csv"
        np.savetxt(pm, mat, fmt="%.17g", delimiter=",")
        pc = tmp_path / "c.txt"
        np.savetxt(pc, mat.T.reshape(-1), fmt="%.17g")
        a = load_recording(pm, "csv_matrix", rate=1.0)
        b = load_recording(pc, "column_concat", channels=3, rate=1.0)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_roundtrip_identity(self, tmp_path, rng):
        rec = EegRecording(data=rng.standard_normal((20, 4)), rate=128.0, subject_id="s")
        p = tmp_path / "out.csv"
        save_recording_csv(rec, p)
        back = load_recording(p, "csv_matrix", rate=128.0)
        np.testing.assert_allclose(back.data, rec.data, atol=1e-12)


class TestRecordingInvariants:
    def test_nonfinite_rejected(self):
        data = np.ones((4, 2))
        data[1, 0] = np.inf
        with pytest.raises(ValidationError):
            EegRecording(data=data, rate=1.0)

    def test_rate_positive(self):
        with pytest.raises(ValidationError):
            EegRecording(data=np.ones((4, 2)), rate=0.0)

    def test_needs_2d(self):
        with pytest.raises(ShapeError):
            EegRecording(data=np.ones(4), rate=1.0)


class TestStandardize:
    def test_zscore_basic(self):
        rec = EegRecording(data=np.array([[1.0], [2.0], [3.0]]), rate=1.0)
        out = standardize(rec)
        assert abs(out.data.mean()) < 1e-12
        assert abs(out.data.std() - 1.0) < 1e-12

    def test_constant_channel_zeroed_with_warning(self):
        rec = EegRecording(data=np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), rate=1.0)
        with pytest.warns(UserWarning, match="constant channel"):
            out = standardize(rec)
        assert np.all(out.data[:, 0] == 0.0)

    def test_already_standardized_unchanged(self, rng):
        data = rng.standard_normal((50, 3))
        once = standardize(EegRecording(data=data, rate=1.0))
        twice = standardize(once)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-12)

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=20),
            elements=st.floats(-1e6, 1e6),
        )
    )
    def test_idempotent(self, data):
        import warnings

        rec = EegRecording(data=data, rate=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            once = standardize(rec)
            twice = standardize(once)
        assert np.abs(twice.data - once.data).max() < 1e-10


class TestManifest:
    def test_three_valid_rows(self, tmp_path):
        p = write(tmp_path / "m.csv",
                  "path,subject_id,label\na.csv,s1,SZ\nb.csv,s2,HC\nc.csv,s3,SZ\n")
        m = load_manifest(p)
        assert len(m) == 3
        assert m.class_names == ("SZ", "HC")
        assert m.labels()["s3"] == "SZ"

    def test_duplicate_id_rejected(self, tmp_path):
        p = write(tmp_path / "m.csv",
                  "path,subject_id,label\na.csv,s1,SZ\nb.csv,s1,HC\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_manifest(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "m.csv", "")
        with pytest.raises(ValidationError, match="empty manifest"):
            load_manifest(p)

    def test_header_only(self, tmp_path):
        p = write(tmp_path / "m.csv", "path,subject_id,label\n")
        with pytest.raises(ValidationError, match="empty manifest"):
            load_manifest(p)

    def test_unknown_label_names_row(self, tmp_path):
        p = write(tmp_path / "m.csv",
                  "path,subject_id,label\na.csv,s1,SZ\nb.csv,s2,XX\n")
        with pytest.raises(ValidationError, match="line 3"):
            load_manifest(p, class_names=("SZ", "HC"))

    def test_third_class_rejected(self, tmp_path):
        p = write(tmp_path / "m.csv",
                  "path,subject_id,label\na.csv,s1,SZ\nb.csv,s2,HC\nc.csv,s3,XX\n")
        with pytest.raises(ValidationError, match="line 4"):
            load_manifest(p)

    def test_bad_header(self, tmp_path):
        p = write(tmp_path / "m.csv", "file,id,group\na.csv,s1,SZ\n")
        with pytest.raises(ParseError):
            load_manifest(p)

import numpy as np
import pytest

from tlscavity import DataError
from tlscavity.datafiles import (read_csv_columns, read_ringdown_csv,
                                 read_sweep_csv, read_trace_csv)


def test_read_csv_columns(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
    cols = read_csv_columns(p, ["a", "b"])
    assert np.allclose(cols["a"], [1.0, 3.0])
    assert np.allclose(cols["b"], [2.0, 4.0])


def test_read_csv_missing_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(DataError):
        read_csv_columns(p, ["a", "c"])


def test_read_csv_bad_value_cites_line(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1.0,2.0\nx,4.0\n")
    with pytest.raises(DataError, match="line 3"):
        read_csv_columns(p, ["a", "b"])


def test_read_csv_nan_cites_line(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1.0,2.0\n3.0,nan\n")
    with pytest.raises(DataError, match="line 3.*column b"):
        read_csv_columns(p, ["a", "b"])


def test_read_csv_ragged_row(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1.0\n")
    with pytest.raises(DataError):
        read_csv_columns(p, ["a", "b"])


def test_read_ringdown(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("time_s,n\n0.0,1e10\n0.001,5e9\n0.002,2.5e9\n")
    t, n = read_ringdown_csv(p)
    assert t[0] == 0.0 and len(t) == 3
    assert n[2] == 2.5e9


def test_read_ringdown_validation(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("time_s,n\n0.001,1e10\n0.002,5e9\n")
    with pytest.raises(DataError):
        read_ringdown_csv(p)  # missing t = 0 reference
    p.write_text("time_s,n\n0.0,1e10\n0.002,5e9\n0.001,2e9\n")
    with pytest.raises(DataError):
        read_ringdown_csv(p)  # non-increasing times
    p.write_text("time_s,n\n0.0,1e10\n0.001,-5e9\n")
    with pytest.raises(DataError):
        read_ringdown_csv(p)  # non-positive photon number


def test_read_sweep(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("frequency_hz,re_s11,im_s11\n7.9e9,0.5,-0.1\n7.90001e9,0.4,0.2\n")
    f, s = read_sweep_csv(p)
    assert f[0] == 7.9e9
    assert s[0] == pytest.approx(0.5 - 0.1j)
    assert s[1] == pytest.approx(0.4 + 0.2j)


def test_read_trace_watts_and_dbm(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("time_s,power_w\n0.0,1e-12\n0.001,5e-13\n")
    t, w = read_trace_csv(p)
    assert w[0] == 1e-12
    q = tmp_path / "q.csv"
    q.write_text("time_s,power_w\n0.0,-90.0\n0.001,-93.0\n")
    t2, w2 = read_trace_csv(q, dbm=True)
    assert w2[0] == pytest.approx(1e-12, rel=1e-12)
    assert w2[1] == pytest.approx(10.0 ** ((-93.0 - 30.0) / 10.0), rel=1e-12)


def test_missing_file():
    with pytest.raises(DataError):
        read_ringdown_csv("/nonexistent/path.csv")

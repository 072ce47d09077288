"""Generator and CSV ingestion tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digmix.datagen import (
    CsvError,
    NonNumericCellError,
    RaggedRowsError,
    gen_miller_harrison,
    gen_misspec4,
    gen_motivating5,
    load_csv,
    misspec4_params,
    standardize,
)


# ---------------------------------------------------------------- three-cluster family

def test_miller_harrison_shapes_and_labels():
    ds = gen_miller_harrison(500, 4, np.random.default_rng(0))
    assert ds.x.shape == (500, 4)
    assert set(np.unique(ds.labels)) == {0, 1, 2}


def test_miller_harrison_centres():
    rng = np.random.default_rng(1)
    ds = gen_miller_harrison(60000, 2, rng)
    c = 3.0 / math.sqrt(2)
    for k, centre in enumerate([-c, 0.0, c]):
        pts = ds.x[ds.labels == k]
        assert pts.mean(axis=0) == pytest.approx([centre, centre], abs=0.05)
        assert pts.std(axis=0) == pytest.approx([1.0, 1.0], abs=0.05)


def test_miller_harrison_equal_weights():
    ds = gen_miller_harrison(30000, 1, np.random.default_rng(2))
    props = np.bincount(ds.labels) / 30000
    assert np.all(np.abs(props - 1 / 3) < 0.02)


def test_miller_harrison_validation():
    with pytest.raises(ValueError):
        gen_miller_harrison(2, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        gen_miller_harrison(10, 0, np.random.default_rng(0))


# ---------------------------------------------------------------- five-cluster family

def test_motivating5_centres():
    ds = gen_motivating5(50000, np.random.default_rng(3))
    assert ds.x.shape == (50000, 2)
    for k in range(5):
        centre = [-10 + 5 * k] * 2
        assert ds.x[ds.labels == k].mean(axis=0) == pytest.approx(centre, abs=0.07)


def test_motivating5_all_components_hit():
    ds = gen_motivating5(500, np.random.default_rng(4))
    assert set(np.unique(ds.labels)) == set(range(5))


# ---------------------------------------------------------------- misspecified family

def test_misspec4_params_oracle():
    pi, mu, covs = misspec4_params()
    assert pi.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(covs[1], [[1.35, 1.15], [1.15, 1.35]], atol=1e-12)
    np.testing.assert_allclose(covs[0], np.eye(2))
    np.testing.assert_allclose(covs[2], np.diag([3.0, 0.1]))


def test_misspec4_component_moments():
    rng = np.random.default_rng(5)
    ds = gen_misspec4(200000, rng)
    pi, mu, covs = misspec4_params()
    props = np.bincount(ds.labels) / ds.n
    assert np.all(np.abs(props - pi) < 0.01)
    for k in range(4):
        pts = ds.x[ds.labels == k]
        np.testing.assert_allclose(pts.mean(axis=0), mu[k], atol=0.1)
        np.testing.assert_allclose(np.cov(pts.T), covs[k], atol=0.1)


def test_misspec4_rare_component_present_at_scale():
    ds = gen_misspec4(5000, np.random.default_rng(6))
    assert set(np.unique(ds.labels)) == set(range(4))


# ---------------------------------------------------------------- CSV ingestion

def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_csv_with_header_and_label(tmp_path):
    p = _write(tmp_path, "a,b,cls\n1.0,2.0,0\n3.5,4.5,1\n")
    ds = load_csv(p, label_column="cls")
    np.testing.assert_allclose(ds.x, [[1.0, 2.0], [3.5, 4.5]])
    np.testing.assert_array_equal(ds.labels, [0, 1])


def test_load_csv_label_by_index(tmp_path):
    p = _write(tmp_path, "a,b,cls\n1,2,0\n3,4,1\n")
    ds = load_csv(p, label_column=2)
    np.testing.assert_allclose(ds.x, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(ds.labels, [0, 1])


def test_load_csv_error_taxonomy(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "missing.csv")
    with pytest.raises(RaggedRowsError):
        load_csv(_write(tmp_path, "a,b\n1,2\n3\n", "ragged.csv"))
    with pytest.raises(NonNumericCellError):
        load_csv(_write(tmp_path, "a,b\n1,x\n", "nonnum.csv"))
    with pytest.raises(CsvError):
        load_csv(_write(tmp_path, "", "empty.csv"))
    with pytest.raises(CsvError):
        load_csv(_write(tmp_path, "a,b\n", "headonly.csv"))
    with pytest.raises(CsvError):
        load_csv(_write(tmp_path, "a,b\n1,2\n", "badlabel.csv"), label_column="nope")
    with pytest.raises(CsvError):
        load_csv(_write(tmp_path, "a,b\n1,nan\n", "nan.csv"))
    with pytest.raises(CsvError):
        load_csv(_write(tmp_path, "a,b\n1,2.5\n", "fraclabel.csv"), label_column="b")


@pytest.mark.parametrize("label", ["2.99999", "99999.5"])
def test_load_csv_rejects_non_integer_labels(tmp_path, label):
    # Both lie within np.allclose's relative tolerance of an integer.
    p = _write(tmp_path, f"a,cls\n1.0,0\n2.0,{label}\n")
    with pytest.raises(CsvError, match="integer-valued"):
        load_csv(p, label_column="cls")
    ds = load_csv(_write(tmp_path, "a,cls\n1.0,1.0\n2.0,2\n", "whole.csv"), label_column="cls")
    np.testing.assert_array_equal(ds.labels, [0, 1])


def test_load_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((20, 3))
    lines = ["c0,c1,c2"] + [",".join(repr(float(v)) for v in row) for row in x]
    ds = load_csv(_write(tmp_path, "\n".join(lines) + "\n"))
    np.testing.assert_allclose(ds.x, x, rtol=0, atol=0)


# ---------------------------------------------------------------- standardization

@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_standardize_roundtrip(seed):
    rng = np.random.default_rng(seed)
    ds = gen_miller_harrison(50, 3, rng)
    std, params = standardize(ds)
    assert std.x.mean(axis=0) == pytest.approx(np.zeros(3), abs=1e-10)
    assert std.x.std(axis=0) == pytest.approx(np.ones(3), abs=1e-10)
    mean, sd = params
    np.testing.assert_allclose(std.x * sd + mean, ds.x, atol=1e-10)
    np.testing.assert_array_equal(std.labels, ds.labels)


def test_standardize_rejects_constant_column():
    from digmix.model import Dataset

    with pytest.raises(ValueError):
        standardize(Dataset(x=np.ones((5, 2))))

"""Synthetic benchmark generators and CSV ingestion."""

from __future__ import annotations

import csv
import math

import numpy as np

from .model import Dataset


class CsvError(ValueError):
    """Malformed CSV input."""


class RaggedRowsError(CsvError):
    pass


class NonNumericCellError(CsvError):
    pass


def gen_miller_harrison(n: int, d: int, rng) -> Dataset:
    """Three equally weighted spherical Gaussians with centres +-3/sqrt(d) and 0.

    Each centre value is replicated across all d coordinates; covariance is
    the identity.  Mixture weights are equal (1/3 each).
    """
    if n < 3 or d < 1:
        raise ValueError("need n >= 3 and d >= 1")
    c = 3.0 / math.sqrt(d)
    means = np.array([[-c] * d, [0.0] * d, [c] * d])
    labels = rng.integers(0, 3, n)
    x = means[labels] + rng.standard_normal((n, d))
    return Dataset(x=x, labels=labels)


MOTIVATING5_MEANS = np.array([[-10.0, -10.0], [-5.0, -5.0], [0.0, 0.0], [5.0, 5.0], [10.0, 10.0]])


def gen_motivating5(n: int, rng) -> Dataset:
    """Five well-separated unit-covariance bivariate Gaussians on the diagonal."""
    if n < 5:
        raise ValueError("need n >= 5")
    labels = rng.integers(0, 5, n)
    x = MOTIVATING5_MEANS[labels] + rng.standard_normal((n, 2))
    return Dataset(x=x, labels=labels)


def misspec4_params():
    """Weights, means, and full covariances of the misspecified 4-cluster design."""
    pi = np.array([0.44, 0.30, 0.25, 0.01])
    mu = np.array([[4.0, 4.0], [7.0, 4.0], [6.0, 2.0], [8.0, 10.0]])
    c = math.cos(math.pi / 4)
    s = math.sin(math.pi / 4)
    R = np.array([[c, -s], [s, c]])
    covs = np.array([
        np.eye(2),
        R @ np.diag([2.5, 0.2]) @ R.T,
        np.diag([3.0, 0.1]),
        np.diag([0.1, 0.1]),
    ])
    return pi, mu, covs


def gen_misspec4(n: int, rng) -> Dataset:
    """Four-cluster bivariate mixture with rotated and elongated covariances.

    The second component's covariance is full (non-diagonal); fitting a
    diagonal model to this data is deliberately misspecified.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    pi, mu, covs = misspec4_params()
    chol = np.linalg.cholesky(covs)  # (4, 2, 2)
    labels = rng.choice(4, size=n, p=pi)
    eps = rng.standard_normal((n, 2))
    x = mu[labels] + np.einsum("nij,nj->ni", chol[labels], eps)
    return Dataset(x=x, labels=labels)


def load_csv(path, label_column=None) -> Dataset:
    """Read a rectangular numeric CSV, whose first row is a header as wide as the rows, into a Dataset.

    ``label_column`` selects the ground-truth column by header name or
    0-based index; it is excluded from the feature matrix.
    """
    # utf-8-sig drops a leading byte-order mark, as spreadsheets write one.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            rows = [row for row in csv.reader(fh) if row]
        except UnicodeDecodeError as exc:
            raise CsvError(f"not UTF-8 text: {exc}") from None
    if not rows:
        raise CsvError("empty file")
    header, rows = rows[0], rows[1:]
    if not rows:
        raise CsvError("no data rows")
    width = len(header)
    label_idx = None
    if label_column is not None:
        if isinstance(label_column, str):
            if label_column not in header:
                raise CsvError(f"label column {label_column!r} not found")
            label_idx = header.index(label_column)
        else:
            label_idx = int(label_column)
            if not 0 <= label_idx < width:
                raise CsvError(f"label column index {label_idx} out of range")

    values = np.empty((len(rows), width))
    for r, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRowsError(f"row {r} has {len(row)} cells, the header {width}")
        for c, cell in enumerate(row):
            try:
                values[r, c] = float(cell)
            except ValueError:
                raise NonNumericCellError(f"non-numeric cell {cell!r} at row {r}, column {c}") from None
    if not np.all(np.isfinite(values)):
        raise CsvError("NaN or infinite value in input")

    labels = None
    if label_idx is not None:
        labels = values[:, label_idx]
        if not np.array_equal(labels, np.round(labels)):
            raise CsvError("label column must be integer-valued")
        labels = labels.astype(int)
        values = np.delete(values, label_idx, axis=1)
    try:
        return Dataset(x=values, labels=labels)
    except ValueError as exc:
        raise CsvError(exc) from None


def standardize(dataset: Dataset):
    """Center each column and scale to unit population variance.

    Returns the transformed dataset together with the per-column (mean, sd)
    needed to invert the transform.
    """
    mean = dataset.x.mean(axis=0)
    sd = dataset.x.std(axis=0)  # population convention
    if np.any(sd <= 0):
        raise ValueError("degenerate column")
    x = (dataset.x - mean) / sd
    return Dataset(x=x, labels=dataset.labels), (mean, sd)

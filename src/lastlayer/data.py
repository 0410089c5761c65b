"""Dataset construction: synthetic regression generator, CSV ingestion,
splitting and standardization.

Datasets are immutable pairs of float64 matrices (inputs N x d_in, targets
N x d_out) with optional column names.  The synthetic generator draws a
random two-layer tanh teacher and is fully determined by its seed.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import Matrix, _check_finite
from .rng import Rng, derive

SYNTHETIC_INPUT_DIM = 10
SYNTHETIC_HIDDEN_DIM = 5


class CsvFormatError(ValueError):
    """CSV structure problem; carries the message without its position and
    the 1-based line (and column) position."""

    def __init__(self, message: str, line: int, column: Optional[int] = None):
        self.message = message
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{message} ({where})")

    def __reduce__(self):
        return type(self), (self.message, self.line, self.column)


@dataclass
class Dataset:
    x: Matrix
    y: Matrix
    feature_names: Optional[list] = None
    target_names: Optional[list] = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.ndim != 2 or self.y.ndim != 2:
            raise ValueError("dataset matrices must be 2-D")
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"inputs have {self.x.shape[0]} rows but targets have {self.y.shape[0]}"
            )
        if self.x.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        _check_finite(self.x, "dataset input")
        _check_finite(self.y, "dataset target")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def input_dim(self) -> int:
        return self.x.shape[1]

    @property
    def output_dim(self) -> int:
        return self.y.shape[1]

    def subset(self, indices) -> "Dataset":
        """The rows ``indices``, in that order, as a Dataset of its own.

        Indexing by an integer array already copies the rows, so the subset
        shares no memory with this dataset and is made in one copy."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.x[idx],
            self.y[idx],
            feature_names=self.feature_names,
            target_names=self.target_names,
        )


def gen_synthetic(n: int = 10000, seed: int = 0) -> Dataset:
    """Teacher-generated regression data.

    Inputs are uniform on [0,1]^10; targets come from a fixed random
    two-layer teacher, tanh(X @ W1) @ W2, with W1 uniform on [-1,1]^(10x5)
    and W2 uniform on [-1,1]^(5x1) drawn once per call.  Every |y| is at
    most 5 by construction.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = Rng(seed)
    x = rng.uniform_matrix(n, SYNTHETIC_INPUT_DIM)
    w1 = rng.uniform_matrix(SYNTHETIC_INPUT_DIM, SYNTHETIC_HIDDEN_DIM, -1.0, 1.0)
    w2 = rng.uniform_matrix(SYNTHETIC_HIDDEN_DIM, 1, -1.0, 1.0)
    return Dataset(x, np.tanh(x @ w1) @ w2)


def _parse_cell(cell: str, line: int, column: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise CsvFormatError(f"non-numeric cell {cell!r}", line, column) from None
    if not math.isfinite(value):
        raise CsvFormatError(f"non-finite cell {cell!r}", line, column)
    return value


def _resolve_columns(requested, header, width: int, what: str) -> list:
    if not requested:
        raise ValueError(f"{what} columns select nothing: the list is empty")
    resolved = []
    for item in requested:
        if isinstance(item, int) and not isinstance(item, bool):
            if not 0 <= item < width:
                raise ValueError(f"{what} column index {item} out of range [0, {width})")
            index = item
        elif not isinstance(item, str):
            raise ValueError(f"{what} column {item!r} is neither a name nor a 0-based index")
        else:
            if header is None:
                raise ValueError(
                    f"{what} column {item!r} requested by name but the file has no header"
                )
            if item not in header:
                raise ValueError(f"{what} column {item!r} not found in header {header}")
            index = header.index(item)
            if item in header[index + 1:]:
                raise ValueError(f"{what} column {item!r} names both column {index} and column "
                                 f"{header.index(item, index + 1)} of the header")
        if index in resolved:
            raise ValueError(f"{what} column {item!r} selects column {index} a second time")
        resolved.append(index)
    return resolved


def _column_request(item) -> str:
    return f"{item!r} by name" if isinstance(item, str) else f"{item} by index"


def load_csv(path: str, feature_columns, target_columns, has_header: bool = True) -> Dataset:
    """Load a numeric comma-separated file into a Dataset.

    Columns may be selected by name (requires a header that names the
    column once) or 0-based index; no column may be both a feature and a
    target.  Ragged rows and non-numeric cells are reported with their
    1-based line number.  Each row's selected cells become floats as the
    row is read, so the file is never held as text.  The file is read as
    UTF-8; a leading byte-order mark, which spreadsheet exports write, is
    skipped.
    """
    # imported here: loading the extension module costs each process about
    # 0.1 MB of resident memory, and only a CSV read needs it
    from array import array

    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise CsvFormatError("empty file", 1)
        header = None
        first_line = 1
        if has_header:
            header = [cell.strip() for cell in first]
            first = next(reader, None)
            first_line = 2
        if first is None:
            raise CsvFormatError("no data rows", first_line)

        width = len(first)
        if header is not None and len(header) != width:
            raise CsvFormatError(
                f"header has {len(header)} columns but the first data row has {width}", 1
            )
        f_idx = _resolve_columns(feature_columns, header, width, "feature")
        t_idx = _resolve_columns(target_columns, header, width, "target")
        for f_item, index in zip(feature_columns, f_idx):
            if index in t_idx:
                t_item = target_columns[t_idx.index(index)]
                raise ValueError(
                    f"column {index} is selected as both feature and target (feature column "
                    f"{_column_request(f_item)}, target column {_column_request(t_item)})"
                )

        x_cells, y_cells = array("d"), array("d")
        for line, row in enumerate(itertools.chain([first], reader), first_line):
            if len(row) != width:
                raise CsvFormatError(f"expected {width} columns, found {len(row)}", line)
            x_cells.extend(_parse_cell(row[col], line, col + 1) for col in f_idx)
            y_cells.extend(_parse_cell(row[col], line, col + 1) for col in t_idx)
    x = np.frombuffer(x_cells).reshape(-1, len(f_idx))
    y = np.frombuffer(y_cells).reshape(-1, len(t_idx))

    feature_names = [header[i] for i in f_idx] if header else None
    target_names = [header[i] for i in t_idx] if header else None
    return Dataset(x, y, feature_names=feature_names, target_names=target_names)


def save_csv(ds: Dataset, path: str) -> None:
    """Write the dataset as headered UTF-8 CSV, lines ending in ``\\n``, each
    number as ``jsonio.format_float``'s ``%.17g``, which round-trips."""
    feature_names = ds.feature_names or [f"x{i}" for i in range(ds.input_dim)]
    target_names = ds.target_names or [f"y{i}" for i in range(ds.output_dim)]
    # the arrays may have changed since the Dataset checked them
    _check_finite(ds.x, "dataset input")
    _check_finite(ds.y, "dataset target")
    table = np.hstack([ds.x, ds.y])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", comments="",
                   header=",".join(list(feature_names) + list(target_names)))


def check_fraction(fraction: float) -> None:
    """Refuse a training share outside (0, 1)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")


def split_size(n: int, fraction: float) -> int:
    """The training rows of a split of ``n`` samples, floor(fraction * n);
    the rest are held out.  A fraction outside (0, 1), or a split that
    leaves either side empty, raises ValueError."""
    check_fraction(fraction)
    n_train = int(math.floor(fraction * n))
    if n_train < 1 or n - n_train < 1:
        raise ValueError(f"degenerate split: {n_train} train / {n - n_train} test from {n} samples")
    return n_train


def split(ds: Dataset, fraction: float, seed: int) -> tuple:
    """``(train, test)``: a seeded permutation, then its prefix of
    ``split_size`` rows and the suffix.

    The index sets are disjoint and cover the source exactly.
    """
    n_train = split_size(ds.n, fraction)
    perm = Rng(derive(seed, "split")).permutation(ds.n)
    return ds.subset(perm[:n_train]), ds.subset(perm[n_train:])


@dataclass
class StandardizeParams:
    mean: np.ndarray
    std: np.ndarray  # 1.0 for passthrough (constant) columns


def standardize(ds: Dataset) -> tuple:
    """Scale feature columns to zero mean, unit variance.

    Returns the transformed dataset and the per-column statistics so a test
    set can be transformed with the training statistics.  Constant columns
    pass through unchanged with a warning.
    """
    mean = np.mean(ds.x, axis=0)
    std = np.std(ds.x, axis=0)
    constant = std == 0.0
    if np.any(constant):
        cols = np.flatnonzero(constant).tolist()
        warnings.warn(f"constant feature columns {cols} left unscaled")
        mean = mean.copy()
        std = std.copy()
        mean[constant] = 0.0
        std[constant] = 1.0
    params = StandardizeParams(mean=mean, std=std)
    return apply_standardization(ds, params), params


def apply_standardization(ds: Dataset, params: StandardizeParams) -> Dataset:
    """``(x - mean) / std`` column by column, into a new dataset.

    The difference is the one new array; the division runs in place on it,
    so no second N-sized temporary is made."""
    x = ds.x - params.mean[None, :]
    x /= params.std[None, :]
    return Dataset(
        x,
        ds.y.copy(),
        feature_names=ds.feature_names,
        target_names=ds.target_names,
    )

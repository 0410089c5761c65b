"""Dataset construction: synthetic regression generator, CSV ingestion,
splitting and standardization.

Datasets are immutable pairs of float64 matrices (inputs N x d_in, targets
N x d_out) plus provenance text recording how they were made.  The
synthetic generator draws a random two-layer tanh teacher and is fully
determined by its seed.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import jsonio
from .linalg import Matrix, _check_finite
from .rng import Rng, derive

DATASET_FORMAT_VERSION = 1

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
    provenance: str = ""

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
            provenance=self.provenance,
        )


@dataclass
class Split:
    train: Dataset
    test: Dataset
    fraction: float
    seed: int


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
    y = np.tanh(x @ w1) @ w2
    teacher = {
        "w1": w1.tolist(),
        "w2": w2.tolist(),
    }
    provenance = (
        f"synthetic tanh teacher: n={n} seed={seed} "
        f"x~U[0,1]^{SYNTHETIC_INPUT_DIM} teacher={jsonio.dumps(teacher)}"
    )
    return Dataset(x, y, provenance=provenance)


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
    return Dataset(
        x,
        y,
        feature_names=feature_names,
        target_names=target_names,
        provenance=f"csv: path={path} features={feature_columns} targets={target_columns}",
    )


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


def split(ds: Dataset, fraction: float, seed: int) -> Split:
    """Seeded permutation, then prefix/suffix partition.

    Train gets floor(fraction * N) samples; the index sets are disjoint and
    cover the source exactly.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    n_train = int(math.floor(fraction * ds.n))
    if n_train < 1 or ds.n - n_train < 1:
        raise ValueError(
            f"degenerate split: {n_train} train / {ds.n - n_train} test from {ds.n} samples"
        )
    perm = Rng(derive(seed, "split")).permutation(ds.n)
    return Split(
        train=ds.subset(perm[:n_train]),
        test=ds.subset(perm[n_train:]),
        fraction=fraction,
        seed=seed,
    )


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
        provenance=ds.provenance + " | standardized",
    )


def dataset_to_dict(ds: Dataset) -> dict:
    return {
        "format_version": DATASET_FORMAT_VERSION,
        "provenance": ds.provenance,
        "feature_names": ds.feature_names,
        "target_names": ds.target_names,
        "x": ds.x.tolist(),
        "y": ds.y.tolist(),
    }


def dataset_from_dict(doc: dict) -> Dataset:
    version = doc.get("format_version")
    if version != DATASET_FORMAT_VERSION:
        raise ValueError(f"unsupported dataset format_version {version!r}")
    return Dataset(
        np.array(doc["x"], dtype=np.float64),
        np.array(doc["y"], dtype=np.float64),
        feature_names=doc.get("feature_names"),
        target_names=doc.get("target_names"),
        provenance=doc.get("provenance", ""),
    )


def save_dataset(ds: Dataset, path: str) -> None:
    jsonio.dump(dataset_to_dict(ds), path)


def load_dataset(path: str) -> Dataset:
    return dataset_from_dict(jsonio.load(path))

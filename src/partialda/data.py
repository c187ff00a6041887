"""Synthetic benchmark generation, file formats and run reports.

Feature CSV files hold one sample per row; label files hold one
non-negative integer per line.  Values are written with ``repr`` so a
round trip through text reproduces them bit for bit.  Reports are single
JSON documents that the package writes and never reads back.

Feature files are parsed by numpy's C reader (``np.loadtxt``), fed one
line at a time from the open file, so that only one line is held as text
while the array fills.  A file it refuses, or that holds a character at
which ``str.splitlines`` and a file iterator break lines differently, is
read again by a line-by-line loop instead, which accepts exactly what
``float()`` accepts and names the row and value of the first bad cell.
Both paths agree on every file; the C reader only makes the common case
fast and small.  Files are written a row at a time.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .core import as_feature_matrix


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a partial-overlap two-domain benchmark.

    Class centers sit uniformly on a hypersphere.  Source samples are
    Gaussian draws around every center; target samples are fresh draws from
    the first ``num_target_classes`` centers, pushed through a small
    rotation in a random 2-plane plus a random translation.  Everything is
    driven by one seed, so equal specs give bitwise-equal datasets.

    The default noise level is chosen so that class cones overlap a little:
    plain label propagation then makes a handful of mistakes that the
    adaptation loop can fix, while a nearest-center classifier on the true
    centers still exceeds 0.99 accuracy.
    """

    num_source_classes: int = 10
    num_target_classes: int = 5
    dim: int = 20
    samples_per_class_source: int = 30
    samples_per_class_target: int = 20
    cluster_radius: float = 10.0
    noise_std: float = 2.5
    shift_rotation_deg: float = 10.0
    shift_translation: float = 1.0
    seed: int = 42

    def __post_init__(self):
        # NaN passes every comparison below and inf yields non-finite samples;
        # a field with an integer default must hold an integer
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, int):
                integral = isinstance(value, int) or (math.isfinite(value) and int(value) == value)
                if not integral:
                    raise ValidationError(f"{f.name} must be an integer, got {value}")
                object.__setattr__(self, f.name, int(value))  # 20.0 would break the shapes
            elif not isinstance(value, int) and not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value}")
        if self.num_source_classes < 1:
            raise ValidationError("num_source_classes must be >= 1")
        if not 1 <= self.num_target_classes <= self.num_source_classes:
            raise ValidationError(
                f"num_target_classes={self.num_target_classes} must lie in "
                f"[1, num_source_classes={self.num_source_classes}]"
            )
        if self.dim < 1:
            raise ValidationError("dim must be >= 1")
        if self.samples_per_class_source < 1 or self.samples_per_class_target < 1:
            raise ValidationError("samples per class must be >= 1")
        if self.cluster_radius <= 0:
            raise ValidationError("cluster_radius must be positive")
        if self.noise_std < 0:
            raise ValidationError("noise_std must be non-negative")
        if self.shift_translation < 0:
            raise ValidationError("shift_translation must be non-negative")
        if self.shift_rotation_deg != 0 and self.dim < 2:
            raise ValidationError("a rotation needs dim >= 2")
        if self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")


@dataclass(frozen=True)
class SyntheticDataset:
    """Generated features and labels plus the true class centers."""

    x_s: np.ndarray
    y_s: np.ndarray
    x_t: np.ndarray
    y_t: np.ndarray
    centers: np.ndarray


def _rotation_matrix(u: np.ndarray, v: np.ndarray, degrees: float) -> np.ndarray:
    theta = np.deg2rad(degrees)
    plane = np.outer(u, u) + np.outer(v, v)
    skew = np.outer(v, u) - np.outer(u, v)
    return np.eye(u.size) + (np.cos(theta) - 1.0) * plane + np.sin(theta) * skew


def generate_synthetic(spec: SyntheticSpec) -> SyntheticDataset:
    """Draw a dataset according to ``spec``, fully determined by its seed.

    Returns
    -------
    SyntheticDataset
        ``x_s`` is (dim, n_s) with class-major column order, ``y_s`` the
        matching integer labels; same layout for the target side, whose
        labels only cover the first ``num_target_classes`` classes.
    """
    rng = np.random.default_rng(spec.seed)
    d, c_s, c_t = spec.dim, spec.num_source_classes, spec.num_target_classes

    centers = rng.standard_normal((d, c_s))
    centers = centers / np.linalg.norm(centers, axis=0) * spec.cluster_radius

    m_s = spec.samples_per_class_source
    noise_s = spec.noise_std * rng.standard_normal((d, c_s * m_s))
    x_s = np.repeat(centers, m_s, axis=1) + noise_s
    y_s = np.repeat(np.arange(c_s), m_s)

    if d >= 2:
        u = rng.standard_normal(d)
        u = u / np.linalg.norm(u)
        v = rng.standard_normal(d)
        v = v - (u @ v) * u
        v = v / np.linalg.norm(v)
        rot = _rotation_matrix(u, v, spec.shift_rotation_deg)
    else:
        rot = np.eye(1)
    t_dir = rng.standard_normal(d)
    if spec.shift_translation > 0:
        shift = t_dir / np.linalg.norm(t_dir) * spec.shift_translation
    else:
        shift = np.zeros(d)

    m_t = spec.samples_per_class_target
    noise_t = spec.noise_std * rng.standard_normal((d, c_t * m_t))
    clean_t = np.repeat(centers[:, :c_t], m_t, axis=1) + noise_t
    x_t = rot @ clean_t + shift[:, None]
    y_t = np.repeat(np.arange(c_t), m_t)

    return SyntheticDataset(x_s=x_s, y_s=y_s, x_t=x_t, y_t=y_t, centers=centers)


def _read_text(path) -> str:
    """The file's contents as UTF-8; raises ParseError naming the file otherwise."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: byte {exc.start} is "
                         f"{exc.object[exc.start]:#04x}") from None


def _read_rows(path) -> list[tuple[int, str]]:
    text = _read_text(path)
    rows = [(i, line) for i, line in enumerate(text.splitlines(), start=1)]
    while rows and rows[-1][1].strip() == "":
        rows.pop()
    return rows


# Where str.splitlines breaks a line and a file iterator does not, besides
# the non-ASCII U+0085, U+2028 and U+2029, plus the U+001F that np.loadtxt
# strips as whitespace and float() does not
_LINE_LOOP_ONLY = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")


def _parse_c(path) -> np.ndarray | None:
    """The file as parsed by np.loadtxt, a line at a time; None where the line loop decides.

    The lines come from the open file with the universal newlines that
    ``_read_text`` applies, so they are the lines ``_read_rows`` sees unless
    one is non-ASCII or holds one of ``_LINE_LOOP_ONLY``; such a line stops
    the reader.  Blank lines are counted and not handed on, so the parsed
    rows must number the lines up to the last non-blank one.
    """
    rows = 0  # lines up to the last non-blank one
    blanks = 0  # blank lines since then

    def lines(file):
        nonlocal rows, blanks
        for line in file:
            if not line.isascii() or any(c in line for c in _LINE_LOOP_ONLY):
                raise ValueError("a line only the line loop reads alike")
            if line.isspace():
                blanks += 1
            else:
                rows += blanks + 1
                blanks = 0
                yield line

    with open(path, encoding="utf-8") as file:
        stream = lines(file)
        try:  # a UnicodeDecodeError is a ValueError too
            first = next(stream, None)
            if first is None:  # np.loadtxt warns on a file without data
                return None
            parsed = np.loadtxt(itertools.chain((first,), stream), delimiter=",",
                                comments=None, dtype=float, ndmin=2)
        except ValueError:
            return None
    return parsed if parsed.shape[0] == rows else None


def load_features_csv(path) -> np.ndarray:
    """Parse a feature CSV with one sample per row into a (d, n) matrix.

    The C reader parses the file first, one line at a time.  When it
    refuses a line, the file is not UTF-8, a line is non-ASCII or holds a
    character at which ``str.splitlines`` breaks lines and a file iterator
    does not (or U+001F, which the C reader strips as whitespace and
    ``float()`` does not), a blank line precedes a row, or the file holds no
    row, the line loop reads the file again and reports the first bad row.

    Raises
    ------
    ParseError
        On ragged rows, non-numeric cells or text that is not UTF-8,
        naming the offending line or byte.
    ValidationError
        On an empty file or non-finite values.
    OSError
        When the file cannot be read.
    """
    parsed = _parse_c(path)
    if parsed is None:
        rows = _read_rows(path)
        if not rows:
            raise ValidationError(f"empty feature file: {path}")
        parsed = _parse_rows(path, rows)
    return as_feature_matrix(parsed.T, name=f"features from {path}")


def _parse_rows(path, rows: list[tuple[int, str]]) -> np.ndarray:
    """Parse numbered lines cell by cell with ``float()``; raises ParseError."""
    width = None
    parsed = []
    for i, line in rows:
        parts = line.split(",")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise ParseError(f"{path}: row {i} has {len(parts)} columns, expected {width}")
        try:
            parsed.append([float(cell) for cell in parts])
        except ValueError:
            bad = next(cell for cell in parts if not _is_float(cell))
            raise ParseError(f"{path}: row {i}: non-numeric value {bad.strip()!r}") from None
    return np.array(parsed)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


# Labels are stored as int64: a label file may hold 0 .. 2**63 - 1.
_LABEL_LIMIT = 2**63


def load_labels(path) -> np.ndarray:
    """Parse a label file with one non-negative integer below 2**63 per line."""
    rows = _read_rows(path)
    if not rows:
        raise ValidationError(f"empty label file: {path}")
    labels = []
    for i, line in rows:
        try:
            value = int(line.strip())
        except ValueError:
            raise ParseError(f"{path}: line {i}: not an integer: {line.strip()!r}") from None
        if value < 0:
            raise ParseError(f"{path}: line {i}: negative label {value}")
        if value >= _LABEL_LIMIT:
            raise ParseError(f"{path}: line {i}: label {value} is not below 2**63")
        labels.append(value)
    return np.array(labels, dtype=int)


def _write_rows(rows: np.ndarray, path) -> None:
    """One line per row of a float array, each value the shortest repr that reads back exactly."""
    with open(path, "w", encoding="utf-8") as file:
        for row in rows:  # a row at a time: no copy of the file is held
            file.write(",".join(map(repr, row.tolist())) + "\n")


def save_features_csv(x, path) -> None:
    """Write a (d, n) feature matrix as CSV, one sample per row."""
    x = as_feature_matrix(x, "features")
    _write_rows(x.T, path)


def save_labels(labels, path) -> None:
    """Write one non-negative integer per line; refuses what load_labels refuses."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0 or labels.dtype.kind not in "iuf":
        raise ValidationError("labels must be a non-empty 1-dimensional array of numbers, "
                              f"got shape {labels.shape} and dtype {labels.dtype}")
    bad = (~np.isfinite(labels) | (labels < 0) | (labels != np.floor(labels))
           | (labels >= _LABEL_LIMIT))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValidationError(
            f"label {labels[i]} at index {i} is not a non-negative integer below 2**63")
    Path(path).write_text("\n".join(str(int(v)) for v in labels) + "\n")


def save_soft_labels(p, path) -> None:
    """Write a soft label matrix as CSV, one target per row; load_features_csv reads it."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2:
        raise ValidationError(f"soft labels must be 2-dimensional, got shape {p.shape}")
    _write_rows(p.T, path)


@dataclass(frozen=True)
class ResultReport:
    """Self-describing summary of one adaptation or baseline run."""

    config: dict
    overall_accuracy: float | None
    per_class_accuracy: dict[int, float] | None
    class_weights: list[float]
    class_mask: list[int]
    iterations_run: int
    history: list[dict] = field(default_factory=list)
    warnings: dict = field(default_factory=dict)
    duration_seconds: float = 0.0

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["format"] = "partialda-report"
        doc["version"] = 1
        if self.per_class_accuracy is not None:
            doc["per_class_accuracy"] = {
                str(k): v for k, v in self.per_class_accuracy.items()
            }
        return doc


def save_report(report: ResultReport, path) -> None:
    """Serialize a report as an indented JSON document."""
    Path(path).write_text(json.dumps(report.to_dict(), indent=2) + "\n")

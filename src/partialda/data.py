"""Synthetic benchmark generation and file formats.

Feature CSV files hold one sample per row; label files hold one
non-negative integer per line.  Values are written with ``repr`` so a
round trip through text reproduces them bit for bit.

Every text file is read as UTF-8 through one line generator, so the
format has one rule: lines are what Python's universal newlines split (at
LF, CR LF or a lone CR), blank lines after the last row are dropped, and
a feature value is what ``np.loadtxt`` reads as a float, a label what it
reads as an int64.  The generator feeds numpy's C reader a line at a
time, so one line of text is held while the array fills, and the row the
reader refuses is the last line it was handed.  Files are written as
UTF-8, a row at a time.

A feature file is parsed by P = min(usable CPUs, size // ``_SPLIT_BYTES``)
forked readers where P >= 2, so from 2 MiB on.  Each reads one contiguous
range of the generator's lines, split at line numbers estimated from the
file size and the length of the first line, and sends its rows through a
pipe into the one result array.  The values are those of the one-process
reader, bit for bit.  If any reader fails, or the ranges disagree in
width, the other readers are stopped and the file is parsed again in one
process, so every error is that reader's.
"""

from __future__ import annotations

import itertools
import os
import warnings
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .core import as_feature_matrix, check_numeric_fields


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
        check_numeric_fields(self, ValidationError)
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


def _lines(path):
    """Yield (number, line) for each line of a UTF-8 text file up to its last non-blank one.

    Lines are split by Python's universal newlines and numbered from 1; a
    blank line before a later one is yielded too, for the reader to refuse.
    Raises ParseError naming the offset of the first byte that is not UTF-8.
    """
    blanks = []
    with open(path, encoding="utf-8") as file:
        try:
            for number, line in enumerate(file, start=1):
                if line.isspace():
                    blanks.append((number, line))
                    continue
                yield from blanks
                blanks.clear()
                yield number, line
        except UnicodeDecodeError:
            # the decoder counts from its chunk: the file's offset needs the whole file
            raw = Path(path).read_bytes()
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: not UTF-8 text: byte {exc.start} is "
                                 f"{raw[exc.start]:#04x}") from None
            raise


def _load_rows(path, kind: str, dtype, refused, width: int | None = None,
               start: int = 0, stop: int | None = None) -> np.ndarray:
    """``np.loadtxt`` of a text file's comma-separated rows, handed on a line at a time.

    Only the lines ``_lines`` yields from index ``start`` up to ``stop``
    are read.  It stops at the first row it refuses, the last line handed
    on, and ``refused(path, first, number, line)``, given the first line,
    returns the error naming it.  A blank line before a row is refused, and
    so is the first row when the rows do not have ``width`` cells.
    """
    with closing(_lines(path)) as numbered:
        lines = itertools.islice(numbered, start, stop)
        first = last = next(lines, None)
        if first is None:  # np.loadtxt warns on a file without data
            raise ValidationError(f"empty {kind} file: {path}")

        def rows():
            nonlocal last
            for last in itertools.chain((first,), lines):
                if last[1].isspace():  # np.loadtxt would skip it
                    raise ValueError("a blank line before a row")
                yield last[1]

        try:
            parsed = np.loadtxt(rows(), delimiter=",", comments=None, dtype=dtype, ndmin=2)
        except ParseError:
            raise
        except ValueError:
            raise refused(path, first[1], *last) from None
    if width is not None and parsed.shape[1] != width:  # every row has the first's cells
        raise refused(path, first[1], *first)
    return parsed


def load_features_csv(path) -> np.ndarray:
    """Parse a feature CSV with one sample per row into a (d, n) matrix.

    Each line is handed to ``np.loadtxt`` as it is read, so one line of
    text is held besides the array it fills, and the reader accepts exactly
    the values ``np.loadtxt`` reads.  The first row it refuses is named by
    its cells.  A file of 2 MiB or more is split between forked readers
    (see the module docstring), with the same values and errors.

    Raises
    ------
    ParseError
        On ragged rows, non-numeric cells, a blank line before a row or
        text that is not UTF-8, naming the offending row or byte.
    ValidationError
        On an empty file or non-finite values.
    OSError
        When the file cannot be read.
    """
    parsed = _load_split(path)
    if parsed is None:
        parsed = _load_rows(path, "feature", float, _refused_row)
    return as_feature_matrix(parsed.T, name=f"features from {path}")


# The least share of a file one forked reader takes.  Parsing costs about
# 9 ms per MiB and a fork, exit and wait 1.4 ms with 128 MB resident (one
# core of a 2-CPU x86-64 VM), so two readers tie one at about 0.8 MiB of
# file; the margin covers the costlier fork of a larger process.
_SPLIT_BYTES = 1 << 20


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _load_split(path) -> np.ndarray | None:
    """The rows of a feature file parsed by forked readers, one range of lines each.

    Returns None where the file is to be parsed in one process: it is
    small, one CPU is usable, ``os.fork`` is missing, ``os.pipe`` or
    ``os.fork`` fails, or any reader failed, so that route raises every
    error.  The parent parses nothing: it holds the result array, filled
    from each reader's pipe in turn, and one line of the file.
    """
    try:
        size = os.stat(path).st_size
        count = min(_usable_cpus(), size // _SPLIT_BYTES)
        if count < 2 or not hasattr(os, "fork"):
            return None
        with open(path, "rb") as file:
            first = len(file.readline(1 << 20))
    except OSError:
        return None
    # an estimate (a lone CR ends no line here): a bad one only unbalances the readers
    lines = size // max(first, 1)
    count = min(count, lines)
    if count < 2:
        return None
    bounds = [lines * k // count for k in range(count)] + [None]
    readers = []  # (pid, read end of its pipe)
    done = False
    try:
        for start, stop in zip(bounds, bounds[1:]):
            pipe = ()
            try:
                pipe = read_end, write_end = os.pipe()
                with warnings.catch_warnings():
                    # Python 3.12+ warns that the BLAS threads make fork() unsafe.
                    # The reader parses text, calls no BLAS and leaves by os._exit.
                    warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                            DeprecationWarning)
                    pid = os.fork()
            except OSError:  # out of descriptors or processes: the started readers are stopped
                for fd in pipe:
                    os.close(fd)
                return None
            if pid == 0:
                for _, fd in readers:
                    os.close(fd)
                os.close(read_end)
                _send_rows(path, start, stop, write_end)
            os.close(write_end)
            readers.append((pid, read_end))

        # each reader sends its row count and width, or -1 rows, then its rows
        shapes = np.zeros((len(readers), 2), dtype=np.int64)
        for (_, fd), shape in zip(readers, shapes):
            if not _read_into(fd, shape) or shape[0] < 0:
                return None
        widths = set(shapes[shapes[:, 0] > 0, 1].tolist())
        if len(widths) != 1:
            return None
        parsed = np.empty((int(shapes[:, 0].sum()), widths.pop()))
        offset = 0
        for (_, fd), (rows, _) in zip(readers, shapes):
            if not _read_into(fd, parsed[offset:offset + rows]):
                return None
            offset += rows
        done = True
        return parsed
    finally:
        if readers and not done:
            from signal import SIGKILL  # only a failed split needs it: not loaded at import
        for pid, fd in readers:
            os.close(fd)  # a reader still writing fails, and leaves
            try:
                if not done:  # the serial reader need not wait for the other ranges
                    os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # reaped, where SIGCHLD is ignored
                pass


def _send_rows(path, start: int, stop: int | None, fd: int):
    """In a forked reader: send the rows of lines ``start`` to ``stop`` down ``fd``, then exit."""
    try:
        with open(fd, "wb") as out:
            try:
                rows = _load_rows(path, "feature", float, _refused_row, start=start, stop=stop)
            except ValidationError:  # only raised for no line: the range starts past the last
                rows = np.empty((0, 0))
            except BaseException:  # an interrupt too: a reader never unwinds into its parent's code
                out.write(np.array([-1, 0], dtype=np.int64).tobytes())
                return
            out.write(np.array(rows.shape, dtype=np.int64).tobytes())
            out.write(np.ascontiguousarray(rows))
    finally:
        os._exit(0)  # no atexit hooks, no flushing of the parent's buffers


def _read_into(fd: int, array: np.ndarray) -> bool:
    """Fill a C-contiguous ``array`` from a pipe; False if the pipe ends first."""
    view = memoryview(array.reshape(-1).view(np.uint8))
    while view:
        got = os.readv(fd, [view])
        if not got:
            return False
        view = view[got:]
    return True


def _refused_row(path, first: str, number: int, line: str) -> ParseError:
    """The error naming a row ``np.loadtxt`` refused, given the first row.

    A row whose cell count differs from the first row's is ragged;
    otherwise its first cell that ``np.loadtxt`` refuses is named.
    """
    cells, width = line.split(","), first.count(",") + 1
    if len(cells) != width:
        return ParseError(f"{path}: row {number} has {len(cells)} columns, expected {width}")
    # a blank line's one cell is empty, and np.loadtxt would skip the line
    bad = next(cell for column, cell in enumerate(cells)
               if line.isspace() or not _reads(line, column))
    return ParseError(f"{path}: row {number}: non-numeric value {bad.strip()!r}")


def _reads(line: str, column: int) -> bool:
    """Whether ``np.loadtxt`` reads the cell of ``line`` in ``column``."""
    try:
        np.loadtxt([line], delimiter=",", comments=None, dtype=float, usecols=[column])
        return True
    except ValueError:
        return False


def load_labels(path) -> np.ndarray:
    """Parse a label file with one non-negative integer below 2**63 per line.

    A label is what ``np.loadtxt`` reads as an int64, and the file is read
    a line at a time, as a feature file is.  Every line is a row, so array
    index i holds line i + 1.
    """
    labels = _load_rows(path, "label", np.int64, _refused_label, width=1)[:, 0]
    negative = np.flatnonzero(labels < 0)
    if negative.size:
        i = int(negative[0])
        raise ParseError(f"{path}: line {i + 1}: negative label {labels[i]}")
    return labels


def _refused_label(path, first: str, number: int, line: str) -> ParseError:
    """The error naming a label line ``np.loadtxt`` refused, given the first line.

    A first line holding a comma is the one refused, since the reader
    measured every later line against its cells.  A refused line of ASCII
    digits, signed or not, holds an integer that int64 cannot.
    """
    if "," in first:
        number, line = 1, first
    text = line.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        return ParseError(f"{path}: line {number}: not an integer: {text!r}")
    value = int(text)
    if value < 0:
        return ParseError(f"{path}: line {number}: negative label {value}")
    return ParseError(f"{path}: line {number}: label {value} is not below 2**63")


# Labels are stored as int64: a label file may hold 0 .. 2**63 - 1.
_LABEL_LIMIT = 2**63


def _write_rows(rows: np.ndarray, path) -> None:
    """One UTF-8 line per row of an array, each value the shortest repr that reads back exactly."""
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
    _write_rows(labels.astype(np.int64)[:, None], path)  # a Python int's repr is its digits


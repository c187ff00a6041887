"""Synthetic generator and file formats.

The generator oracle is an independent nearest-center classifier on the
true cluster centers, never anything from the adaptation code.
"""

import errno
import json
import math
import mmap
import os
import signal
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from partialda import cli
from partialda import data as data_module
from partialda import (
    AdaptationResult,
    ParseError,
    SyntheticSpec,
    ValidationError,
    generate_synthetic,
    load_features_csv,
    load_labels,
    save_features_csv,
    save_labels,
)


def nearest_center_oracle(x, centers):
    """Classify each column of x by its Euclidean-nearest center column."""
    d2 = ((x[:, None, :] - centers[:, :, None]) ** 2).sum(axis=0)
    return np.argmin(d2, axis=0)


def test_generator_is_deterministic():
    a = generate_synthetic(SyntheticSpec())
    b = generate_synthetic(SyntheticSpec())
    assert np.array_equal(a.x_s, b.x_s)
    assert np.array_equal(a.y_s, b.y_s)
    assert np.array_equal(a.x_t, b.x_t)
    assert np.array_equal(a.y_t, b.y_t)
    assert np.array_equal(a.centers, b.centers)
    c = generate_synthetic(SyntheticSpec(seed=43))
    assert not np.array_equal(a.x_s, c.x_s)


def test_generator_counts_and_partial_label_space():
    spec = SyntheticSpec()
    data = generate_synthetic(spec)
    assert data.x_s.shape == (20, 300)
    assert data.x_t.shape == (20, 100)
    assert data.centers.shape == (20, 10)
    counts_s = np.bincount(data.y_s, minlength=10)
    assert np.all(counts_s == 30)
    counts_t = np.bincount(data.y_t, minlength=10)
    assert np.all(counts_t[:5] == 20)
    assert np.all(counts_t[5:] == 0)  # outlier classes never generate targets
    norms = np.linalg.norm(data.centers, axis=0)
    assert np.allclose(norms, spec.cluster_radius, atol=1e-12)


def test_targets_are_nearest_their_true_centers():
    data = generate_synthetic(SyntheticSpec())
    shared = data.centers[:, :5]
    pred = nearest_center_oracle(data.x_t, shared)
    assert np.mean(pred == data.y_t) >= 0.99


def test_degenerate_generator_reproduces_centers_exactly():
    spec = SyntheticSpec(
        noise_std=0.0, shift_rotation_deg=0.0, shift_translation=0.0
    )
    data = generate_synthetic(spec)
    assert np.array_equal(data.x_s, data.centers[:, data.y_s])
    assert np.array_equal(data.x_t, data.centers[:, data.y_t])


def test_spec_validation():
    with pytest.raises(ValidationError, match="num_target_classes"):
        SyntheticSpec(num_source_classes=3, num_target_classes=4)
    with pytest.raises(ValidationError, match="dim"):
        SyntheticSpec(dim=0)
    with pytest.raises(ValidationError, match="noise_std"):
        SyntheticSpec(noise_std=-1.0)
    with pytest.raises(ValidationError, match="cluster_radius"):
        SyntheticSpec(cluster_radius=0.0)
    with pytest.raises(ValidationError, match="seed"):
        SyntheticSpec(seed=-1)
    with pytest.raises(ValidationError, match="rotation"):
        SyntheticSpec(dim=1, shift_rotation_deg=5.0)
    with pytest.raises(ValidationError, match="samples per class"):
        SyntheticSpec(samples_per_class_target=0)
    with pytest.raises(ValidationError, match="^num_source_classes must be >= 1$"):
        SyntheticSpec(num_source_classes=0)
    with pytest.raises(ValidationError, match="^shift_translation must be non-negative$"):
        SyntheticSpec(shift_translation=-1.0)


def test_one_dimensional_spec_without_rotation_generates():
    data = generate_synthetic(SyntheticSpec(dim=1, shift_rotation_deg=0.0))
    assert data.x_s.shape == (1, data.y_s.size) and data.x_t.shape == (1, data.y_t.size)
    assert np.isfinite(data.x_s).all() and np.isfinite(data.x_t).all()


@pytest.mark.parametrize("field", [
    "num_source_classes", "num_target_classes", "dim",
    "samples_per_class_source", "samples_per_class_target", "seed",
])
def test_spec_rejects_non_integral_integer_fields(field):
    # each used to reach generate_synthetic (or int()) and fail there with a
    # bare TypeError, ValueError or OverflowError
    for value in (2.5, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValidationError, match=f"^{field} must be an integer, got {value}$"):
            SyntheticSpec(**{field: value})
    for value in ("5", None):
        with pytest.raises(ValidationError, match=f"^{field} must be a number, got {value!r}$"):
            SyntheticSpec(**{field: value})
    spec = SyntheticSpec(**{field: 5.0})  # an integral float is taken as an int
    assert type(getattr(spec, field)) is int
    got, want = generate_synthetic(spec), generate_synthetic(SyntheticSpec(**{field: 5}))
    assert got.x_s.tobytes() == want.x_s.tobytes() and got.x_t.tobytes() == want.x_t.tobytes()


def test_feature_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(50)
    x = rng.standard_normal((4, 7)) * np.pi
    path = tmp_path / "x.csv"
    save_features_csv(x, path)
    assert np.array_equal(load_features_csv(path), x)


def test_feature_csv_layout(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    x = load_features_csv(path)
    assert x.shape == (2, 2)  # two samples, two features each
    assert np.array_equal(x[:, 0], [1.0, 2.0])
    assert np.array_equal(x[:, 1], [3.0, 4.0])


def test_feature_csv_parse_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0\n2.0,3.0\n")
    with pytest.raises(ParseError, match="row 2 has 2 columns, expected 1"):
        load_features_csv(ragged)

    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,oops\n")
    with pytest.raises(ParseError, match="non-numeric value 'oops'"):
        load_features_csv(bad)

    # the row named is the one the reader stopped at, however deep
    for row, message in (("1.5,x\n", "row 15000: non-numeric value 'x'"),
                         ("1.5\n", "row 15000 has 1 columns, expected 2")):
        bad.write_text("1.5,2\n" * 14999 + row + "1.5,2\n" * 5000)
        with pytest.raises(ParseError) as exc:
            load_features_csv(bad)
        assert str(exc.value) == f"{bad}: {message}"

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValidationError, match="empty feature file"):
        load_features_csv(empty)

    nonfinite = tmp_path / "nan.csv"
    nonfinite.write_text("1.0,nan\n")
    with pytest.raises(ValidationError, match="NaN or Inf"):
        load_features_csv(nonfinite)

    # a file that cannot be read raises the operating system's error
    with pytest.raises(FileNotFoundError):
        load_features_csv(tmp_path / "missing.csv")
    with pytest.raises(IsADirectoryError):
        load_features_csv(tmp_path)


EMPTY = (ValidationError, "empty feature file: {path}")
NON_FINITE = (ValidationError, "features from {path} contains NaN or Inf entries")


def refused(row, value):
    return ParseError, f"{{path}}: row {row}: non-numeric value {value!r}"


def ragged(row, columns, expected):
    return ParseError, f"{{path}}: row {row} has {columns} columns, expected {expected}"


# each input with the samples it parses to (one list per row) or the error
# it raises; lines are what universal newlines split, values what
# np.loadtxt reads
ODD_FILES = {
    "blank_line_mid_file": ("1,2\n\n3,4\n", ragged(2, 1, 2)),
    "whitespace_only_line": ("1,2\n \t\n3,4\n", ragged(2, 1, 2)),
    "leading_blank_line": ("\n1,2\n", refused(1, "")),
    "blank_line_single_column": ("1\n\n2\n", refused(2, "")),
    "trailing_blank_lines": ("1,2\n3,4\n\n  \n", [[1, 2], [3, 4]]),
    "crlf": ("1,2\r\n3,4\r\n", [[1, 2], [3, 4]]),
    "crlf_and_whitespace": (" 1 ,+2\r\n3e0,\t4.\r\n\r\n", [[1, 2], [3, 4]]),
    "spaces_and_tabs": (" 1.5 ,\t2\t\n  3 , 4 \n", [[1.5, 2], [3, 4]]),
    "leading_plus": ("+1,2\n3,+4e-2\n", [[1, 2], [3, 0.04]]),
    "underscore": ("1_0,2\n3,4\n", refused(1, "1_0")),
    "non_ascii_digit": ("\u0661,2\n3,\u0664.5\n", refused(1, "\u0661")),
    "fullwidth_digit": ("\uff11,2\n", refused(1, "\uff11")),
    "non_ascii_space": ("1\u00a0,\u20032\n", [[1, 2]]),
    "hash": ("#1,2\n3,4\n", refused(1, "#1")),
    "hash_after_value": ("1,2 # note\n", refused(1, "2 # note")),
    "quoted_cell": ('"1",2\n', refused(1, '"1"')),
    "empty_cell": ("1,,2\n", refused(1, "")),
    "trailing_comma": ("1,2,\n3,4,\n", refused(1, "")),
    "ragged": ("1,2\n3\n", ragged(2, 1, 2)),
    "nan": ("nan,1\n", NON_FINITE),
    "inf": ("1,inf\n", NON_FINITE),
    "infinity": ("-Infinity,1\n", NON_FINITE),
    "vertical_tab": ("1,2\x0b3,4\n", refused(1, "2\x0b3")),
    "vertical_tab_in_cell": ("1\x0b,2\n", [[1, 2]]),
    "form_feed": ("1\x0c2\n", refused(1, "1\x0c2")),
    "unit_separator": ("1\x1f,2\n", [[1, 2]]),
    "nul": ("1\x00,2\n", refused(1, "1\x00")),
    "hex": ("0x10,2\n", refused(1, "0x10")),
    "overflow": ("1e999,1\n", NON_FINITE),
    "single_value": ("7\n", [[7]]),
    "single_column": ("1\n2\n3\n", [[1], [2], [3]]),
    "no_final_newline": ("1,2\n3,4", [[1, 2], [3, 4]]),
    "only_blank_lines": ("\n\n", EMPTY),
    "only_whitespace_lines": (" \n\t\r\n  ", EMPTY),
    "trailing_whitespace_lines": ("1,2\n3,4\n \t\n\t\n", [[1, 2], [3, 4]]),
    "trailing_whitespace_no_final_newline": ("1,2\n3,4\n \t\n  ", [[1, 2], [3, 4]]),
    "byte_order_mark": ("\ufeff1,2\n3,4\n", refused(1, "\ufeff1")),
    "lone_cr_mid_row": ("1,\r2\n3,4\n", refused(1, "")),
    "lone_cr_between_rows": ("1,2\r3,4\r", [[1, 2], [3, 4]]),
    # invalid UTF-8 past the reader's first chunks: the byte offset named is
    # that of the whole file
    "invalid_utf8_deep": (b"1.25,2.5\n" * 40000 + b"3,\xff4\n",
                          (ParseError, "{path}: not UTF-8 text: byte 360002 is 0xff")),
}
# str.splitlines breaks lines at these, universal newlines do not, and
# np.loadtxt strips them as whitespace
for _char in "\x1c\x1d\x1e\x85\u2028\u2029":
    ODD_FILES[f"u{ord(_char):04x}_between_rows"] = (f"1,2{_char}3,4\n", refused(1, f"2{_char}3"))
    ODD_FILES[f"u{ord(_char):04x}_in_cell"] = (f"1{_char},2\n3,4\n", [[1, 2], [3, 4]])


@pytest.mark.parametrize("name", sorted(ODD_FILES))
def test_feature_csv_odd_inputs_match_line_loop(tmp_path, name):
    # every case's outcome is pinned: its array bit for bit, or its error text
    path = tmp_path / f"{name}.csv"
    content, want = ODD_FILES[name]
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    if isinstance(want, list):
        got, want = load_features_csv(path), np.array(want, dtype=float).T
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    else:
        error, text = want
        with pytest.raises(error) as got:
            load_features_csv(path)
        assert str(got.value) == text.format(path=path)


def outcome(path):
    """What loading ``path`` gives: its shape and bytes, or its error's type and text."""
    try:
        x = load_features_csv(path)
    except Exception as exc:
        return type(exc), str(exc)
    return x.shape, x.tobytes()


def force_split(monkeypatch, readers=3):
    """Split every file into ``readers`` ranges of lines, however small it is."""
    monkeypatch.setattr(data_module, "_SPLIT_BYTES", 1)
    monkeypatch.setattr(data_module, "_usable_cpus", lambda: readers)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Three readers split a file of L lines at the line indices L * k // 3, so
# the first two files below split at lines [0, 2), [2, 4), [4, 6) and the
# third at [0, 1), [1, 2), [2, 4)
SPLIT_FILES = {
    # the second range ends at the blank line, the third starts with the row after it
    "blank_line_ends_a_range": ("1,2\n1,2\n1,2\n\n1,2\n1,2\n", ragged(4, 1, 2)),
    "ragged_row_in_last_range": ("1,2\n" * 5 + "3\n", ragged(6, 1, 2)),
    # each range is even, but the last is narrower than the others
    "narrow_last_range": ("1,2\n" * 2 + "3\n" * 2, ragged(3, 1, 2)),
    # where the last range would start: the parent's line count meets the
    # bad byte first, and the file is not split
    "invalid_utf8_in_last_range": (b"1.25,2.5\n" * 40000 + b"3,\xff4\n" + b"1.25,2.5\n" * 99,
                                   (ParseError, "{path}: not UTF-8 text: byte 360002 is 0xff")),
    "deep_bad_cell": ("1.5,2\n" * 14999 + "1.5,x\n" + "1.5,2\n" * 5000,
                      refused(15000, "x")),
    "deep_ragged_row": ("1.5,2\n" * 14999 + "1.5\n" + "1.5,2\n" * 5000, ragged(15000, 1, 2)),
}


@pytest.mark.parametrize("name", sorted(ODD_FILES) + sorted(SPLIT_FILES))
def test_split_and_serial_routes_agree(tmp_path, monkeypatch, name):
    # forked readers give the serial reader's array bit for bit, or its error
    content, want = ODD_FILES[name] if name in ODD_FILES else SPLIT_FILES[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    monkeypatch.setattr(data_module, "_SPLIT_BYTES", 1 << 40)
    serial = outcome(path)
    force_split(monkeypatch)
    assert outcome(path) == serial
    if not isinstance(want, list):
        assert serial == (want[0], want[1].format(path=path))
    assert_no_child_left()


@pytest.mark.parametrize("first, rest", [("1,2\n", "0.123456789,-2.5e-300\n"),
                                         ("0.123456789,-2.5e-300\n", "1,2\n")])
def test_split_route_reads_rows_split_wherever(tmp_path, monkeypatch, first, rest):
    # a first line shorter or longer than the rest moves no range: either
    # way the rows are those of the serial reader
    path = tmp_path / "x.csv"
    path.write_text(first + rest * 40)
    want = load_features_csv(path)
    force_split(monkeypatch)
    split = data_module._load_split(path)
    assert split is not None and split.tobytes() == want.T.tobytes()
    assert load_features_csv(path).tobytes() == want.tobytes()
    assert_no_child_left()


def test_split_route_leaves_no_child(tmp_path, monkeypatch):
    # every reader is reaped, whether the readers succeed, one fails or one
    # dies without a word, and whether the serial reader then succeeds or raises
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("1.5,2\n" * 300)
    bad.write_text("1.5,2\n" * 200 + "1.5,x\n" + "1.5,2\n" * 99)
    want = load_features_csv(good)
    force_split(monkeypatch)
    assert data_module._load_split(good) is not None
    assert_no_child_left()

    load_rows = data_module._load_rows

    def failing_after_first_range(*args, start=0, stop=None, **kwargs):
        if start > 0:
            raise MemoryError("a reader fails")
        return load_rows(*args, start=start, stop=stop, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(data_module, "_load_rows", failing_after_first_range)
        assert data_module._load_split(good) is None
        assert_no_child_left()
        assert load_features_csv(good).tobytes() == want.tobytes()
        assert_no_child_left()

    def failing_first_range(*args, start=0, stop=None, **kwargs):
        if start == 0:
            raise MemoryError("a reader fails")
        time.sleep(60)

    with monkeypatch.context() as patch:
        # the readers still parsing are stopped, not waited for
        patch.setattr(data_module, "_load_rows", failing_first_range)
        began = time.monotonic()
        assert data_module._load_split(good) is None
        assert time.monotonic() - began < 30
        assert_no_child_left()
    with monkeypatch.context() as patch:
        # a reader that dies without a word exits 0: only its flag tells
        patch.setattr(data_module, "_load_rows", lambda *args, **kwargs: os._exit(0))
        assert data_module._load_split(good) is None
        assert_no_child_left()

    with pytest.raises(ParseError, match="row 201: non-numeric value 'x'"):
        load_features_csv(bad)
    assert_no_child_left()


def test_split_route_reads_only_the_flags(tmp_path, monkeypatch):
    # a reader that writes every row of its range into the shared array but
    # exits before it sets its flag fails the split, and is reaped
    path = tmp_path / "x.csv"
    path.write_text("1.5,2\n" * 299 + "0.25,-3\n")
    want = load_features_csv(path)
    force_split(monkeypatch)
    shared, load_rows, make_mmap = [], data_module._load_rows, mmap.mmap

    def recorded_mmap(*args):
        shared.append(make_mmap(*args))
        return shared[-1]

    def rows_then_exit(*args, start=0, stop=None, **kwargs):
        rows = load_rows(*args, start=start, stop=stop, **kwargs)
        if stop == 300:
            np.frombuffer(shared[0], count=want.size).reshape(300, 2)[start:stop] = rows
            os._exit(0)
        return rows

    monkeypatch.setattr(mmap, "mmap", recorded_mmap)
    monkeypatch.setattr(data_module, "_load_rows", rows_then_exit)
    assert data_module._load_split(path) is None
    assert_no_child_left()
    rows = np.frombuffer(shared[0], count=want.size).reshape(300, 2)
    assert rows.tobytes() == want.T.tobytes()  # all written, none trusted


@pytest.mark.parametrize("readers", [2, 3, 4])
def test_split_route_reads_exact_line_ranges(tmp_path, monkeypatch, readers):
    # 1 to 9 lines, fewer than the readers too, each of its own width in
    # text: every range holds lines * k // readers of them, and the rows are
    # the serial reader's, bit for bit
    rows = np.random.default_rng(readers).standard_normal((9, 3)) * 10.0 ** np.arange(-4, 5)[:, None]
    for lines in range(1, 10):
        path = tmp_path / f"{lines}.csv"
        save_features_csv(rows[:lines].T, path)
        with monkeypatch.context() as patch:
            patch.setattr(data_module, "_SPLIT_BYTES", 1 << 40)
            serial = outcome(path)
        with monkeypatch.context() as patch:
            force_split(patch, readers)
            split = data_module._load_split(path)
            assert outcome(path) == serial
        if lines >= 2:
            assert split is not None and split.tobytes() == rows[:lines].tobytes()
        assert_no_child_left()


def test_split_route_where_children_reap_themselves(tmp_path, monkeypatch):
    # with SIGCHLD ignored the kernel reaps each reader, and waiting for it fails
    path = tmp_path / "x.csv"
    path.write_text("1.5,2\n" * 300)
    want = load_features_csv(path)
    force_split(monkeypatch)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert data_module._load_split(path) is not None
        assert load_features_csv(path).tobytes() == want.tobytes()
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert_no_child_left()


def test_split_route_falls_back_without_fork(tmp_path, monkeypatch):
    # where os.fork is missing, the shared array cannot be mapped, or os.fork
    # fails on the first reader or after one reader started, one process
    # parses the file, and neither a child nor a descriptor is left
    path = tmp_path / "x.csv"
    path.write_text("1.5,2\n" * 300)
    want = load_features_csv(path)
    force_split(monkeypatch)
    open_fds = len(os.listdir("/dev/fd"))

    def failing_from(call, nth):
        """``call``, failing as out of descriptors from its ``nth`` call on."""
        calls = []

        def failing():
            calls.append(call)
            if len(calls) >= nth:
                raise OSError(errno.EMFILE, "Too many open files")
            return call()
        return failing

    def no_memory(*args):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    for module, name, fake in ((os, "fork", failing_from(os.fork, 1)),
                               (os, "fork", failing_from(os.fork, 2)),
                               (mmap, "mmap", no_memory)):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, fake)
            assert data_module._load_split(path) is None
            assert load_features_csv(path).tobytes() == want.tobytes()
        assert_no_child_left()
        assert len(os.listdir("/dev/fd")) == open_fds
    monkeypatch.delattr(os, "fork")
    assert data_module._load_split(path) is None
    assert load_features_csv(path).tobytes() == want.tobytes()


def test_split_route_maps_no_more_values_than_the_file_has_bytes(tmp_path, monkeypatch):
    # a wide first line over many narrow ones would ask for lines x width
    # values; a valid file has at most one per two bytes, so none is mapped
    path = tmp_path / "x.csv"
    path.write_text("1," * 999 + "1\n" + "1\n" * 3000)
    serial = outcome(path)
    force_split(monkeypatch)
    monkeypatch.setattr(mmap, "mmap", None)
    assert data_module._load_split(path) is None
    assert outcome(path) == serial == (ParseError, f"{path}: row 2 has 1 columns, expected 1000")


def traced_peak(call, *args):
    """The tracemalloc peak of one call, in bytes, and its result."""
    tracemalloc.start()
    try:
        result = call(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_feature_csv_is_read_and_written_a_line_at_a_time(tmp_path, monkeypatch):
    # loading holds one line of text besides the array it fills, not the
    # decoded file and its lines; saving holds one row's text, not the file.
    # One non-ASCII character changes neither: every file takes one path.
    # Split in two, the parent holds the shared result, which tracemalloc
    # does not see, the finite check's mask and one line; the serial reader
    # also grows its result as rows arrive.
    x = np.random.default_rng(53).standard_normal((256, 4000))
    path = tmp_path / "x.csv"
    saved, _ = traced_peak(save_features_csv, x, path)
    size = path.stat().st_size
    assert saved < size / 4
    text = path.read_text(encoding="utf-8")
    i = text.index(",", len(text) // 2)
    monkeypatch.setattr(data_module, "_usable_cpus", lambda: 2)
    for odd in ("", "\u00a0"):
        path.write_text(text[:i] + odd + text[i:], encoding="utf-8")
        loaded, got = traced_peak(load_features_csv, path)
        assert np.array_equal(got, x)
        assert loaded <= x.size + 64 * 1024
    monkeypatch.setattr(data_module, "_usable_cpus", lambda: 1)
    loaded, got = traced_peak(load_features_csv, path)
    assert np.array_equal(got, x)
    assert loaded < x.nbytes + size / 4


@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array([[-0.0, 0.0, 5e-324], [-2.2250738585072014e-308, 1.7976931348623157e308, -1e-320]]))
@example(np.array([[np.nextafter(1.0, 2.0), 0.1 + 0.2, -1e300, 1e-300]]))
def test_feature_csv_round_trip_is_bit_exact(x):
    # a save/load round trip reproduces every bit, subnormals and -0.0 included
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.csv"
        save_features_csv(x, path)
        got = load_features_csv(path)
    assert got.shape == x.shape and got.tobytes() == x.tobytes()


def test_label_file_round_trip(tmp_path):
    path = tmp_path / "y.txt"
    save_labels([0, 1, 1], path)
    assert np.array_equal(load_labels(path), [0, 1, 1])
    path.write_text("2\n")
    assert np.array_equal(load_labels(path), [2])
    path.write_bytes(b"2\r\n0\r 1 \n\n\t\n")  # universal newlines; trailing blank lines dropped
    assert np.array_equal(load_labels(path), [2, 0, 1])


def test_label_file_parse_errors(tmp_path):
    path = tmp_path / "y.txt"
    path.write_text("0\na\n")
    with pytest.raises(ParseError, match="line 2: not an integer"):
        load_labels(path)
    path.write_text("0\n-3\n")
    with pytest.raises(ParseError, match="negative label"):
        load_labels(path)
    path.write_text("")
    with pytest.raises(ValidationError, match="empty label file"):
        load_labels(path)
    # a blank line before a label is refused; U+000B does not end a line;
    # int() reads the last three as 10, 1 and 1, but a label is what
    # np.loadtxt reads as an int64, as a feature value is what it reads
    for text, message in (("0\n\n1\n", "line 2: not an integer: ''"),
                          ("0\n1\x0b2\n", "line 2: not an integer: '1\\x0b2'"),
                          ("0\n1_0\n", "line 2: not an integer: '1_0'"),
                          ("0\n\u0661\n", "line 2: not an integer: '\u0661'"),
                          ("\uff11\n", "line 1: not an integer: '\uff11'"),
                          # the first line's cells set every row's: it is the one refused
                          ("1,2\n3\n", "line 1: not an integer: '1,2'"),
                          ("1,2\n3,4\n", "line 1: not an integer: '1,2'"),
                          ("3\n4,5\n", "line 2: not an integer: '4,5'")):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_labels(path)
        assert str(exc.value) == f"{path}: {message}"


def test_label_file_refuses_labels_beyond_int64(tmp_path):
    # a label that int64 cannot hold is a ParseError naming its line, not an
    # OverflowError out of the array conversion
    path = tmp_path / "y.txt"
    for text, line, value in (("0\n99999999999999999999\n", 2, "99999999999999999999"),
                              (f"{2**63}\n1\n", 1, str(2**63))):
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_labels(path)
        assert str(exc.value) == f"{path}: line {line}: label {value} is not below 2**63"
    # one past the int64 minimum is refused by np.loadtxt, and named by its sign
    path.write_text(f"0\n{-2**63 - 1}\n")
    with pytest.raises(ParseError) as exc:
        load_labels(path)
    assert str(exc.value) == f"{path}: line 2: negative label {-2**63 - 1}"
    path.write_text(f"{2**63 - 1}\n0\n")
    assert load_labels(path).tolist() == [2**63 - 1, 0]


def test_soft_label_csv_layout_and_round_trip(tmp_path):
    path = tmp_path / "p.csv"
    save_features_csv(np.array([[0.7], [0.3]]), path)
    assert path.read_text() == "0.7,0.3\n"
    rng = np.random.default_rng(51)
    p = rng.random((3, 5))
    p /= p.sum(axis=0)
    save_features_csv(p, path)
    assert np.array_equal(load_features_csv(path), p)


def test_written_rows_match_the_per_value_repr(tmp_path):
    # rows are formatted from Python floats in one pass; the bytes must be
    # those of repr(float(v)) on every numpy scalar, signed zeros,
    # subnormals and exponents included
    rng = np.random.default_rng(52)
    rows = np.vstack([[-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-7, 1.0 / 3.0],
                      rng.standard_normal((6, 8)) * 10.0 ** rng.integers(-300, 300, (6, 8))])
    path = tmp_path / "rows.csv"
    data_module._write_rows(rows, path)
    want = "\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n"
    assert path.read_bytes() == want.encode()
    assert path.read_text().splitlines()[0] == (
        "-0.0,0.0,5e-324,-5e-324,1e+300,-1e+300,1e-07,0.3333333333333333")


def test_save_labels_refuses_what_load_labels_refuses(tmp_path):
    path = tmp_path / "y.txt"
    for labels, message in (
        ([], r"shape \(0,\)"),
        ([[0, 1], [1, 0]], r"shape \(2, 2\)"),
        ([1.5, 2.0], "label 1.5 at index 0 is not a non-negative integer"),
        ([0, -1, 2], "label -1 at index 1 is not a non-negative integer"),
        ([0.0, math.nan], "label nan at index 1 is not a non-negative integer"),
        ([math.inf], "label inf at index 0 is not a non-negative integer"),
        (["1"], "dtype <U1"),
        ([True, False], "dtype bool"),
        ([0, 1e300], r"label 1e\+300 at index 1 is not a non-negative integer below 2\*\*63"),
        ([2.0**63], r"at index 0 is not a non-negative integer below 2\*\*63"),
        (np.array([1, 2**63], dtype=np.uint64),
         r"label 9223372036854775808 at index 1 is not a non-negative integer"),
    ):
        with pytest.raises(ValidationError, match=message):
            save_labels(labels, path)
        assert not path.exists()
    save_labels(np.array([3.0, 0.0, 2.0]), path)
    assert path.read_text() == "3\n0\n2\n"
    assert np.array_equal(load_labels(path), [3, 0, 2])
    save_labels(np.array([7, 0], dtype=np.uint8), path)
    assert np.array_equal(load_labels(path), [7, 0])
    for labels in (np.array([2**63 - 1, 0]), np.array([2**63 - 1], dtype=np.uint64),
                   [2.0**62]):
        save_labels(labels, path)
        assert load_labels(path).tolist() == [int(v) for v in labels]


def test_report_without_accuracy(tmp_path):
    # a run with no target labels and no rounds: the report holds nulls and empty records
    result = AdaptationResult(
        projection=None,
        soft_labels=np.ones((1, 2)),
        hard_labels=np.zeros(2, dtype=int),
        class_weights=np.array([1.0]),
    )
    assert cli._write_outputs(result, {}, None, tmp_path, 0.0) is None
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["overall_accuracy"] is None and doc["per_class_accuracy"] is None
    assert doc["class_weights"] == [1.0] and doc["class_mask"] == [1]
    assert doc["iterations_run"] == 0 and doc["history"] == []
    assert doc["warnings"] == {"mask_fallbacks": 0, "graph_fallbacks": 0}
    assert doc["duration_seconds"] == 0.0

"""Capture ingestion: parse signal-translated CAN logs and resample them.

Two CSV layouts are accepted. ``wide_csv`` has a ``time`` column followed by
one column per signal, with empty cells meaning "no sample at that time"
(signals transmit at different rates). ``long_csv`` has one sample per row
with columns ``time,signal,value``. Files are UTF-8; a leading byte-order mark
is skipped. Empty lines and lines whose first non-blank character is ``#`` are
skipped; a line of blanks is a data line. Cells are split on commas, without
CSV quoting: a header or data line that contains ``"`` raises ParseError naming
its line (comment lines may contain anything). Every cell is stripped with
``str.strip()``; a time or value cell is then read with Python's ``float()``.

A regular file is read by one call of numpy's C reader (``np.loadtxt``) on its
path, which hands each numeral, stripped of blanks, to the conversion ``float()``
uses, and each ``long_csv`` signal cell to a converter giving its signal's index.
That call decides by reading: a file it refuses (a comment line, a ``"``, a byte
that is not UTF-8, a blank wide cell, a row of another cell count, an empty
signal id, a numeral only ``float()`` reads, such as ``1_0``) or finds no data
line in, and one that is no regular file, are read in blocks of BLOCK_CHARS
characters finished at the end of their last line. Each block is read by the C
reader once its comment lines are dropped and its empty wide cells written as
``nan``. A block with an empty cell and an ``n`` or ``N`` (a literal ``nan`` the
fill would hide), and one the C reader refuses are walked line by line with
``float()``, which names the first bad line as a row-by-row reader would. The
cell strings of one block are the only per-cell Python objects alive at once.

Resampling puts every signal of a capture, in signal-id order, onto a shared
uniform grid by linear interpolation (never extrapolation), drops constant
signals, and normalizes each remaining series to zero mean and unit l2 norm so
that row dot products downstream are exactly Pearson correlations.
"""

import io
import os
import re
import warnings
from itertools import chain, compress
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError, DegenerateCaptureError, InsufficientOverlapError, ParseError, checked

# relative float-noise tolerance for "this signal never moves"
CONSTANT_TOL = 1e-12

# most grid points one resampled capture may have, and most values (signals x grid points):
# 10 million points is 11.6 days at 10 Hz or 27.8 hours at 100 Hz, far beyond any drive capture,
# and 10 million values are 80 MB, so a corrupt timestamp cannot turn into a multi-GB allocation
MAX_GRID_POINTS = 10_000_000

# largest |value| a signal may hold: an interpolated value and a mean over n <= MAX_GRID_POINTS
# of them lie in [-M, M], so a centered one in [-2M, 2M], the mean's sum within n * M and the
# norm's sum of squares within 4 * n * M^2, which this M keeps at half the largest float (about 1.5e150)
MAX_ABS_VALUE = float(np.sqrt(np.finfo(float).max / (8 * MAX_GRID_POINTS)))

# characters read per block (plus the rest of its last line): about 2,000 lines
# of a typical long_csv file; bounds the cell strings alive at once to a few MB
# whatever the file's length or width, while keeping per-block overhead negligible
BLOCK_CHARS = 1 << 16

# a newline, then a line whose first non-blank character is '#' (re's \s is str.isspace(), what
# str.lstrip() strips); re finds the literal newline fast, unlike a multi-line "^". The blanks
# exclude the newline, so a run of k empty lines costs k steps, not k^2 / 2
_COMMENT_LINE = r"\n[^\S\n]*#"

_QUOTE_ERROR = "quote character '\"': cells are split on commas, without CSV quoting"


@checked
class RawSignal(NamedTuple):
    """One signal's irregularly-timestamped samples."""

    signal_id: str
    timestamps: np.ndarray  # seconds, strictly increasing
    values: np.ndarray

    def _check(self):
        ts = np.asarray(self.timestamps, dtype=float)
        vs = np.asarray(self.values, dtype=float)
        if ts.shape != vs.shape or ts.ndim != 1:
            raise DataError(f"signal {self.signal_id}: timestamps and values must be 1-D and equal length")
        if ts.size == 0:
            raise DataError(f"signal {self.signal_id}: empty signal")
        if not np.isfinite(ts).all():
            raise DataError(f"signal {self.signal_id}: non-finite timestamps")
        if not np.isfinite(vs).all():
            raise DataError(f"signal {self.signal_id}: non-finite values")
        if not (ts[1:] > ts[:-1]).all():  # the times are finite: a comparison is the sign of a difference
            raise DataError(f"signal {self.signal_id}: timestamps not strictly increasing")
        return tuple.__new__(type(self), (self.signal_id, ts, vs))


class SignalCapture(NamedTuple):
    """All signals from one drive capture, before resampling; its role in a run is the group it is passed in."""

    capture_id: str
    signals: tuple
    source_path: str = ""  # the file it was parsed from; "" for an in-memory capture


class SignalMatrix(NamedTuple):
    """Resampled capture: N centered unit-norm rows on a uniform grid."""

    capture_id: str
    signal_ids: tuple
    grid: np.ndarray
    data: np.ndarray  # N x T
    dropped_constant: tuple


def _is_data(line):
    """False for the empty and comment lines every layout skips (line without its newline)."""
    return line != "" and not line.lstrip().startswith("#")


def _cells(line, ncols):
    """(time, the ncols cells) of one data line; a ValueError says what is wrong."""
    if '"' in line:
        raise ValueError(_QUOTE_ERROR)
    cells = line.split(",")
    if len(cells) != ncols:
        raise ValueError(f"expected {ncols} cells, got {len(cells)}")
    return _number("time", cells[0]), cells


def _number(what, cell):
    try:
        return float(cell.strip())
    except ValueError:
        raise ValueError(f"non-numeric {what} {cell!r}") from None


def _has_empty_cell(text):
    """Whether a line of newline-terminated text has an empty cell after its first: a ',' before a ',' or newline."""
    return ",," in text or ",\n" in text


class _Wide:
    """``time,<sig1>,...``: one column per signal, an empty cell is no sample."""

    def __init__(self, header):
        if len(header) < 2 or header[0] != "time":
            raise ValueError("wide_csv header must be 'time,<signal>,...'")
        if "" in header[1:]:
            raise ValueError("empty signal id in header")
        if len(set(header[1:])) != len(header) - 1:
            raise ValueError("duplicate signal column in header")
        self.ncols = len(header)
        self.signal_ids = header[1:]

    def read(self, source, skip=0):
        """The table of source's lines after the first skip (a path, or a block as io.StringIO), by numpy's C reader."""
        table = np.loadtxt(source, delimiter=",", comments=None, skiprows=skip, ndmin=2, encoding="utf-8")
        if table.shape[1] != self.ncols:  # every row one of another cell count
            raise ValueError(f"expected {self.ncols} cells, got {table.shape[1]}")
        return table

    def row(self, line):
        """(time, value, signal index) of each sample of one data line, in row order."""
        time, cells = _cells(line, self.ncols)
        return [(time, _number("value", cell), sid) for sid, cell in enumerate(map(str.strip, cells[1:])) if cell]

    @staticmethod
    def samples(table, present):
        rows, sids = np.nonzero(present[:, 1:])
        return table[rows, 0], table[rows, sids + 1], sids

    def signals(self, blocks):
        """(signal id, times, values) of each column with samples, sorted by time.

        Tables of blocks without an empty cell are joined, their rows stably
        sorted by time once, and cut per column; every signal's times are then
        one read-only copy of the time column. Any other block sends every
        block through the per-sample cut, whose 24 bytes per sample, unlike
        a table's 8 per cell, do not grow with a sparse file's empty cells.
        """
        if any(isinstance(block, tuple) for block in blocks):
            for k, block in enumerate(blocks):
                if not isinstance(block, tuple):
                    blocks[k] = self.samples(block, np.ones(block.shape, dtype=bool))
            yield from _cut(blocks, self.signal_ids)
            return
        table = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        blocks.clear()
        if not np.all(table[1:, 0] >= table[:-1, 0]):  # rows out of time order, or a nan time
            table = table[np.argsort(table[:, 0], kind="stable")]
        times = table[:, 0].copy()
        times.flags.writeable = False
        for col, signal_id in enumerate(self.signal_ids, start=1):
            yield signal_id, times, table[:, col].copy()


class _Long(dict):
    """``time,signal,value``: one sample per row; signals in order of first appearance. As a dict, it maps
    each signal cell as written to the index of its signal id, the cell stripped of blanks."""

    def __init__(self, header):
        if header != ["time", "signal", "value"]:
            raise ValueError("long_csv header must be 'time,signal,value'")
        self.signal_ids = {}  # signal id -> its index, in order of first appearance

    def __missing__(self, cell):  # a signal cell not seen before registers its id; none is empty or quoted
        if not cell.strip():
            raise ValueError("empty signal id")
        if '"' in cell:  # the one cell in which numpy's C reader would accept a quote
            raise ValueError(_QUOTE_ERROR)
        self[cell] = index = self.signal_ids.setdefault(cell.strip(), len(self.signal_ids))
        return index

    def read(self, source, skip=0):  # as _Wide.read
        rows = np.loadtxt(source, dtype=[("time", float), ("signal", np.intp), ("value", float)], delimiter=",",
                          comments=None, skiprows=skip, ndmin=1, encoding="utf-8", converters={1: self.__getitem__})
        return rows["time"], rows["value"], rows["signal"]

    def row(self, line):  # as _Wide.row; the signal cell is checked last
        time, cells = _cells(line, 3)
        return [(time, _number("value", cells[2]), self[cells[1]])]

    def signals(self, blocks):
        return _cut(blocks, self.signal_ids)


_LAYOUTS = {"wide_csv": _Wide, "long_csv": _Long}


def _cut(blocks, signal_ids):
    """(signal id, times, values) of each signal index with samples, sorted by time.

    blocks hold (times, values, signal index) arrays; the list is emptied as
    they are joined. Samples are ordered by signal index, then time, then
    file order, as np.lexsort((times, sids)) orders them, in two stable
    sorts: by time, skipped when the samples are in time order already, then by
    signal index cast to 8 or 16 bits, which numpy sorts by radix.
    """
    times, values, sids = blocks[0] if len(blocks) == 1 else (np.concatenate(column) for column in zip(*blocks))
    blocks.clear()
    index = np.min_scalar_type(len(signal_ids))
    if np.all(times[1:] >= times[:-1]):  # in time order already (a nan time is not): the time sort keeps it
        order = np.argsort(sids.astype(index), kind="stable")
    else:
        order = np.argsort(times, kind="stable")
        order = order[np.argsort(sids[order].astype(index), kind="stable")]
    ends = np.cumsum(np.bincount(sids, minlength=len(signal_ids)))
    for signal_id, rows in zip(signal_ids, np.split(order, ends[:-1])):
        if rows.size:
            yield signal_id, times[rows], values[rows]


def _parse_block(layout, text, first_line, path):
    """(lines in text, the layout's columns of its samples or None) for one block of whole lines: read by numpy's
    C reader once comment lines are dropped and empty wide cells written as nan, or else walked line by line."""
    n = text.count("\n")
    data = text
    if "#" in text and re.search(_COMMENT_LINE, "\n" + text):
        data = "".join(line + "\n" for line in text.split("\n")[:-1] if _is_data(line))
    if not data.strip("\n"):  # no data line, which numpy's C reader would warn of
        return n, None
    # a filled cell is no sample, so the fill would hide a literal nan, which is a non-finite value
    empty = isinstance(layout, _Wide) and _has_empty_cell(data)
    if not (empty and ("n" in data or "N" in data)):
        if empty:
            data = data.replace(",,", ",nan,").replace(",,", ",nan,").replace(",\n", ",nan\n")
        try:
            columns = layout.read(io.StringIO(data))
        except ValueError:  # a cell the C reader refuses, or a row of another cell count
            pass
        else:
            return n, layout.samples(columns, ~np.isnan(columns)) if empty else columns
    return n, _walk(layout, text, first_line, path)


def _walk(layout, text, first_line, path):
    """(times, values, signal index) of text's samples, by layout.row() per line; a ParseError names a bad line."""
    samples = []
    for lineno, line in enumerate(text.split("\n")[:-1], start=first_line):
        if _is_data(line):
            try:
                samples += layout.row(line)
            except ValueError as exc:
                raise ParseError(str(exc), path=path, line=lineno) from None
    table = np.fromiter(chain.from_iterable(samples), dtype=float, count=3 * len(samples)).reshape(-1, 3)
    return table[:, 0], table[:, 1], table[:, 2].astype(np.intp)


def _raw_signals(samples, path):
    """One RawSignal per (signal id, times, values) with samples; a repeated time is an error.

    Times are sorted, nan last, so a repeated finite time is a difference of 0, checked before
    RawSignal's checks, once per times array: signals sharing one are named by the first. A repeated
    inf or a nan gives a nan difference, not a repeat: RawSignal names it a non-finite time. Finite
    times far apart may give an inf difference.
    """
    signals = []
    clean = None  # the last times array found free of repeats
    with np.errstate(invalid="ignore", over="ignore"):
        for signal_id, ts, vs in samples:
            if ts is not clean and (ts[1:] - ts[:-1] <= 0).any():
                raise ParseError(f"duplicate timestamp in signal {signal_id!r}", path=path)
            clean = ts
            try:
                signals.append(RawSignal(signal_id, ts, vs))
            except DataError as exc:
                raise ParseError(str(exc), path=path) from None
    return signals


def _undecodable_line(path):
    """Line of the first byte of a file that is not UTF-8, as text mode numbers lines."""
    def line_ends(raw):  # '\n', '\r\n' and a lone '\r' each end one line
        return raw.count(b"\n") + raw.count(b"\r") - raw.count(b"\r\n")

    lineno = 1
    with open(path, "rb") as fh:
        for raw in fh:
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return lineno + line_ends(raw[:exc.start])
            lineno += line_ends(raw)
    return None


def _blocks(fh):
    """The rest of fh's text in blocks of BLOCK_CHARS characters, each finished at the end of its last line."""
    while text := fh.read(BLOCK_CHARS):
        text += "" if text.endswith("\n") else fh.readline()
        yield text if text.endswith("\n") else text + "\n"  # the file's last line


def _read_file(layout, fh, path, skip):
    """signals()' blocks of the lines after the first skip of the regular file fh, by layout.read's one
    numpy C-reader call on its path (numpy reads other input line by line), or None; fh is not moved.
    numpy opens the path afresh with universal newlines, as fh was opened, so a lone CR ends a line in
    both. numpy decompresses a name ending in .bz2, .gz, .lzma or .xz, and may take a relative path for a URL.
    None is also a file the C reader refuses or finds no data line in (it warns of that)."""
    if path.endswith((".bz2", ".gz", ".lzma", ".xz")) or not os.path.isfile(path):
        return None
    with warnings.catch_warnings(action="error", category=UserWarning):
        try:
            return [layout.read(os.path.abspath(path), skip)]
        except (ValueError, UserWarning):  # a line the C reader refuses, a byte that is not UTF-8, no data line
            return None


def parse_capture(path, format="wide_csv"):
    """Parse a capture file into a SignalCapture whose capture_id is the file's stem.

    format is "wide_csv" (header ``time,<sig1>,...``) or "long_csv"
    (header ``time,signal,value``). Signals with no samples at all are
    dropped; a file yielding zero signals is an error. The signals of a
    wide file without an empty cell share one read-only timestamps array.
    """
    if format not in _LAYOUTS:
        raise ValueError(f"unknown format {format!r}")
    path = str(path)
    try:
        # universal newlines: '\r\n' and '\r' end lines too; a leading byte-order mark is skipped
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                if _is_data(line.rstrip("\n")):
                    break
            else:
                raise ParseError("empty file", path=path)
            if '"' in line:
                raise ParseError(_QUOTE_ERROR, path=path, line=lineno)
            header = [c.strip() for c in line.split(",")]
            try:
                layout = _LAYOUTS[format](header)
            except ValueError as exc:
                raise ParseError(str(exc), path=path, line=lineno) from None
            blocks = _read_file(layout, fh, path, lineno)
            if blocks is None:
                layout, blocks = _LAYOUTS[format](header), []  # afresh: the C reader may have registered ids
                for text in _blocks(fh):
                    n, columns = _parse_block(layout, text, lineno + 1, path)
                    if columns is not None:
                        blocks.append(columns)
                    lineno += n
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path, line=_undecodable_line(path)) from None
    signals = _raw_signals(layout.signals(blocks), path) if blocks else []
    if not signals:
        raise DataError(f"{path}: capture contains no signals")
    return SignalCapture(capture_id=Path(path).stem, signals=tuple(signals), source_path=path)


def resample(capture, frequency_hz=10.0):
    """Resample all signals of a capture onto a shared uniform grid.

    The signals are taken in signal-id order, whatever the order of capture.signals, so the rows,
    signal_ids and dropped_constant are in id order; an id that two signals share is a DataError. The
    grid spans the intersection of the signals' observed windows at spacing 1/frequency_hz, so
    interpolation never extrapolates. Constant series are dropped; the rest are mean-centered and scaled
    to unit l2 norm. More than MAX_GRID_POINTS grid points or values (signals x grid points), or a value
    above MAX_ABS_VALUE in magnitude, is a DataError.
    """
    if not (0.0 < frequency_hz < np.inf):
        raise ValueError("frequency_hz must be positive and finite")
    signals = sorted(capture.signals, key=lambda sig: sig.signal_id)
    if not signals:
        raise DataError(f"{capture.capture_id}: empty capture")
    ids = [sig.signal_id for sig in signals]
    if (repeated := next((a for a, b in zip(ids, ids[1:]) if a == b), None)) is not None:  # sorted: adjacent
        raise DataError(f"{capture.capture_id}: duplicate signal id {repeated!r}")

    start = max(float(s.timestamps[0]) for s in signals)
    end = min(float(s.timestamps[-1]) for s in signals)
    step = 1.0 / frequency_hz
    # small slack so an exactly-fitting endpoint is not lost to float noise;
    # kept as a float until capped, since a corrupt span may not fit an int
    n_points = np.floor((end - start) / step + 1e-9) + 1
    if n_points > MAX_GRID_POINTS:
        raise DataError(
            f"{capture.capture_id}: common window [{start}, {end}] needs {n_points:.3g} grid points "
            f"at {frequency_hz} Hz, more than the {MAX_GRID_POINTS} allowed")
    if n_points < 2:
        raise InsufficientOverlapError(
            f"{capture.capture_id}: common window [{start}, {end}] holds fewer than 2 grid points at {frequency_hz} Hz")
    n_values = len(signals) * int(n_points)
    if n_values > MAX_GRID_POINTS:
        raise DataError(f"{capture.capture_id}: {len(signals)} signals on {int(n_points)} grid points at "
                        f"{frequency_hz} Hz need {n_values} values, more than the {MAX_GRID_POINTS} allowed")
    grid = start + np.arange(int(n_points)) * step

    for sig in signals:  # before any arithmetic: the mean or the norm could overflow
        if np.abs(sig.values).max() > MAX_ABS_VALUE:
            raise DataError(f"{capture.capture_id}: signal {sig.signal_id!r} holds a value of magnitude "
                            f"above {MAX_ABS_VALUE:.3g}, the most allowed")
    data = np.empty((len(signals), grid.size))
    for k, sig in enumerate(signals):
        data[k] = np.interp(grid, sig.timestamps, sig.values)
    vmax = data.max(axis=1)
    constant = vmax - data.min(axis=1) < CONSTANT_TOL * np.maximum(1.0, np.abs(vmax))
    if constant.all():
        raise DegenerateCaptureError(f"{capture.capture_id}: all signals constant on the common grid")
    if constant.any():
        data = data[~constant]
    data -= data.mean(axis=1, keepdims=True)
    # each row's norm is the BLAS dot np.linalg.norm takes of a vector, which a batched sum would not match
    data /= np.sqrt([row.dot(row) for row in data])[:, None]
    return SignalMatrix(capture_id=capture.capture_id, signal_ids=tuple(compress(ids, ~constant)),
                        grid=grid, data=data, dropped_constant=tuple(compress(ids, constant)))

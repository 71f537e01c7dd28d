"""Capture ingestion: parse signal-translated CAN logs and resample them.

Two CSV layouts are accepted. ``wide_csv`` has a ``time`` column followed by
one column per signal, with empty cells meaning "no sample at that time"
(signals transmit at different rates). ``long_csv`` has one sample per row
with columns ``time,signal,value``. Empty lines and lines whose first
non-blank character is ``#`` are skipped; a line of blanks is a data line.
Cells are split on commas, without CSV quoting: a header or data line that
contains ``"`` raises ParseError naming its line (comment lines may contain
anything). Time and value cells are read with Python's ``float()``.

Files are parsed in blocks of about BLOCK_CELLS cells, each checked and converted
a whole column at a time; only a block that fails is walked line by line,
to name the first bad line as a row-by-row reader would. Working memory
stays a few MB above the parsed arrays whatever the file's length or width.

Resampling puts every signal of a capture onto a shared uniform grid by
linear interpolation (never extrapolation), drops constant signals, and
normalizes each remaining series to zero mean and unit l2 norm so that row
dot products downstream are exactly Pearson correlations.
"""

from dataclasses import dataclass
from itertools import compress, islice
from pathlib import Path

import numpy as np

from .errors import DataError, DegenerateCaptureError, InsufficientOverlapError, ParseError

# relative float-noise tolerance for "this signal never moves"
CONSTANT_TOL = 1e-12

# most grid points one resampled capture may have: 10 million is 11.6 days at
# 10 Hz or 27.8 hours at 100 Hz, far beyond any drive capture, and keeps a
# corrupt timestamp from turning into a multi-GB (or impossible) allocation
MAX_GRID_POINTS = 10_000_000

# cells parsed per block (8192 lines of long_csv, fewer of a wide file): bounds
# the parser's working memory to a few MB whatever the file's length or width,
# while keeping per-block overhead negligible
BLOCK_CELLS = 3 * 8192

_QUOTE_ERROR = "quote character '\"': cells are split on commas, without CSV quoting"


@dataclass(frozen=True)
class RawSignal:
    """One signal's irregularly-timestamped samples."""

    signal_id: str
    timestamps: np.ndarray  # seconds, strictly increasing
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float)
        vs = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vs)
        if ts.shape != vs.shape or ts.ndim != 1:
            raise DataError(f"signal {self.signal_id}: timestamps and values must be 1-D and equal length")
        if ts.size == 0:
            raise DataError(f"signal {self.signal_id}: empty signal")
        if not np.all(np.isfinite(ts)):
            raise DataError(f"signal {self.signal_id}: non-finite timestamps")
        if not np.all(np.isfinite(vs)):
            raise DataError(f"signal {self.signal_id}: non-finite values")
        if ts.size > 1 and not np.all(np.diff(ts) > 0):
            raise DataError(f"signal {self.signal_id}: timestamps not strictly increasing")


@dataclass(frozen=True)
class SignalCapture:
    """All signals from one drive capture, before resampling."""

    capture_id: str
    signals: tuple
    source_path: str = ""
    label: str = "benign"  # "benign" or "attack"
    attack_kind: str = ""  # set when label == "attack"


@dataclass(frozen=True)
class SignalMatrix:
    """Resampled capture: N centered unit-norm rows on a uniform grid."""

    capture_id: str
    signal_ids: tuple
    grid: np.ndarray
    data: np.ndarray  # N x T
    dropped_constant: tuple


def _is_data(line):
    """False for the empty and comment lines every layout skips."""
    return line != "\n" and not line.lstrip().startswith("#")


def _line_error(layout, line):
    """What is wrong with one data line (without its newline), or None."""
    if '"' in line:
        return _QUOTE_ERROR
    cells = line.split(",")
    if len(cells) != layout.ncols:
        return f"expected {layout.ncols} cells, got {len(cells)}"
    for what, cell in layout.numeric_cells(cells):
        try:
            float(cell)
        except ValueError:
            return f"non-numeric {what} {cell!r}"
    return None


def _cell_counts(text):
    """Number of comma-separated cells on each line of newline-terminated text."""
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)  # ',' and '\n' are single utf-8 bytes
    commas_before_eol = np.searchsorted(np.flatnonzero(raw == ord(",")), np.flatnonzero(raw == ord("\n")))
    return np.diff(commas_before_eol, prepend=0) + 1


class _Wide:
    """``time,<sig1>,...``: one column per signal, an empty cell is no sample."""

    def __init__(self, header):
        if len(header) < 2 or header[0] != "time":
            raise ValueError("wide_csv header must be 'time,<signal>,...'")
        if len(set(header[1:])) != len(header) - 1:
            raise ValueError("duplicate signal column in header")
        self.ncols = len(header)
        self.signal_ids = header[1:]

    def columns(self, cells, n):
        """(times, values, signal index) of every sample in n rows of cells."""
        present = np.fromiter(map(bool, map(str.strip, cells)), dtype=bool, count=len(cells))
        present[::self.ncols] = True  # a time cell is never optional
        table = np.full(len(cells), np.nan)
        table[present] = np.array(list(compress(cells, present.tolist())), dtype=float)
        table, present = table.reshape(n, self.ncols), present.reshape(n, self.ncols)
        rows, sids = np.nonzero(present[:, 1:])
        return table[rows, 0], table[:, 1:][rows, sids], sids

    def numeric_cells(self, cells):
        """(what, cell) for each cell of one row that must be a number, in row order."""
        return [("time", cells[0])] + [("value", c.strip()) for c in cells[1:] if c.strip()]


class _Long:
    """``time,signal,value``: one sample per row; signals in order of first appearance."""

    ncols = 3

    def __init__(self, header):
        if header != ["time", "signal", "value"]:
            raise ValueError("long_csv header must be 'time,signal,value'")
        self.signal_ids = {}  # signal id -> its index, in order of first appearance
        self._index = {}  # signal cell as written -> index of its signal id

    def columns(self, cells, n):
        names = cells[1::3]
        for name in dict.fromkeys(names):  # each distinct cell of the block, in order of appearance
            if name not in self._index:
                self._index[name] = self.signal_ids.setdefault(name.strip(), len(self.signal_ids))
        sids = np.fromiter(map(self._index.__getitem__, names), dtype=np.intp, count=n)
        return np.array(cells[0::3], dtype=float), np.array(cells[2::3], dtype=float), sids

    def numeric_cells(self, cells):
        return [("time", cells[0]), ("value", cells[2])]


_LAYOUTS = {"wide_csv": _Wide, "long_csv": _Long}


def _parse_block(layout, lines, first_line, path):
    """(times, values, signal index) of the samples in one block of raw lines.

    The common case, a block of well-formed data lines, is checked and
    converted a whole column at a time; only a block that fails is walked
    line by line to name the first bad line.
    """
    text = "".join(lines)
    if "#" in text or "\n" in lines:
        text = "".join(filter(_is_data, lines))
    if text and not text.endswith("\n"):
        text += "\n"  # the file's last line
    counts = _cell_counts(text)
    if '"' not in text and np.all(counts == layout.ncols):
        cells = text.replace("\n", ",").split(",")
        cells.pop()  # after the last line's newline
        try:
            return layout.columns(cells, counts.size)
        except ValueError:
            pass
    for lineno, line in enumerate(lines, start=first_line):
        error = _is_data(line) and _line_error(layout, line.rstrip("\n"))
        if error:
            raise ParseError(error, path=path, line=lineno)
    raise RuntimeError(f"{path}: lines {first_line}-{first_line + len(lines) - 1} failed to convert "
                       "but no line is at fault")


def _split_signals(blocks, signal_ids, path):
    """One RawSignal per signal index with samples, in index order, each sorted by time.

    Empties the list of parsed blocks as it joins them, and gives every
    signal arrays of its own, so no capture-sized buffer outlives the parse.
    """
    if not blocks:
        return []
    times, values, sids = (np.concatenate(column) for column in zip(*blocks))
    blocks.clear()
    order = np.lexsort((times, sids))
    counts = np.bincount(sids)
    signals = []
    for sid, end in enumerate(np.cumsum(counts)):
        if not counts[sid]:
            continue
        rows = order[end - counts[sid]:end]
        ts, signal_id = times[rows], signal_ids[sid]
        if ts.size > 1 and np.any(np.diff(ts) <= 0):
            raise ParseError(f"duplicate timestamp in signal {signal_id!r}", path=path)
        try:
            signals.append(RawSignal(signal_id, ts, values[rows]))
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


def parse_capture(path, format="wide_csv", capture_id=None, label="benign", attack_kind=""):
    """Parse a capture file into a SignalCapture.

    format is "wide_csv" (header ``time,<sig1>,...``) or "long_csv"
    (header ``time,signal,value``). Signals with no samples at all are
    dropped; a file yielding zero signals is an error.
    """
    if format not in _LAYOUTS:
        raise ValueError(f"unknown format {format!r}")
    path = str(path)
    if capture_id is None:
        capture_id = Path(path).stem
    try:
        with open(path, encoding="utf-8") as fh:  # universal newlines: '\r\n' and '\r' end lines too
            for lineno, line in enumerate(fh, start=1):
                if _is_data(line):
                    break
            else:
                raise ParseError("empty file", path=path)
            if '"' in line:
                raise ParseError(_QUOTE_ERROR, path=path, line=lineno)
            try:
                layout = _LAYOUTS[format]([c.strip() for c in line.split(",")])
            except ValueError as exc:
                raise ParseError(str(exc), path=path, line=lineno) from None
            blocks = []
            while lines := list(islice(fh, max(1, BLOCK_CELLS // layout.ncols))):
                blocks.append(_parse_block(layout, lines, lineno + 1, path))
                lineno += len(lines)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path, line=_undecodable_line(path)) from None
    signals = _split_signals(blocks, list(layout.signal_ids), path)
    if not signals:
        raise DataError(f"{path}: capture contains no signals")
    return SignalCapture(capture_id=capture_id, signals=tuple(signals), source_path=path,
                         label=label, attack_kind=attack_kind)


def is_constant(values):
    vmax = float(np.max(values))
    vmin = float(np.min(values))
    return (vmax - vmin) < CONSTANT_TOL * max(1.0, abs(vmax))


def resample(capture, frequency_hz=10.0):
    """Resample all signals of a capture onto a shared uniform grid.

    The grid spans the intersection of the signals' observed windows at
    spacing 1/frequency_hz, so interpolation never extrapolates. Constant
    series are dropped; the rest are mean-centered and scaled to unit l2
    norm.
    """
    if not (0.0 < frequency_hz < np.inf):
        raise ValueError("frequency_hz must be positive and finite")
    if not capture.signals:
        raise DataError(f"{capture.capture_id}: empty capture")

    start = max(float(s.timestamps[0]) for s in capture.signals)
    end = min(float(s.timestamps[-1]) for s in capture.signals)
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
    grid = start + np.arange(int(n_points)) * step

    kept_ids, rows, dropped = [], [], []
    for sig in capture.signals:
        interp = np.interp(grid, sig.timestamps, sig.values)
        if is_constant(interp):
            dropped.append(sig.signal_id)
            continue
        centered = interp - interp.mean()
        rows.append(centered / np.linalg.norm(centered))
        kept_ids.append(sig.signal_id)

    if not rows:
        raise DegenerateCaptureError(f"{capture.capture_id}: all signals constant on the common grid")
    return SignalMatrix(capture_id=capture.capture_id, signal_ids=tuple(kept_ids),
                        grid=grid, data=np.vstack(rows), dropped_constant=tuple(dropped))

"""Capture ingestion: parse signal-translated CAN logs and resample them.

Two CSV layouts are accepted. ``wide_csv`` has a ``time`` column followed by
one column per signal, with empty cells meaning "no sample at that time"
(signals transmit at different rates). ``long_csv`` has one sample per row
with columns ``time,signal,value``. Lines starting with ``#`` are ignored.

Resampling puts every signal of a capture onto a shared uniform grid by
linear interpolation (never extrapolation), drops constant signals, and
normalizes each remaining series to zero mean and unit l2 norm so that row
dot products downstream are exactly Pearson correlations.
"""

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, DegenerateCaptureError, InsufficientOverlapError, ParseError

# relative float-noise tolerance for "this signal never moves"
CONSTANT_TOL = 1e-12

# most grid points one resampled capture may have: 10 million is 11.6 days at
# 10 Hz or 27.8 hours at 100 Hz, far beyond any drive capture, and keeps a
# corrupt timestamp from turning into a multi-GB (or impossible) allocation
MAX_GRID_POINTS = 10_000_000


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

    def signal_ids(self):
        return [s.signal_id for s in self.signals]


@dataclass(frozen=True)
class SignalMatrix:
    """Resampled capture: N centered unit-norm rows on a uniform grid."""

    capture_id: str
    signal_ids: tuple
    grid: np.ndarray
    data: np.ndarray  # N x T
    dropped_constant: tuple


def _numbered_rows(path):
    """Yield (line_number, raw_row) from a CSV file, skipping comments and blanks."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (row[0].lstrip().startswith("#")):
                continue
            yield lineno, row


def _parse_float(cell, path, lineno, what):
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"non-numeric {what} {cell!r}", path=path, line=lineno) from None


def _finish_signal(signal_id, samples, path):
    samples.sort(key=lambda tv: tv[0])
    ts = np.array([t for t, _ in samples])
    if ts.size > 1 and np.any(np.diff(ts) <= 0):
        raise ParseError(f"duplicate timestamp in signal {signal_id!r}", path=path)
    try:
        return RawSignal(signal_id, ts, np.array([v for _, v in samples]))
    except DataError as exc:
        raise ParseError(str(exc), path=path) from None


def parse_capture(path, format="wide_csv", capture_id=None, label="benign", attack_kind=""):
    """Parse a capture file into a SignalCapture.

    format is "wide_csv" (header ``time,<sig1>,...``) or "long_csv"
    (header ``time,signal,value``). Signals with no samples at all are
    dropped; a file yielding zero signals is an error.
    """
    path = str(path)
    if capture_id is None:
        capture_id = Path(path).stem
    rows = _numbered_rows(path)
    try:
        header_lineno, header = next(rows)
    except StopIteration:
        raise ParseError("empty file", path=path) from None
    header = [c.strip() for c in header]

    if format == "wide_csv":
        if len(header) < 2 or header[0] != "time":
            raise ParseError("wide_csv header must be 'time,<signal>,...'", path=path, line=header_lineno)
        sig_ids = header[1:]
        if len(set(sig_ids)) != len(sig_ids):
            raise ParseError("duplicate signal column in header", path=path, line=header_lineno)
        samples = {sid: [] for sid in sig_ids}
        for lineno, row in rows:
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} cells, got {len(row)}", path=path, line=lineno)
            t = _parse_float(row[0], path, lineno, "time")
            for sid, cell in zip(sig_ids, row[1:]):
                cell = cell.strip()
                if cell == "":
                    continue  # sparse transmission
                samples[sid].append((t, _parse_float(cell, path, lineno, "value")))
        signals = [_finish_signal(sid, s, path) for sid, s in samples.items() if s]
    elif format == "long_csv":
        if header != ["time", "signal", "value"]:
            raise ParseError("long_csv header must be 'time,signal,value'", path=path, line=header_lineno)
        samples = {}
        for lineno, row in rows:
            if len(row) != 3:
                raise ParseError(f"expected 3 cells, got {len(row)}", path=path, line=lineno)
            t = _parse_float(row[0], path, lineno, "time")
            v = _parse_float(row[2], path, lineno, "value")
            samples.setdefault(row[1].strip(), []).append((t, v))
        signals = [_finish_signal(sid, s, path) for sid, s in samples.items() if s]
    else:
        raise ValueError(f"unknown format {format!r}")

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

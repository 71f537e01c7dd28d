"""One capture at a time: the analysis parameters, and one capture's dendrograms.

A RunConfig holds the analysis parameters, checked when it is built.
summarize() resamples, correlates and clusters one capture, keeping only
what it measured and one dendrogram per linkage. fan_out() spreads work
over every available CPU: the CLI parses and summarizes each file in one
step, and canclust.report scores each linkage's pairs of captures.
"""

import math
import os
import pickle
from typing import NamedTuple

from .clusim import HierarchyParams
from .correlation import DISSIMILARITIES, to_dissimilarity
from .errors import ConfigError, DataError, checked
from .hierarchy import LINKAGES, agglomerate
from .ingest import resample


@checked
class RunConfig(NamedTuple):
    """The analysis parameters, checked when built; report.json echoes these fields as its config."""

    frequency_hz: float = 10.0
    linkages: tuple = LINKAGES
    r: float = -5.0
    alpha: float = 0.9
    significance: float = 0.05
    dissimilarity: str = "one_minus_abs_rho"
    allow_intersection: bool = False

    def _check(self):
        if not self.linkages:
            raise ConfigError("need at least one linkage")
        bad = [l for l in self.linkages if l not in LINKAGES]
        if bad:
            raise ConfigError(f"unknown linkages {bad}; choose from {LINKAGES}")
        if len(set(self.linkages)) < len(self.linkages):
            raise ConfigError(f"duplicate linkages in {list(self.linkages)}")
        if self.dissimilarity not in DISSIMILARITIES:
            raise ConfigError(f"unknown dissimilarity {self.dissimilarity!r}; choose from {DISSIMILARITIES}")
        if not (0.0 < self.significance < 1.0):
            raise ConfigError("significance must be in (0, 1)")
        if not (0.0 < self.frequency_hz < math.inf):
            raise ConfigError("frequency_hz must be positive and finite")
        self.params  # checks r and alpha
        return self

    @property
    def params(self):
        """The HierarchyParams that pairs are scored with."""
        try:
            return HierarchyParams(r=self.r, alpha=self.alpha)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _share(fn, items):
    """fn of each item, in order, up to and including the first failure, which is kept as its exception."""
    outcomes = []
    for item in items:
        try:
            outcomes.append(fn(item))
        except Exception as exc:
            outcomes.append(exc)
            break
    return outcomes


def _fork_share(fn, items, siblings):
    """Start a child that runs fn on items and pickles the outcomes to a pipe; (its pid, the pipe's read end)."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns: os._exit skips the parent's cleanup and atexit handlers
        status = 1
        try:
            os.close(r)
            for _pid, fd in siblings:  # so that a sibling's pipe breaks when the parent closes it
                os.close(fd)
            with open(w, "wb") as pipe:
                pickle.dump(_share(fn, items), pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


def _receive_share(pid, fd):
    """The outcomes a child sends; the child is reaped either way."""
    try:
        with open(fd, "rb") as pipe:
            outcomes = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):  # the child died before it wrote all of them
        outcomes = None
    finally:
        _pid, status = os.waitpid(pid, 0)
    if outcomes is None:
        raise RuntimeError(f"worker process {pid} exited with status "
                           f"{os.waitstatus_to_exitcode(status)} before sending its results")
    return outcomes


def fan_out(fn, items):
    """fn of each item on every available CPU: the results in input order.

    With n processes, this one runs items[0::n] and forked children
    items[k::n], each sending its results through its own pipe. The first
    failure in input order is raised, as running the items in turn would.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    n = max(1, min(len(items), cpus)) if hasattr(os, "fork") else 1  # no items: one empty share
    children = []  # (pid, pipe read end) of shares 1..n-1, until received
    try:
        for k in range(1, n):
            children.append(_fork_share(fn, items[k::n], children))
        shares = [_share(fn, items[0::n])]
        while children:
            shares.append(_receive_share(*children.pop(0)))
    finally:  # after a failure: unread children see a broken pipe and exit
        for pid, fd in children:
            os.close(fd)
            os.waitpid(pid, 0)
    results = []
    for i in range(len(items)):
        outcome = shares[i % n][i // n]  # present: a share stops only after an earlier index's failure
        if isinstance(outcome, Exception):
            raise outcome
        results.append(outcome)
    return results


def summarize(capture, config):
    """What resampling one capture measured, and its Dendrogram under each of config.linkages, in order.

    A DataError, whose message starts with the capture's id, is re-raised naming the file it came from.
    """
    try:
        m = resample(capture, config.frequency_hz)
        dm = to_dissimilarity(m, config.dissimilarity)
    except DataError as exc:
        if not capture.source_path:
            raise
        raise DataError(f"{capture.source_path}: {exc}") from exc
    measured = {"n_signals": len(m.signal_ids), "t": int(m.grid.size), "dropped_constant": list(m.dropped_constant)}
    return measured, tuple(agglomerate(dm, linkage) for linkage in config.linkages)

"""Seeded capture generators for the benchmark workloads.

The benchmark makes its own inputs so that a change to the program cannot
change what a workload feeds in: nothing here imports canclust. Every draw
comes from numpy's PCG64 seeded through SeedSequence, so the same seed gives
byte-identical files.

A "vehicle" fixes the correlation structure (group loadings, noise levels,
message rates and phases); every capture of one workload is a fresh drive
of the same vehicle, and attacks rewrite values inside a time window without
touching timestamps.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

LINKAGES = ("single", "complete", "average", "ward")


@dataclass(frozen=True)
class WideCorpus:
    """Dense wide-CSV captures: every signal sampled on one 10 Hz clock."""

    n_groups: int
    per_group: int
    duration_s: float
    rate_hz: float
    n_benign: int
    n_break: int


@dataclass(frozen=True)
class SparseCorpus:
    """ROAD-shaped long-CSV captures: one CAN id per group, own rate and phase."""

    n_groups: int
    per_group: int
    duration_s: float
    rates_hz: tuple
    n_benign: int
    n_break: int
    n_max_value: int
    constant_pool: int  # signals that may be stuck constant in a capture
    constant_per_capture: int


def signal_id(group, member):
    return f"ID_{0x100 + group:03X}_sig_{member}"


def _ar1(rng, steps, phi):
    """Stationary unit-variance AR(1) path."""
    shocks = rng.standard_normal(steps) * np.sqrt(1.0 - phi * phi)
    out = np.empty(steps)
    out[0] = rng.standard_normal()
    for k in range(1, steps):
        out[k] = phi * out[k - 1] + shocks[k]
    return out


def _vehicle(rng, n_groups, per_group):
    """Per-signal loadings, offsets and noise levels shared by every capture."""
    return {
        "pair_coupling": rng.uniform(0.2, 0.6, size=n_groups),
        "gain": rng.uniform(0.5, 3.0, size=(n_groups, per_group)) * rng.choice([-1.0, 1.0], size=(n_groups, per_group)),
        "offset": rng.uniform(-50.0, 50.0, size=(n_groups, per_group)),
        # distinct noise per member keeps the in-group merge order stable
        "noise": np.sort(rng.uniform(0.05, 0.45, size=(n_groups, per_group)), axis=1),
    }


def _drive(rng, vehicle, t):
    """One capture's signal values at times t: array (groups, members, len(t))."""
    n_groups, per_group = vehicle["gain"].shape
    steps = t.size
    common = _ar1(rng, steps, 0.995)
    pairs = [_ar1(rng, steps, 0.99) for _ in range((n_groups + 1) // 2)]
    values = np.empty((n_groups, per_group, steps))
    for g in range(n_groups):
        c = vehicle["pair_coupling"][g]
        latent = _ar1(rng, steps, 0.98) + c * pairs[g // 2] + 0.15 * common
        for m in range(per_group):
            noise = vehicle["noise"][g, m] * rng.standard_normal(steps)
            values[g, m] = vehicle["gain"][g, m] * (latent + noise) + vehicle["offset"][g, m]
    return values


def _break(rng, series, t, duration_s):
    """correlated_break: targets follow independent paths inside the window."""
    lo, hi = sorted(rng.uniform(0.1, 0.9, size=2) * duration_s)
    hi = max(hi, lo + 0.4 * duration_s)
    window = (t >= lo) & (t <= hi)
    for row in series:
        scale = row.std()
        row[window] = row.mean() + scale * _ar1(rng, int(window.sum()), 0.98)


def _fmt_value(v):
    return "%.9g" % v


def _write_wide(path, t, ids, rows):
    cols = [["%.3f" % x for x in t]] + [[_fmt_value(v) for v in row] for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time," + ",".join(ids) + "\n")
        fh.writelines(",".join(cells) + "\n" for cells in zip(*cols))


def write_wide_corpus(spec, seed, out_dir):
    """Write the captures of a WideCorpus; return their manifest.

    Manifest entries are dicts with capture_id, path, label and attack_kind.
    Files are named <capture_id>.csv, and capture ids are <kind>_<NN> with
    kind "benign" or the attack kind; benign captures come first.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    root = np.random.SeedSequence(seed)
    vehicle_ss, *capture_ss = root.spawn(1 + spec.n_benign + spec.n_break)
    vrng = np.random.Generator(np.random.PCG64(vehicle_ss))
    vehicle = _vehicle(vrng, spec.n_groups, spec.per_group)
    ids = [signal_id(g, m) for g in range(spec.n_groups) for m in range(spec.per_group)]
    t = np.arange(int(round(spec.duration_s * spec.rate_hz))) / spec.rate_hz
    manifest = []
    for k, ss in enumerate(capture_ss):
        rng = np.random.Generator(np.random.PCG64(ss))
        values = _drive(rng, vehicle, t)
        if k < spec.n_benign:
            cid, label, kind = f"benign_{k:02d}", "benign", ""
        else:
            cid, label, kind = f"correlated_break_{k - spec.n_benign:02d}", "attack", "correlated_break"
            _break(rng, values[rng.integers(spec.n_groups)], t, spec.duration_s)
        path = out / f"{cid}.csv"
        _write_wide(path, t, ids, values.reshape(len(ids), -1))
        manifest.append({"capture_id": cid, "path": str(path), "label": label, "attack_kind": kind})
    return manifest


def _write_long(path, stamps, ids, values):
    """Rows time,signal,value in time order (ties keep signal order)."""
    times = np.concatenate(stamps)
    order = np.argsort(times, kind="stable")
    names = np.concatenate([[sid] * s.size for sid, s in zip(ids, stamps)])[order]
    vals = np.concatenate(values)[order]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time,signal,value\n")
        fh.writelines("%.6f,%s,%s\n" % (x, n, _fmt_value(v)) for x, n, v in zip(times[order], names, vals))


def write_sparse_corpus(spec, seed, out_dir):
    """Write the captures of a SparseCorpus; return their manifest (see write_wide_corpus)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_caps = spec.n_benign + spec.n_break + spec.n_max_value
    root = np.random.SeedSequence(seed)
    vehicle_ss, *capture_ss = root.spawn(1 + n_caps)
    vrng = np.random.Generator(np.random.PCG64(vehicle_ss))
    vehicle = _vehicle(vrng, spec.n_groups, spec.per_group)
    rates = [spec.rates_hz[g % len(spec.rates_hz)] for g in range(spec.n_groups)]
    phases = [vrng.uniform(0.0, 1.0 / r) for r in rates]
    n_sig = spec.n_groups * spec.per_group
    pool = vrng.choice(n_sig, size=spec.constant_pool, replace=False)
    ids = [signal_id(g, m) for g in range(spec.n_groups) for m in range(spec.per_group)]
    # latent processes run at the fastest message rate; each id samples them at its own stamps
    fine_hz = max(spec.rates_hz)
    fine_t = np.arange(int(round(spec.duration_s * fine_hz)) + 1) / fine_hz
    kinds = (["benign"] * spec.n_benign + ["correlated_break"] * spec.n_break
             + ["max_value"] * spec.n_max_value)
    manifest, per_kind = [], {}
    for ss, kind in zip(capture_ss, kinds):
        rng = np.random.Generator(np.random.PCG64(ss))
        fine = _drive(rng, vehicle, fine_t).reshape(n_sig, -1)
        stuck = rng.choice(pool, size=spec.constant_per_capture, replace=False)
        if kind == "correlated_break":
            g = int(rng.integers(spec.n_groups))
            _break(rng, fine[g * spec.per_group:(g + 1) * spec.per_group], fine_t, spec.duration_s)
        elif kind == "max_value":
            target = int(rng.choice(np.setdiff1d(np.arange(n_sig), pool)))
            lo, hi = sorted(rng.uniform(0.1, 0.9, size=2) * spec.duration_s)
            hi = max(hi, lo + 0.3 * spec.duration_s)
            fine[target, (fine_t >= lo) & (fine_t <= hi)] = fine[target].max()
        for s in stuck:
            fine[s] = np.round(fine[s, 0], 1)
        stamps, values = [], []
        for g in range(spec.n_groups):
            period = 1.0 / rates[g]
            base = phases[g] + np.arange(int((spec.duration_s - phases[g]) / period)) * period
            ts = base + rng.uniform(-0.1, 0.1, size=base.size) * period
            ts = np.clip(ts, 0.0, spec.duration_s)
            for m in range(spec.per_group):
                row = g * spec.per_group + m
                stamps.append(ts)
                values.append(np.interp(ts, fine_t, fine[row]))
        index = per_kind[kind] = per_kind.get(kind, -1) + 1
        cid = f"{kind}_{index:02d}"
        label, akind = ("benign", "") if kind == "benign" else ("attack", kind)
        path = out / f"{cid}.csv"
        _write_long(path, stamps, ids, values)
        manifest.append({"capture_id": cid, "path": str(path), "label": label, "attack_kind": akind})
    return manifest

"""Synthetic multi-signal captures with controllable correlation structure.

generate() builds groups of correlated signals. Each group follows one
smooth latent drift (a stationary AR(1) process), and members are affine
copies plus Gaussian noise scaled so the intra-group sample correlation
lands near the requested level. A vehicle's cluster structure is a stable
physical property from drive to drive, so the generator makes the benign
dendrogram topology deterministic: consecutive groups share a pair-level
drift with per-pair coupling strengths, all groups share a weak common
drift, and members carry distinct noise levels. The resulting correlation
gaps are far larger than sampling noise, so every benign capture clusters
the same way while attacks visibly rewire the tree. inject() applies
masquerade-style attacks that alter values inside a time window but never
touch timestamps. Neither records a role: whether a capture is benign or an
attack is the group its caller analyzes it in. write_spec_corpus() writes the
captures a JSON spec describes, for `canclust synth`.

Randomness comes from a self-contained xoshiro256** generator seeded through
splitmix64 (see docs/prng.md), so fixtures are reproducible bit-for-bit
across platforms and reimplementable in other languages.
"""

import json
import math
import numbers
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, checked, is_name
from .ingest import MAX_ABS_VALUE, MAX_GRID_POINTS, RawSignal, SignalCapture

_MASK = (1 << 64) - 1


def _splitmix64(seed):
    """Expand a 64-bit seed into a stream of 64-bit words."""
    state = seed & _MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


class Xoshiro256StarStar:
    """Portable xoshiro256** PRNG; state seeded via splitmix64."""

    def __init__(self, seed):
        sm = _splitmix64(int(seed))
        self._s = [next(sm) for _ in range(4)]

    def _words(self, n):
        """The next n outputs as Python ints; the state is read once and written back once."""
        mask = _MASK
        s0, s1, s2, s3 = self._s
        out = []
        append = out.append
        for _ in range(n):
            x = (s1 * 5) & mask
            append((((x << 7) | (x >> 57)) & mask) * 9 & mask)
            t = (s1 << 17) & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & mask
        self._s = [s0, s1, s2, s3]
        return out

    def next_u64(self):
        return self._words(1)[0]

    def uniforms(self, n):
        """n doubles in the open interval (0, 1): ((w >> 11) + 0.5) * 2^-53 of each word w (w >> 11 < 2^53 is exact)."""
        words = np.array(self._words(n), dtype=np.uint64)
        return ((words >> np.uint64(11)).astype(float) + 0.5) * 2.0 ** -53

    def normals(self, n, sigma=1.0):
        """n standard-normal draws (Box-Muller), scaled by sigma."""
        u1, u2 = np.split(self.uniforms(2 * ((n + 1) // 2)), 2)
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        out = np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])[:n]
        return sigma * out


def _integer(name, value):
    """value as an int: an integral float is kept as its int; a bool is not taken for one."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(name, value):
    """value as a float: a bool, a string or None is not taken for one, nor an int past the largest float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be at most {sys.float_info.max:.3g} in magnitude") from None


@checked
class SynthSpec(NamedTuple):
    n_groups: int
    signals_per_group: int
    duration_s: float
    rate_hz: float
    intra_group_rho: float = 0.95
    noise_sigma: float = 1.0
    seed: int = 0

    def _check(self):
        integers = ("n_groups", "signals_per_group", "seed")
        self = tuple.__new__(type(self), [(_integer if name in integers else _number)(name, value)
                                          for name, value in zip(self._fields, self)])
        if self.n_groups < 1 or self.signals_per_group < 1:
            raise ValueError("need at least one group and one signal per group")
        samples = self.duration_s * self.rate_hz  # both checked before generate() builds an array
        if not (2 <= samples <= MAX_GRID_POINTS):
            raise ValueError(f"capture must span 2 to {MAX_GRID_POINTS} samples, got {samples}")
        # the signal count capped first: an int past the largest float does not convert to one
        if not min(self.n_groups * self.signals_per_group, MAX_GRID_POINTS + 1) * samples <= MAX_GRID_POINTS:
            raise ValueError(f"n_groups * signals_per_group * duration_s * rate_hz must be at most {MAX_GRID_POINTS}")
        if not (0.0 < self.intra_group_rho <= 1.0):
            raise ValueError("intra_group_rho must be in (0, 1]")
        if not (0.0 <= self.noise_sigma <= MAX_ABS_VALUE):  # a larger scale can overflow generate()
            raise ValueError(f"noise_sigma must be in [0, {MAX_ABS_VALUE:.3g}], got {self.noise_sigma}")
        return self


@checked
class AttackSpec(NamedTuple):
    """A masquerade attack of one kind on the target signals, over the window [start_s, end_s]; its keys are
    those of a spec's attack block, and seed seeds the draws of a correlated_break."""

    kind: str  # correlated_break | max_value
    targets: tuple
    start_s: float
    end_s: float
    seed: int = 0

    def _check(self):
        if self.kind not in ("correlated_break", "max_value"):
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if not (isinstance(self.targets, (list, tuple)) and all(isinstance(t, str) for t in self.targets)):
            raise ValueError(f"targets must be a list of signal ids, got {self.targets!r}")
        start_s, end_s = _number("start_s", self.start_s), _number("end_s", self.end_s)
        if not (0.0 <= start_s < end_s):
            raise ValueError("attack window must satisfy 0 <= start < end")
        return tuple.__new__(type(self), (self.kind, tuple(self.targets), start_s, end_s,
                                          _integer("attack seed", self.seed)))


def signal_id(group, member):
    """ROAD-style signal name for group g, member j."""
    return f"ID_{0x100 + group:03X}_sig_{member}"


AR_PHI = 0.5  # latent smoothness; short correlation length keeps sample rho tight
COMMON_WEIGHT = 0.05  # variance share of the capture-wide drift in every latent
MEMBER_NOISE_STEP = 0.4  # member j's noise scale is 1 + step * j


def _ar1(steps, phi=AR_PHI):
    out = np.empty(len(steps))
    acc = 0.0
    for t, s in enumerate(steps):
        acc = phi * acc + s
        out[t] = acc
    return out


def _standardize(x):
    return (x - x.mean()) / max(float(x.std()), 1e-30)


def pair_coupling(group, n_groups):
    """Variance share of the pair-level drift for group g.

    Groups (0,1), (2,3), ... form pairs with strengths 0.5, 0.3, 0.1, ...;
    an unpaired trailing group gets 0. Distinct strengths keep the
    between-group merge order deterministic.
    """
    pair = group // 2
    if 2 * pair + 1 >= n_groups:
        return 0.0
    return max(0.0, 0.5 - 0.2 * pair)


def generate(spec, capture_id=None):
    """Generate one capture from a SynthSpec, reproducible from seed.

    Group g's latent drift mixes the capture-wide drift, its pair's drift
    and its own AR(1) path; member j is latent * gain + offset +
    N(0, (noise_sigma * (1 + 0.4 j))^2) with the gain chosen so member 0's
    intra-group correlation hits intra_group_rho. Graded member noise makes
    within-group merge order deterministic too.
    """
    rng = Xoshiro256StarStar(spec.seed)
    t_count = int(round(spec.duration_s * spec.rate_hz))
    ts = np.arange(t_count) / spec.rate_hz
    ts.flags.writeable = False  # every signal holds this one array

    if spec.noise_sigma == 0 or spec.intra_group_rho == 1.0:
        gain = 1.0
        noise_sigma = 0.0
    else:
        # corr = gain^2 / (gain^2 + sigma^2)  =>  gain = sigma * sqrt(rho / (1 - rho))
        rho = spec.intra_group_rho
        gain = spec.noise_sigma * math.sqrt(rho / (1.0 - rho))
        noise_sigma = spec.noise_sigma

    common = _standardize(_ar1(rng.normals(t_count)))
    pair_drifts = {}
    signals = []
    for g in range(spec.n_groups):
        pair = g // 2
        if pair not in pair_drifts:
            pair_drifts[pair] = _standardize(_ar1(rng.normals(t_count)))
        w_pair = pair_coupling(g, spec.n_groups)
        w_own = max(0.0, 1.0 - COMMON_WEIGHT - w_pair)
        own = _standardize(_ar1(rng.normals(t_count)))
        latent = _standardize(math.sqrt(COMMON_WEIGHT) * common
                              + math.sqrt(w_pair) * pair_drifts[pair]
                              + math.sqrt(w_own) * own)
        for j in range(spec.signals_per_group):
            offset = 20.0 * (rng.uniforms(1)[0] - 0.5)
            scale = noise_sigma * (1.0 + MEMBER_NOISE_STEP * j)
            noise = rng.normals(t_count, sigma=scale) if scale > 0 else 0.0
            values = gain * latent + offset + noise
            signals.append(RawSignal(signal_id(g, j), ts, values))

    if capture_id is None:
        capture_id = f"synth_{spec.seed:016x}"
    return SignalCapture(capture_id=capture_id, signals=tuple(signals))


def inject(capture, attack):
    """Apply a masquerade attack to a capture's target signals in-window, reproducible from attack.seed.

    correlated_break replaces the window with independent noise matching each
    target's marginal mean/std; max_value pins the window to the signal's
    capture-wide maximum. Timestamps and non-target signals are untouched.
    """
    if not attack.targets:
        return capture
    present = {s.signal_id for s in capture.signals}
    missing = [t for t in attack.targets if t not in present]
    if missing:
        raise DataError(f"attack targets not in capture: {missing}")
    span_end = max(float(s.timestamps[-1]) for s in capture.signals)
    if attack.start_s > span_end:
        raise DataError(f"attack window starts after capture ends ({attack.start_s} > {span_end})")

    rng = Xoshiro256StarStar(attack.seed)
    targets = set(attack.targets)
    new_signals = []
    for sig in capture.signals:
        if sig.signal_id not in targets:
            new_signals.append(sig)
            continue
        mask = (sig.timestamps >= attack.start_s) & (sig.timestamps <= attack.end_s)
        values = sig.values.copy()
        if attack.kind == "correlated_break":
            mean, std = float(sig.values.mean()), float(sig.values.std())
            values[mask] = mean + rng.normals(int(mask.sum()), sigma=std)
        else:  # max_value
            values[mask] = float(sig.values.max())
        new_signals.append(RawSignal(sig.signal_id, sig.timestamps, values))

    return capture._replace(signals=tuple(new_signals))


def write_wide_csv(capture, path):
    """Write a capture in the ingest module's wide_csv schema.

    Assumes all signals share one timestamp grid (true for generated
    captures); signals on differing grids need the long format.
    """
    grids = {tuple(s.timestamps) for s in capture.signals}
    if len(grids) != 1:
        raise DataError("write_wide_csv requires a shared timestamp grid")
    ts = capture.signals[0].timestamps
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time," + ",".join(s.signal_id for s in capture.signals) + "\n")
        for k, t in enumerate(ts):
            fh.write(repr(float(t)) + "," +
                     ",".join(repr(float(s.values[k])) for s in capture.signals) + "\n")


def _spec_capture(entry, defaults):
    """(capture, attack kind or "") of one spec entry, attack applied; a spec mistake is a ConfigError."""
    # TypeError/ValueError: an unknown, missing, mistyped or out-of-range field or attack key; DataError: an
    # attack that does not fit the generated capture (unknown target, late window)
    try:
        if (capture_id := entry.get("id")) is not None and not is_name(capture_id):  # it names a file in out
            raise ValueError("id must be a name of letters, digits, '_', '-' and '.'")
        spec = SynthSpec(**{**defaults, **{k: v for k, v in entry.items() if k not in ("id", "attack")}})
        attack = AttackSpec(**entry["attack"]) if entry.get("attack") else None
        cap = generate(spec, capture_id=capture_id)
        return (inject(cap, attack), attack.kind) if attack else (cap, "")
    except (TypeError, ValueError, DataError) as exc:
        raise ConfigError(f"capture {entry.get('id')!r}: {exc}") from None


def write_spec_corpus(spec_path, out):
    """Write the captures of a JSON spec file to the directory out, with a manifest.json of each one's
    file, id and role; the number written.

    A spec is an object with a 'captures' list and optional 'defaults' object: each entry holds an 'id',
    SynthSpec fields and optionally an 'attack' block of AttackSpec's keys (kind, targets, start_s, end_s,
    seed). A file that is not such a document is a DataError; a mistake in an entry, such as an id that is
    not a name (see errors.is_name), is a ConfigError naming it, and an id two entries share one naming both.
    """
    try:
        with open(spec_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise DataError(f"{spec_path}: not a JSON document ({exc})") from None
    if not (isinstance(doc, dict) and isinstance(doc.get("captures"), list)
            and isinstance(doc.get("defaults", {}), dict)):
        raise DataError(f"{spec_path}: a spec is a JSON object with a 'captures' list and optional 'defaults' object")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    entries = {}  # capture id -> the index of its entry
    for k, entry in enumerate(doc["captures"]):
        if not isinstance(entry, dict):
            raise ConfigError(f"captures[{k}] must be a JSON object, got {entry!r}")
        cap, kind = _spec_capture(entry, doc.get("defaults", {}))
        if (first := entries.setdefault(cap.capture_id, k)) != k:
            raise ConfigError(f"captures[{first}] and captures[{k}] have the same id {cap.capture_id!r}")
        filename = f"{cap.capture_id}.csv"
        write_wide_csv(cap, out / filename)
        manifest.append({"path": filename, "capture_id": cap.capture_id,
                         "label": "attack" if kind else "benign", "attack_kind": kind})
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump({"files": manifest}, fh, indent=2)
        fh.write("\n")
    return len(manifest)

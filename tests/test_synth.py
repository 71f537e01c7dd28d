import hashlib
import math
import re

import numpy as np
import pytest

from canclust.errors import DataError
from canclust.ingest import MAX_ABS_VALUE, RawSignal, parse_capture
from canclust.synth import (AttackSpec, SynthSpec, Xoshiro256StarStar, generate, inject,
                            pair_coupling, signal_id, write_wide_csv)

BASE_SPEC = dict(n_groups=4, signals_per_group=4, duration_s=60.0, rate_hz=10.0)


def small_spec(**overrides):
    kw = dict(n_groups=2, signals_per_group=3, duration_s=30.0, rate_hz=10.0,
              intra_group_rho=0.95, noise_sigma=1.0, seed=7)
    kw.update(overrides)
    return SynthSpec(**kw)


class TestPrng:
    def test_deterministic(self):
        a = Xoshiro256StarStar(123)
        b = Xoshiro256StarStar(123)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_seed_sensitivity(self):
        assert Xoshiro256StarStar(1).next_u64() != Xoshiro256StarStar(2).next_u64()

    def test_uniforms_open_interval(self):
        u = Xoshiro256StarStar(9).uniforms(5000)
        assert np.all(u > 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.02

    def test_normals_moments(self):
        z = Xoshiro256StarStar(11).normals(20000, sigma=2.0)
        assert abs(z.mean()) < 0.05
        assert abs(z.std() - 2.0) < 0.05

    def test_outputs_fit_64_bits(self):
        g = Xoshiro256StarStar(42)
        assert all(0 <= g.next_u64() < 2 ** 64 for _ in range(100))


def capture_digest(cap):
    """SHA-256 over every signal's id, timestamps and values, in capture order."""
    h = hashlib.sha256()
    for s in cap.signals:
        h.update(s.signal_id.encode())
        h.update(np.ascontiguousarray(s.timestamps, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(s.values, dtype="<f8").tobytes())
    return h.hexdigest()


class TestStreamDigests:
    """Captures are pinned bit for bit: a faster draw loop must reproduce these digests."""

    CASES = {
        "small_seed7": (lambda: generate(small_spec()),
                        "50064375de7845201da9ccca5f0e6de05266063cf39b00ea8cd4036cec93761b"),
        "base_seed1000": (lambda: generate(SynthSpec(seed=1000, **BASE_SPEC)),
                          "530fdee48bcd9788a4d3e620343989f56b125b87a529793e53951c8aa60fbeff"),
        # odd length: Box-Muller's last pair is half discarded; the largest seed
        "odd_length": (lambda: generate(SynthSpec(n_groups=5, signals_per_group=2, duration_s=2.5, rate_hz=10.0,
                                                  intra_group_rho=0.8, seed=2 ** 64 - 1)),
                       "903b1dc6c1d825097b79536408135b959546f7f064881dbef8e64ddd6c317f4a"),
        "noise_free": (lambda: generate(SynthSpec(n_groups=3, signals_per_group=2, duration_s=10.0, rate_hz=5.0,
                                                  noise_sigma=0.0, seed=3)),
                       "fc2abf2480a94812eccb5e6d9c3621d9ce17cbef6741c23ada15627ecce7d458"),
        "correlated_break": (lambda: inject(generate(SynthSpec(seed=100, **BASE_SPEC)),
                                            AttackSpec("correlated_break", tuple(signal_id(0, j) for j in range(4)),
                                                       10.0, 50.0, seed=200)),
                             "ba9248134d791665c5ba3270b499a1ef487a503ee7d4abd27fa034363ac57e9e"),
        "max_value": (lambda: inject(generate(SynthSpec(seed=101, **BASE_SPEC)),
                                     AttackSpec("max_value", (signal_id(0, 0),), 6.0, 54.0, seed=201)),
                      "2f12b3794c86cd62512a39b4a07242806a1eac3a69e784f2335bd30079b7868f"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_capture_digest(self, case):
        make, digest = self.CASES[case]
        assert capture_digest(make()) == digest

    def test_uniforms_then_next_u64(self):
        # a block of uniforms leaves the state where one draw at a time would
        g = Xoshiro256StarStar(123)
        u = g.uniforms(1001)
        assert hashlib.sha256(u.tobytes()).hexdigest() == (
            "b93921b235fa5695cd6a7b303fe148baf54078eea472b505681f5df02906ab28")
        assert [g.next_u64() for _ in range(3)] == [15697011380563813994, 9059344732895504762,
                                                    16161488132614639985]
        assert Xoshiro256StarStar(5).uniforms(0).shape == (0,)


class TestGenerate:
    def test_deterministic(self):
        c1 = generate(small_spec())
        c2 = generate(small_spec())
        assert c1.capture_id == c2.capture_id
        for s1, s2 in zip(c1.signals, c2.signals):
            assert s1.signal_id == s2.signal_id
            assert np.array_equal(s1.values, s2.values)
            assert np.array_equal(s1.timestamps, s2.timestamps)

    def test_seed_changes_values(self):
        c1 = generate(small_spec(seed=1))
        c2 = generate(small_spec(seed=2))
        assert not np.array_equal(c1.signals[0].values, c2.signals[0].values)

    def test_naming_and_counts(self):
        cap = generate(small_spec(n_groups=3, signals_per_group=2))
        assert len(cap.signals) == 6
        assert cap.signals[0].signal_id == "ID_100_sig_0"
        assert cap.signals[-1].signal_id == "ID_102_sig_1"
        assert signal_id(2, 1) == "ID_102_sig_1"

    def test_grid(self):
        cap = generate(small_spec(duration_s=5.0, rate_hz=20.0))
        ts = cap.signals[0].timestamps
        assert len(ts) == 100
        assert abs(ts[1] - ts[0] - 0.05) < 1e-12

    def test_zero_noise_perfect_intra_group_correlation(self):
        cap = generate(small_spec(noise_sigma=0.0))
        a, b = cap.signals[0].values, cap.signals[1].values
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho - 1.0) < 1e-12

    def test_intra_group_rho_near_target(self):
        cap = generate(small_spec(duration_s=600.0, intra_group_rho=0.9, seed=3))
        a, b = cap.signals[0].values, cap.signals[1].values
        assert abs(np.corrcoef(a, b)[0, 1] - 0.9) < 0.06

    def test_independent_captures_weakly_correlated(self):
        # two single-group captures from independent seeds share no structure
        spec = dict(n_groups=1, signals_per_group=1, duration_s=500.0, rate_hz=10.0)
        a = generate(SynthSpec(seed=101, **spec)).signals[0].values
        b = generate(SynthSpec(seed=202, **spec)).signals[0].values
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.3

    def test_pair_coupling_schedule(self):
        assert pair_coupling(0, 4) == pair_coupling(1, 4) == 0.5
        assert abs(pair_coupling(2, 4) - 0.3) < 1e-12
        assert pair_coupling(4, 5) == 0.0  # unpaired trailing group

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            small_spec(n_groups=0)
        with pytest.raises(ValueError):
            small_spec(intra_group_rho=0.0)
        with pytest.raises(ValueError):
            small_spec(duration_s=0.05)
        with pytest.raises(ValueError):
            small_spec(noise_sigma=-1.0)
        for field, value in (("noise_sigma", math.inf), ("noise_sigma", math.nan), ("noise_sigma", 1e151),
                             ("seed", math.inf), ("seed", math.nan), ("seed", 1 - 2 ** -53), ("seed", "7")):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                small_spec(**{field: value})
        for field in ("duration_s", "rate_hz", "intra_group_rho", "noise_sigma"):  # a number, but not a bool
            for value in (True, "3", None):
                with pytest.raises(ValueError, match=f"^{field} must be a number, got {value!r}$"):
                    small_spec(**{field: value})
        assert type(small_spec(duration_s=30).duration_s) is float

    @pytest.mark.parametrize("field", ["duration_s", "rate_hz"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 1e12])
    def test_span_beyond_a_grid(self, field, value, monkeypatch):
        # rejected when the spec is built, before generate() asks numpy for its samples
        monkeypatch.setattr(np, "arange", None)
        with pytest.raises(ValueError, match="capture must span 2 to 10000000 samples"):
            small_spec(**{field: value})

    def test_size_beyond_a_grid(self, monkeypatch):
        # signals x samples is bounded too, before generate() builds a signal: 1000 signals of 10000 samples fit
        monkeypatch.setattr(np, "arange", None)
        small_spec(n_groups=1000, signals_per_group=1, duration_s=1000.0)
        for groups, signals in ((1001, 1), (10 ** 9, 3), (2, 10 ** 9)):
            with pytest.raises(ValueError, match=r"n_groups \* signals_per_group \* duration_s \* rate_hz "
                                                 r"must be at most 10000000"):
                small_spec(n_groups=groups, signals_per_group=signals, duration_s=1000.0)

    def test_largest_noise_sigma_and_integral_float_seed(self):
        assert small_spec(noise_sigma=MAX_ABS_VALUE).noise_sigma == MAX_ABS_VALUE
        spec = small_spec(seed=7.0)
        assert type(spec.seed) is int and spec == small_spec(seed=7)
        assert generate(spec).capture_id == "synth_0000000000000007"

    def test_capture_id_override(self):
        assert generate(small_spec(), capture_id="run_7").capture_id == "run_7"


class TestInject:
    def make(self):
        return generate(small_spec(seed=5))

    def test_empty_targets_is_noop(self):
        cap = self.make()
        atk = AttackSpec("max_value", (), 0.0, 10.0)
        assert inject(cap, atk) is cap

    def test_timestamps_and_nontargets_untouched(self):
        cap = self.make()
        atk = AttackSpec("correlated_break", ("ID_100_sig_0",), 5.0, 20.0, seed=3)
        out = inject(cap, atk)
        for orig, new in zip(cap.signals, out.signals):
            assert np.array_equal(orig.timestamps, new.timestamps)
            if orig.signal_id != "ID_100_sig_0":
                assert np.array_equal(orig.values, new.values)

    def test_locality(self):
        cap = self.make()
        atk = AttackSpec("correlated_break", ("ID_100_sig_0",), 5.0, 20.0, seed=3)
        out = inject(cap, atk)
        orig = cap.signals[0]
        new = out.signals[0]
        outside = (orig.timestamps < 5.0) | (orig.timestamps > 20.0)
        assert np.array_equal(orig.values[outside], new.values[outside])
        assert not np.array_equal(orig.values[~outside], new.values[~outside])

    def test_inject_deterministic(self):
        cap = self.make()
        atk = AttackSpec("correlated_break", ("ID_100_sig_0",), 0.0, 30.0, seed=9)
        v1 = inject(cap, atk).signals[0].values
        v2 = inject(cap, atk).signals[0].values
        assert np.array_equal(v1, v2)
        v3 = inject(cap, atk._replace(seed=10)).signals[0].values
        assert not np.array_equal(v1, v3)

    def test_correlated_break_matches_marginal(self):
        cap = generate(small_spec(duration_s=400.0, seed=8))
        atk = AttackSpec("correlated_break", ("ID_100_sig_0",), 0.0, 400.0, seed=2)
        out = inject(cap, atk)
        orig, new = cap.signals[0].values, out.signals[0].values
        assert abs(new.mean() - orig.mean()) < 0.15 * max(1.0, abs(orig.mean()))
        assert abs(new.std() - orig.std()) < 0.1 * orig.std()
        # replacement noise is uncorrelated with the rest of the group
        assert abs(np.corrcoef(new, cap.signals[1].values)[0, 1]) < 0.2

    def test_max_value_pins_window(self):
        cap = self.make()
        atk = AttackSpec("max_value", ("ID_101_sig_1",), 10.0, 20.0)
        out = inject(cap, atk)
        sig = next(s for s in out.signals if s.signal_id == "ID_101_sig_1")
        orig = next(s for s in cap.signals if s.signal_id == "ID_101_sig_1")
        mask = (sig.timestamps >= 10.0) & (sig.timestamps <= 20.0)
        assert np.all(sig.values[mask] == orig.values.max())
        assert np.array_equal(sig.values[~mask], orig.values[~mask])

    def test_missing_target(self):
        with pytest.raises(DataError, match="not in capture"):
            inject(self.make(), AttackSpec("max_value", ("nope",), 0.0, 1.0))

    def test_window_after_capture(self):
        with pytest.raises(DataError, match="after capture ends"):
            inject(self.make(), AttackSpec("max_value", ("ID_100_sig_0",), 100.0, 200.0))

    def test_bad_attack_spec(self):
        with pytest.raises(ValueError):
            AttackSpec("teleport", ("x",), 0.0, 1.0)
        with pytest.raises(ValueError):
            AttackSpec("max_value", ("x",), 5.0, 5.0)
        for targets in ("ID_100_sig_0", None, ("ID_100_sig_0", 5), {"ID_100_sig_0"}):
            with pytest.raises(ValueError, match=re.escape(f"targets must be a list of signal ids, got {targets!r}")):
                AttackSpec("max_value", targets, 0.0, 1.0)

    def test_attack_numbers_and_seed(self):
        # the window takes SynthSpec's number rule, the seed its integer rule, named as the attack's
        for field, value in (("start_s", "1"), ("start_s", None), ("end_s", True)):
            with pytest.raises(ValueError, match=f"^{field} must be a number, got {value!r}$"):
                AttackSpec("max_value", ("x",), **{"start_s": 0.0, "end_s": 1.0, field: value})
        for seed in (math.inf, math.nan, 1.5, "7", True, None):
            with pytest.raises(ValueError, match=re.escape(f"attack seed must be an integer, got {seed!r}")):
                AttackSpec("max_value", ("x",), 0.0, 1.0, seed=seed)

    def test_fields_are_the_keys_of_a_spec_attack_block(self):
        # a block maps onto the record key for key, its numbers under the rules of every spec field
        block = {"kind": "correlated_break", "targets": ["ID_100_sig_0"], "start_s": 5, "end_s": 20.0, "seed": 3.0}
        atk = AttackSpec(**block)
        assert atk._fields == tuple(block)
        assert atk == AttackSpec("correlated_break", ("ID_100_sig_0",), 5.0, 20.0, seed=3)
        assert (type(atk.start_s), type(atk.seed)) == (float, int)
        assert AttackSpec("max_value", (), 0.0, 1.0).seed == 0


def test_write_wide_csv_round_trip(tmp_path):
    cap = generate(small_spec(duration_s=3.0))
    path = tmp_path / f"{cap.capture_id}.csv"
    write_wide_csv(cap, path)
    back = parse_capture(path)
    assert back.capture_id == cap.capture_id
    assert [s.signal_id for s in back.signals] == [s.signal_id for s in cap.signals]
    for orig, new in zip(cap.signals, back.signals):
        assert np.array_equal(orig.timestamps, new.timestamps)
        assert np.array_equal(orig.values, new.values)


def test_signals_share_one_read_only_time_array(tmp_path):
    # a generated capture, the same after an attack, and its dense wide file parsed back each give every
    # signal one timestamps array, read-only so that a write through one signal moves no other's times
    cap = generate(small_spec(duration_s=3.0))
    attacked = inject(cap, AttackSpec("max_value", ("ID_100_sig_1",), 0.0, 1.0))
    write_wide_csv(cap, tmp_path / "cap.csv")
    for capture in (cap, attacked, parse_capture(tmp_path / "cap.csv")):
        times = capture.signals[0].timestamps
        assert all(s.timestamps is times for s in capture.signals)
        assert not times.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            times[0] = 1.0
    assert attacked.signals[0].timestamps is cap.signals[0].timestamps


def test_write_wide_csv_needs_a_shared_grid(tmp_path):
    cap = generate(small_spec(duration_s=3.0))
    first = cap.signals[0]
    moved = RawSignal(first.signal_id, first.timestamps + 0.05, first.values)
    shifted = cap._replace(signals=(moved, *cap.signals[1:]))
    with pytest.raises(DataError, match="^write_wide_csv requires a shared timestamp grid$"):
        write_wide_csv(shifted, tmp_path / "out.csv")
    assert not (tmp_path / "out.csv").exists()

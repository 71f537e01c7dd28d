"""End-to-end walkthrough on synthetic captures, no files needed.

Builds a small fleet of benign drive captures, injects a correlated-break
masquerade attack into fresh captures, runs the full pipeline across all four
linkages, and prints the detection verdict. Run with:

    python3 demos/synthetic_detection_walkthrough.py
"""

from canclust import AttackSpec, RunConfig, SynthSpec, generate, inject, run, signal_id, verdict

N_BENIGN = 8
SPEC = dict(n_groups=4, signals_per_group=4, duration_s=60.0, rate_hz=10.0,
            intra_group_rho=0.95, noise_sigma=1.0)


def main():
    print("1. generating benign captures")
    benign = tuple(generate(SynthSpec(seed=i, **SPEC), capture_id=f"drive_{i}")
                   for i in range(N_BENIGN))
    print(f"   {N_BENIGN} captures, {len(benign[0].signals)} signals each, 60 s @ 10 Hz")

    print("2. injecting a correlated-break attack into 3 fresh captures")
    targets = tuple(signal_id(0, j) for j in range(4))
    attack = AttackSpec("correlated_break", targets, start_s=0.0, end_s=60.0)
    attacked = tuple(inject(generate(SynthSpec(seed=100 + i, **SPEC), capture_id=f"attacked_{i}"),
                            attack._replace(seed=200 + i))
                     for i in range(3))
    print(f"   targets: {', '.join(targets)}")

    print("3. running the pipeline (resample -> correlate -> cluster -> compare -> test)")
    report = run(RunConfig(), benign, {"correlated_break": attacked})

    print("4. verdict")
    summary, tally = verdict(report)
    for line in summary.splitlines():
        print(f"   {line}")

    print("5. why it works")
    _pairs, ward = report.sample("ward")
    _pairs, atk = report.sample("ward", "correlated_break")
    print(f"   benign-benign Ward similarity: min {min(ward):.4f}, max {max(ward):.4f}")
    print(f"   attack-benign Ward similarity: min {min(atk):.4f}, max {max(atk):.4f}")
    print("   replacing a group's signals with independent noise rewires the")
    print("   dendrogram, so attacked captures sit visibly below the benign band.")


if __name__ == "__main__":
    main()

"""Crisis forecasting and evolution tracking (the paper's future work).

Section 7 sketches two extensions this library implements:

1. forecasting crises from early fingerprint signs (the paper saw
   encouraging results for type-B crises, whose downstream backlog builds
   gradually before the SLA detector fires);
2. modeling crisis evolution so operators can track repair progress.

    python examples/forecasting_demo.py
"""

from repro import DatacenterSimulator, SimulationConfig
from repro.extensions import CrisisEvolutionModel
from repro.forecast import OfflineCrisisForecaster
from repro.methods import FingerprintMethod

SIM = SimulationConfig(
    n_machines=40,
    seed=7,
    warmup_days=35,
    bootstrap_days=60,
    labeled_days=90,
    n_bootstrap_crises=10,
)


def main() -> None:
    print("generating trace...")
    trace = DatacenterSimulator(SIM).run()
    crises = trace.labeled_crises

    method = FingerprintMethod()
    method.fit(trace, crises)

    # --- forecasting -----------------------------------------------------
    # Train on the first 12 labeled crises, evaluate on the rest; type B
    # (backlog from the downstream datacenter) is the forecastable type.
    train, test = crises[:12], crises[12:]
    forecaster = OfflineCrisisForecaster(
        trace, method.thresholds, method.relevant,
        lead_epochs=1, window_epochs=3,
    ).fit(train)
    threshold = forecaster.calibrate_threshold()

    result = forecaster.evaluate(test, threshold=threshold)
    print("\nforecasting (early signs, all types):")
    print(f"  crises forecast: {result.recall:.0%} of {result.n_crises}")
    print(f"  false alarms on normal epochs: {result.false_alarm_rate:.1%}")

    test_b = [c for c in test if c.label == "B"]
    if test_b:
        result_b = forecaster.evaluate(test_b, threshold=threshold)
        print(f"  type-B crises forecast: {result_b.recall:.0%} "
              f"of {result_b.n_crises} (the paper's encouraging case)")

    # --- evolution tracking ------------------------------------------------
    model = CrisisEvolutionModel(
        trace, method.thresholds, method.relevant
    ).fit(train)
    print("\nevolution profiles (mean fingerprint magnitude by epoch):")
    for label, profile in sorted(model.profiles.items()):
        mags = " ".join(
            f"{m:4.1f}" for m in profile.magnitudes[:8] if m == m
        )
        print(f"  type {label} (n={profile.n_crises}, "
              f"mean duration {profile.mean_duration_epochs:.1f} epochs): "
              f"{mags}")

    live = next(c for c in test if c.label in model.profiles)
    print(f"\nlive progress of crisis {live.index} (type {live.label}):")
    for elapsed in (0, 2, 4):
        report = model.progress(live, live.label, elapsed)
        print(
            f"  after {elapsed} epochs: "
            f"{report['fraction_elapsed']:.0%} of expected duration, "
            f"~{report['expected_remaining_epochs']:.1f} epochs remaining, "
            f"magnitude at {report['magnitude_ratio']:.0%} of peak"
        )


if __name__ == "__main__":
    main()

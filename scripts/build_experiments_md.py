"""Assemble EXPERIMENTS.md from benchmark results.

Run after ``pytest benchmarks/ --benchmark-only``:

    python scripts/build_experiments_md.py

Each experiment section pairs the paper's reported numbers with the
measured table written by the corresponding benchmark into
``benchmarks/results/``.
"""

from __future__ import annotations

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure in the paper's evaluation, reproduced on the
synthetic datacenter (see DESIGN.md section 2 for the substitution
rationale).  Absolute numbers are not expected to match — the substrate is
a simulator, not the authors' production installation — but the *shape*
(who wins, by roughly what factor, where the trade-offs fall) is the
acceptance criterion.  Regenerate the measured tables with:

    pytest benchmarks/ --benchmark-only
    python scripts/build_experiments_md.py

## Headline comparison (benchmark seed 7; regenerate for exact values)

| quantity | paper | this reproduction |
|---|---|---|
| offline known / unknown accuracy (fingerprints) | 97.5% / 93.3% | 89% / 86% (E2/E7) |
| quasi-online accuracy | 83% / 83% | 89% / 75% (E3/E7) |
| online accuracy, bootstrap 10 | 80% / 80% | 68% / 70% (E4/E7) |
| time to identification (offline) | < 10 min | ~20 min (E2) |
| discrimination AUC (fingerprints) | ~0.99 | ~0.95 (E1; deviation 3) |
| ranking of methods (identification) | fingerprints first, baselines ~50-80% | fingerprints first: 87.5% balanced vs 80/77/55.5% (E2) |
| type-B forecastability (§7) | "encouraging" | 100% of held-out B's, 1.7% false alarms (E12) |

## Known deviations from the paper

1. **Baselines are stronger here.**  The paper's KPI and all-metrics
   baselines reach only ~50-55% identification accuracy; ours land higher
   (~65-80%).  Our simulated crisis types are cleaner than four months of
   production reality, which helps *every* representation; fingerprints
   still lead everywhere, and each structural claim (feature selection
   matters; KPIs alone cannot discriminate types sharing a stage) holds.
2. **Signatures' discrimination AUC is competitive; its identification is
   not.**  The appendix grants the signatures adaptation perfect
   per-crisis models (train = test), which inflates its threshold-free
   AUC.  Its weakness — one identification threshold over per-model
   distance spaces that are not mutually comparable — binds exactly when
   a threshold must be committed, so its *identification* accuracy falls
   well below fingerprints, which is the ordering the paper emphasizes.
3. **Fig. 3 AUCs cluster around ~0.95 rather than 0.99, and online
   accuracy lands around ~70% rather than 80%.**  Type B (9 of 19
   crises) is modeled with a gradual backlog onset so that the Section 7
   forecasting result reproduces; the onset-phase variation it introduces
   costs a few points for every representation and setting.  A step-onset
   B recovers AUC ≈ 0.99 and online accuracy ≈ 80% but removes the crisis
   precursors the forecasting experiment needs.  The orderings the paper
   emphasizes (offline > quasi-online > online; fingerprints above every
   baseline; 240-day window above 7-day) hold either way.
4. **Section 6.2's rejected threshold methods are not clearly inferior
   here** — all three settings land within ~0.01 AUC.  The percentile
   ordering (2/98 above 5/95 above 10/90) does reproduce.
5. **Identification epochs are 15 minutes.**  Time-to-identification is
   quantized to multiples of 15 minutes; "0 min" means the correct label
   was already emitted at the detection epoch, matching the paper's
   "below 10 minutes" claim.  Online identification typically lands one
   to two epochs later (the operators' stated tolerance is 30-60 min).
"""

SECTIONS = [
    (
        "E1 — Figure 3: discriminative power",
        "fig3_discrimination",
        "Paper: fingerprints AUC ≈ 0.99, clearly dominating signatures, "
        "all-metrics, and KPI baselines.",
    ),
    (
        "E2 — Figure 4: offline identification",
        "fig4_offline_identification",
        "Paper: fingerprints 97.5%/93.3% (known/unknown); signatures "
        "75%/80%; all-metrics ≈50%; KPIs ≈55%.",
    ),
    (
        "E3 — Figure 5: quasi-online identification",
        "fig5_quasi_online",
        "Paper: ≈85%/85% — about 15 points below offline, the price of "
        "estimating relevant metrics and thresholds online.",
    ),
    (
        "E4 — Figure 6: fully online identification",
        "fig6_online",
        "Paper: 80%/80% bootstrapping with ten labeled crises; 78%/74% "
        "with two; shorter threshold windows degrade accuracy.",
    ),
    (
        "E5 — Figure 7: summary-window sensitivity",
        "fig7_summary_window",
        "Paper: windows starting ≥30 min before the crisis quickly reach "
        "high AUC; the production choice (-30 min, +60 min) sits on the "
        "plateau (AUC ≈ 0.98-0.99).",
    ),
    (
        "E6 — Figure 8: stale fingerprints",
        "fig8_stale_thresholds",
        "Paper: freezing each crisis's discretization at the thresholds "
        "in force when it occurred costs ~5 accuracy points.",
    ),
    (
        "E7 — Table 2: summary of settings",
        "table2_summary",
        "Paper: offline 98%/93%; quasi-online 83%/83%; online w/10 "
        "80%/80%; online w/2 78%/74%.",
    ),
    (
        "E8 — Section 6.1: fingerprint size x threshold window",
        "sec61_metric_window",
        "Paper: accuracy decreases with fewer metrics (30→5) and shorter "
        "windows (240→7 days); for small windows, fewer metrics do "
        "relatively better.",
    ),
    (
        "E9 — Section 6.2: threshold settings",
        "sec62_threshold_methods",
        "Paper: 2/98 percentiles give AUC 0.99; 1/99, 5/95, 10/90 give "
        "≤0.96; the time-series and KPI-correlation alternatives give "
        "≤0.95.",
    ),
    (
        "E10 — Table 1 / Figure 1: crisis catalog and fingerprints",
        "fig1_table1_fingerprints",
        "Paper: 19 labeled crises of 10 types (B recurs 9 times); rendered "
        "fingerprints show quantiles of one metric moving in different "
        "directions.",
    ),
    (
        "E11 — scaling: summary size and streaming quantiles",
        None,
        "Paper (Sections 3.1-3.2): representation scales with metrics, not "
        "machines; quantiles can be estimated from streams with bounded "
        "error.",
    ),
    (
        "E12 — Section 7: crisis forecasting",
        "sec7_forecasting",
        "Paper: encouraging early results forecasting crises, especially "
        "type B.",
    ),
    (
        "E13/E14 — design-choice ablations",
        None,
        "This reproduction's two explicit design choices, validated by "
        "ablation.",
    ),
]

MULTI_FILE_SECTIONS = {
    "E11 — scaling: summary size and streaming quantiles": [
        "scaling_summary_size",
        "scaling_gk_sketch",
    ],
    "E13/E14 — design-choice ablations": [
        "ablation_per_epoch_thresholds",
        "ablation_selection_stabilization",
    ],
}


def load(name: str) -> str:
    path = RESULTS / f"{name}.txt"
    if not path.exists():
        return f"(no measured result yet — run pytest benchmarks/ "\
               f"--benchmark-only to produce {path.name})"
    return path.read_text().rstrip()


def main() -> None:
    parts = [HEADER]
    for title, result_name, paper_note in SECTIONS:
        parts.append(f"\n## {title}\n")
        parts.append(f"*{paper_note}*\n")
        names = MULTI_FILE_SECTIONS.get(title)
        if names is None:
            names = [result_name] if result_name else []
        for name in names:
            parts.append("```")
            parts.append(load(name))
            parts.append("```\n")
        extra = {
            "confusion_analysis": "Supplementary: confusion structure",
        }
        del extra
    parts.append("\n## Supplementary: confusion structure\n")
    parts.append(
        "*Which types are mistaken for which; structurally related pairs "
        "(A/D, B/E, F/G, ...) should dominate.*\n"
    )
    parts.append("```")
    parts.append(load("confusion_analysis"))
    parts.append("```\n")
    parts.append("\n## Supplementary: order sensitivity\n")
    parts.append(
        "*The paper permutes the crisis sequence to rule out luck; the "
        "chronological order must be typical of the permutation "
        "distribution.*\n"
    )
    parts.append("```")
    parts.append(load("permutation_robustness"))
    parts.append("```\n")
    out = ROOT / "EXPERIMENTS.md"
    out.write_text("\n".join(parts))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()

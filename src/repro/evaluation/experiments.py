"""Experiment drivers for the offline, quasi-online, and online settings.

Offline (Section 5.1.2)
    Every parameter is estimated with perfect future knowledge.  Five runs
    start from different initial sets of five labeled crises (two random
    B's, one A, two others); the remaining crises are identified against
    that fixed library.  Works with any :class:`OfflineMethod`, so the four
    representations of Figure 4 are compared under one protocol.

Quasi-online and online (Sections 5.2-5.3)
    Fingerprints only.  Relevant metrics and hot/cold thresholds are
    estimated chronologically from data available *before* each crisis; the
    identification threshold comes either from the full-knowledge ROC
    (quasi-online) or from the Section 5.3 rules over crises seen so far
    (online).  Crises are presented chronologically and in random
    permutations, with each crisis always fingerprinted under the
    parameters of its chronological moment (as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import FingerprintingConfig
from repro.core.engine import (
    fingerprint_from_summaries,
    threshold_series_for,
)
from repro.core.identification import UNKNOWN, threshold_from_pairs
from repro.core.selection import select_crisis_metrics, select_relevant_metrics
from repro.core.similarity import pair_arrays
from repro.core.summary import summary_vectors
from repro.core.thresholds import QuantileThresholds
from repro.datacenter.trace import CrisisRecord, DatacenterTrace
from repro.evaluation.identification import (
    CrisisOutcome,
    IdentificationCurves,
    score_outcomes,
)
from repro.methods.base import OfflineMethod
from repro.ml.roc import roc_curve

DEFAULT_ALPHAS = np.round(np.linspace(0.0, 1.0, 41), 4)


def default_initial_set(
    crises: Sequence[CrisisRecord], rng: np.random.Generator, size: int = 5
) -> List[int]:
    """The paper's initial library: two random B's, one A, two others."""
    by_label: Dict[str, List[int]] = {}
    for i, c in enumerate(crises):
        by_label.setdefault(c.label, []).append(i)
    picked: List[int] = []
    if "B" in by_label and len(by_label["B"]) >= 2:
        picked += list(rng.choice(by_label["B"], size=2, replace=False))
    if "A" in by_label:
        picked.append(int(rng.choice(by_label["A"])))
    rest = [i for i in range(len(crises)) if i not in picked]
    rng.shuffle(rest)
    picked += rest[: max(size - len(picked), 0)]
    return [int(i) for i in picked[:size]]


class OfflineIdentificationExperiment:
    """Figure 4's protocol for one fitted :class:`OfflineMethod`."""

    def __init__(
        self,
        method: OfflineMethod,
        crises: Sequence[CrisisRecord],
        config: FingerprintingConfig = FingerprintingConfig(),
        n_runs: int = 5,
        alphas: np.ndarray = DEFAULT_ALPHAS,
        seed: int = 0,
        per_epoch_thresholds: bool = True,
    ):
        """``per_epoch_thresholds=False`` reproduces the naive protocol
        that calibrates one identification threshold on full-window pair
        distances and applies it to partial-window comparisons (an
        ablation; early comparisons then over-match)."""
        if len(crises) < 6:
            raise ValueError("need more crises than the initial set")
        self.method = method
        self.crises = list(crises)
        self.config = config
        self.n_runs = n_runs
        self.alphas = np.asarray(alphas, dtype=float)
        self.seed = seed
        self.per_epoch_thresholds = per_epoch_thresholds
        self._partial: Optional[np.ndarray] = None
        self._full: Optional[np.ndarray] = None

    def _precompute_distances(self) -> None:
        """Cache partial-window distances and the full pairwise matrix."""
        n = len(self.crises)
        k_max = self.config.identification.n_epochs
        pre = self.config.fingerprint.pre_epochs
        partial = np.full((n, n, k_max), np.nan)
        for i, new in enumerate(self.crises):
            for j, known in enumerate(self.crises):
                if i == j:
                    continue
                for k in range(k_max):
                    partial[i, j, k] = self.method.pair_distance(
                        new, known, n_epochs=pre + k + 1
                    )
        self._partial = partial
        self._full = self.method.distance_matrix(self.crises)
        # Distances at truncation k live on a smaller scale than full-window
        # distances (fewer epochs averaged in), so the identification
        # threshold is calibrated per identification epoch from pairs at
        # the same truncation.
        labels = [c.label for c in self.crises]
        self._rocs = []
        for k in range(k_max):
            sym = 0.5 * (partial[:, :, k] + partial[:, :, k].T)
            np.fill_diagonal(sym, 0.0)
            pair_d, is_same = pair_arrays(sym, labels)
            self._rocs.append(roc_curve(pair_d, is_same))

    def _thresholds(self, alpha: float) -> np.ndarray:
        """Identification threshold per identification epoch."""
        if not self.per_epoch_thresholds:
            labels = [c.label for c in self.crises]
            pair_d, is_same = pair_arrays(self._full, labels)
            t = roc_curve(pair_d, is_same).threshold_at_alpha(alpha)
            return np.full(len(self._rocs), t)
        return np.array(
            [roc.threshold_at_alpha(alpha) for roc in self._rocs]
        )

    def outcomes_at(self, alpha: float) -> List[CrisisOutcome]:
        """All crisis outcomes at one alpha (for confusion analysis)."""
        self.run(alphas=np.array([alpha]))
        return self._last_outcomes[float(alpha)]

    def run(self, alphas: Optional[np.ndarray] = None) -> IdentificationCurves:
        if self._partial is None:
            self._precompute_distances()
        if alphas is None:
            alphas = self.alphas
        alphas = np.asarray(alphas, dtype=float)
        rng = np.random.default_rng(self.seed)
        initial_sets = [
            default_initial_set(self.crises, rng) for _ in range(self.n_runs)
        ]
        thresholds = {a: self._thresholds(a) for a in alphas}

        curves = IdentificationCurves(alphas=alphas)
        k_max = self.config.identification.n_epochs
        self._last_outcomes: Dict[float, List[CrisisOutcome]] = {}
        for alpha in alphas:
            t = thresholds[alpha]
            outcomes: List[CrisisOutcome] = []
            for initial in initial_sets:
                known_labels = {self.crises[i].label for i in initial}
                for i, c in enumerate(self.crises):
                    if i in initial:
                        continue
                    seq = []
                    for k in range(k_max):
                        d = self._partial[i, initial, k]
                        best = int(np.argmin(d))
                        if d[best] < t[k]:
                            seq.append(self.crises[initial[best]].label)
                        else:
                            seq.append(UNKNOWN)
                    outcomes.append(
                        CrisisOutcome(
                            crisis_id=c.index,
                            true_label=c.label,
                            known=c.label in known_labels,
                            sequence=tuple(seq),
                        )
                    )
            curves.scores.append(score_outcomes(outcomes))
            self._last_outcomes[float(alpha)] = outcomes
        return curves


@dataclass
class _CrisisParameters:
    """Chronologically estimated parameters in force at one crisis."""

    relevant: np.ndarray
    thresholds: QuantileThresholds
    # Fingerprints *under these parameters* of every labeled crisis:
    full: np.ndarray  # (n_labeled, dim) full 7-epoch window
    truncated: np.ndarray  # (n_labeled, k_max, dim) partial windows
    full_distances: np.ndarray  # (n_labeled, n_labeled) pairwise L2
    trunc_distances: np.ndarray  # (k_max, n_labeled, n_labeled)


class OnlineIdentificationExperiment:
    """Quasi-online and online settings for the fingerprint method.

    Parameters
    ----------
    trace:
        The dataset; bootstrap (unlabeled) crises feed the selection pool.
    config:
        Method parameters; the paper's online setting uses 30 relevant
        metrics and a 240-day threshold window.
    recompute_past_fingerprints:
        False reproduces Figure 8's ablation: each past crisis keeps the
        hot/cold discretization computed when it occurred.
    """

    def __init__(
        self,
        trace: DatacenterTrace,
        config: FingerprintingConfig = FingerprintingConfig(),
        recompute_past_fingerprints: bool = True,
        exclude_kpis_from_selection: bool = False,
    ):
        self.trace = trace
        self.config = config
        self.recompute = recompute_past_fingerprints
        self._selection_exclude = (
            tuple(trace.kpi_metric_indices)
            if exclude_kpis_from_selection
            else ()
        )
        self.labeled = trace.labeled_crises
        if len(self.labeled) < 3:
            raise ValueError("need at least three labeled crises")
        self._params: Optional[List[_CrisisParameters]] = None
        self._quasi_rocs: Dict[int, "object"] = {}

    # -- chronological parameter estimation ---------------------------------

    def _window(self, crisis: CrisisRecord) -> np.ndarray:
        span = self.config.fingerprint.window(
            crisis.detected_epoch, self.trace.n_epochs
        )
        return self.trace.quantiles[span]

    def _fingerprints_under(
        self,
        thresholds: QuantileThresholds,
        relevant: np.ndarray,
        stale_summaries: List[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Full and truncated fingerprints of every labeled crisis."""
        k_max = self.config.identification.n_epochs
        pre = self.config.fingerprint.pre_epochs
        dim = len(relevant) * self.trace.n_quantiles
        n = len(self.labeled)
        full = np.empty((n, dim))
        truncated = np.empty((n, k_max, dim))
        for j, crisis in enumerate(self.labeled):
            if self.recompute:
                summaries = summary_vectors(self._window(crisis), thresholds)
            else:
                summaries = stale_summaries[j]
            full[j] = fingerprint_from_summaries(summaries, relevant)
            for k in range(k_max):
                truncated[j, k] = fingerprint_from_summaries(
                    summaries, relevant, n_epochs=pre + k + 1
                )
        return full, truncated

    def precompute(self) -> List[_CrisisParameters]:
        """Chronological pass: selections, thresholds, fingerprints."""
        if self._params is not None:
            return self._params
        cfg = self.config
        window_epochs = cfg.thresholds.window_days * self.trace.epochs_per_day

        # Per-crisis metric selections for every detected crisis, in
        # chronological order (bootstrap crises included — selection only
        # needs detection, not diagnosis; Section 3.4).  Selections depend
        # only on (crisis, top_k, exclusions), so they are cached on the
        # trace across experiment instances (the sensitivity sweeps build
        # many experiments over one trace).
        detected = self.trace.detected_crises
        cache = self.trace.__dict__.setdefault("_selection_cache", {})
        selections = []
        for c in detected:
            key = (c.index, cfg.selection.per_crisis_top_k,
                   self._selection_exclude)
            if key not in cache:
                cache[key] = select_crisis_metrics(
                    c.raw.values,
                    c.raw.violations,
                    top_k=cfg.selection.per_crisis_top_k,
                    exclude=self._selection_exclude,
                )
            selections.append(cache[key])
        order = {c.index: i for i, c in enumerate(detected)}

        # Threshold estimates are cached on the trace: the same
        # (epoch, window, percentiles) triple recurs across experiment
        # instances in the sensitivity sweeps.  Cache misses are served by
        # the trace's shared incremental ThresholdSeries instead of a
        # full-window percentile recompute per crisis.
        thr_cache = self.trace.__dict__.setdefault("_threshold_cache", {})
        series = threshold_series_for(
            self.trace, window_epochs,
            cfg.thresholds.cold_percentile, cfg.thresholds.hot_percentile,
        )

        def thresholds_at(epoch: int) -> QuantileThresholds:
            key = (epoch, window_epochs, cfg.thresholds.cold_percentile,
                   cfg.thresholds.hot_percentile)
            if key not in thr_cache:
                thr_cache[key] = series.at(epoch)
            return thr_cache[key]

        # Stale summaries (Figure 8): discretization frozen at crisis time.
        stale: List[np.ndarray] = []
        for crisis in self.labeled:
            thr = thresholds_at(crisis.detected_epoch)
            stale.append(summary_vectors(self._window(crisis), thr))

        params: List[_CrisisParameters] = []
        for crisis in self.labeled:
            prior = selections[: order[crisis.index]]
            if not prior:
                prior = selections[:1]  # degenerate cold start
            relevant = select_relevant_metrics(
                prior, cfg.selection.n_relevant, pool=cfg.selection.crisis_pool
            )
            thresholds = thresholds_at(crisis.detected_epoch)
            full, truncated = self._fingerprints_under(
                thresholds, relevant, stale
            )
            diff = full[:, None, :] - full[None, :, :]
            k_max = truncated.shape[1]
            trunc_d = np.empty((k_max, full.shape[0], full.shape[0]))
            for k in range(k_max):
                tdiff = truncated[:, k, None, :] - truncated[None, :, k, :]
                trunc_d[k] = np.sqrt((tdiff**2).sum(axis=2))
            params.append(
                _CrisisParameters(
                    relevant=relevant,
                    thresholds=thresholds,
                    full=full,
                    truncated=truncated,
                    full_distances=np.sqrt((diff**2).sum(axis=2)),
                    trunc_distances=trunc_d,
                )
            )
        self._params = params
        return params

    # -- identification runs -------------------------------------------------

    def _quasi_threshold(self, c_idx: int, k: int, alpha: float) -> float:
        """Full-knowledge ROC threshold under crisis c's parameters.

        Thresholds are calibrated per identification epoch ``k`` from pair
        distances at the same truncation, keeping the distance scale of the
        threshold and of the comparisons consistent.
        """
        roc = self._quasi_rocs.get((c_idx, k))
        if roc is None:
            p = self._params[c_idx]
            pair_d, is_same = pair_arrays(
                p.trunc_distances[k], [c.label for c in self.labeled]
            )
            roc = self._quasi_rocs[(c_idx, k)] = roc_curve(pair_d, is_same)
        return roc.threshold_at_alpha(alpha)

    def _online_threshold(
        self, c_idx: int, k: int, library: Sequence[int], alpha: float
    ) -> Optional[float]:
        if len(library) < 2:
            return None
        p = self._params[c_idx]
        lib = np.asarray(library, dtype=int)
        sub = p.trunc_distances[k][np.ix_(lib, lib)]
        labels = [self.labeled[j].label for j in lib]
        pair_d, is_same = pair_arrays(sub, labels)
        return threshold_from_pairs(pair_d, is_same, alpha)

    def run(
        self,
        mode: str = "online",
        bootstrap: int = 2,
        n_runs: int = 21,
        alphas: np.ndarray = DEFAULT_ALPHAS,
        seed: int = 0,
        orders: Optional[List[np.ndarray]] = None,
    ) -> IdentificationCurves:
        """Run the experiment.

        ``mode`` is ``"quasi-online"`` (identification threshold from the
        full-knowledge ROC) or ``"online"`` (Section 5.3 rules).  The first
        run presents crises chronologically; the rest use random
        permutations (the paper uses 20 permutations for quasi-online and
        41 runs for online-with-ten).  Pass ``orders`` to control the
        presentation orders explicitly (overrides ``n_runs``/``seed``).
        """
        if mode not in ("quasi-online", "online"):
            raise ValueError(f"unknown mode {mode!r}")
        params = self.precompute()
        n = len(self.labeled)
        if not 1 <= bootstrap < n:
            raise ValueError("bootstrap size out of range")
        if orders is None:
            rng = np.random.default_rng(seed)
            orders = [np.arange(n)]
            for _ in range(n_runs - 1):
                orders.append(rng.permutation(n))
        else:
            orders = [np.asarray(o, dtype=int) for o in orders]
            for o in orders:
                if sorted(o.tolist()) != list(range(n)):
                    raise ValueError("each order must permute all crises")

        alphas = np.asarray(alphas, dtype=float)
        k_max = self.config.identification.n_epochs
        labels = [c.label for c in self.labeled]

        curves = IdentificationCurves(alphas=alphas)
        all_outcomes: Dict[float, List[CrisisOutcome]] = {
            a: [] for a in alphas
        }
        for order in orders:
            for pos in range(bootstrap, n):
                c_idx = int(order[pos])
                library = [int(j) for j in order[:pos]]
                p = params[c_idx]
                known = labels[c_idx] in {labels[j] for j in library}
                # Distances are alpha-independent; thresholds are not.
                dists = np.empty((k_max, len(library)))
                for k in range(k_max):
                    new_vec = p.truncated[c_idx, k]
                    lib_vecs = p.truncated[library, k, :]
                    dists[k] = np.sqrt(
                        ((lib_vecs - new_vec[None, :]) ** 2).sum(axis=1)
                    )
                for alpha in alphas:
                    seq = []
                    for k in range(k_max):
                        if mode == "quasi-online":
                            t = self._quasi_threshold(c_idx, k, alpha)
                        else:
                            t = self._online_threshold(
                                c_idx, k, library, alpha
                            )
                        best = int(np.argmin(dists[k]))
                        if t is not None and dists[k, best] < t:
                            seq.append(labels[library[best]])
                        else:
                            seq.append(UNKNOWN)
                    all_outcomes[alpha].append(
                        CrisisOutcome(
                            crisis_id=self.labeled[c_idx].index,
                            true_label=labels[c_idx],
                            known=known,
                            sequence=tuple(seq),
                        )
                    )
        for alpha in alphas:
            curves.scores.append(score_outcomes(all_outcomes[alpha]))
        return curves


__all__ = [
    "DEFAULT_ALPHAS",
    "OfflineIdentificationExperiment",
    "OnlineIdentificationExperiment",
    "default_initial_set",
]

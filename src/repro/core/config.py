"""FChain configuration.

All tunables from the paper with their published defaults (Sec. III-A):
look-back window ``W = 100 s`` (500 s for slowly manifesting faults),
concurrency threshold 2 s, burst window ``Q = 20 s``, top-90 % frequencies,
90th-percentile burst magnitude, tangent-rollback similarity 0.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class FChainConfig:
    """Tunable parameters of the FChain pipeline.

    Attributes:
        look_back_window: ``W`` — seconds of history before the SLO
            violation each slave examines (paper default 100; 500 for the
            Hadoop DiskHog). A series already trending abnormally at the
            window start has its onset clamped there
            (:func:`~repro.core.selection.censored_onset`, always on).
        concurrency_threshold: Seconds within which two components'
            abnormal onsets count as one concurrent fault (paper: 2).
        burst_window: ``Q`` — half-width in seconds of the series window
            around a change point used for FFT burst extraction (paper: 20).
        high_frequency_fraction: Fraction of the frequency spectrum treated
            as "high" when synthesizing the burst signal (paper: top 90 %).
        burst_percentile: Percentile of the burst-signal magnitude used as
            the expected prediction error (paper: 90th).
        tangent_tolerance: Maximum tangent difference below which rollback
            continues to the preceding change point (paper: 0.1), relative
            to the local value scale.
        smoothing_window: Moving-average width applied before change point
            detection (the PAL smoothing step).
        cusum_bootstraps: Permutations per CUSUM bootstrap significance
            test.
        cusum_confidence: Required bootstrap confidence for a change point.
        min_segment: Minimum segment length for recursive CUSUM splitting.
        outlier_zscore: Magnitude z-score above which a change point is an
            outlier candidate.
        prediction_error_margin: The actual prediction error must exceed
            ``margin *`` the burst-derived expected error for a change
            point to be selected as abnormal (guards against borderline
            passes on noisy metrics).
        history_error_percentile: Percentile of the online model's own
            prediction errors over the training history used as an
            additional expected-error reference: an error pattern the
            model already produced routinely under normal operation (e.g.
            at recurring flash bursts) is not abnormal.
        analysis_grace: Seconds of post-violation data the slaves may use.
            The master contacts the slaves after detection, so by analysis
            time a few seconds beyond ``t_v`` have been recorded; this
            keeps change points landing exactly at the window edge
            detectable.
        markov_bins: Number of value bins in the Markov prediction model.
        markov_halflife: Updates after which old transition counts decay to
            half weight (online learning forgetting rate).
        telemetry: Pipeline observability level (``repro.obs``):
            ``"off"`` (default — instrumentation collapses onto a no-op
            singleton, near-zero overhead), ``"timings"`` (nested stage
            spans with wall times only) or ``"full"`` (spans plus
            per-stage counters and component/metric tags). When enabled,
            every ``Diagnosis`` carries a ``trace`` and finished traces
            aggregate into the default metrics registry for Prometheus
            export.
        service_cooldown: Online service loop (``repro.service``): minimum
            ticks between two diagnosis triggers. Within the window a
            sustained (or re-flapping) violation is deduplicated into the
            incident already dispatched, so one incident produces one
            diagnosis rather than one per tick.
        external_trend_fraction: Fraction of components that must share a
            common monotone trend (with every component abnormal, and the
            majority-trend onsets tightly clustered) for the anomaly to be
            attributed to an external factor.
        validation_horizon: Seconds of forked simulation used to observe a
            scaling action during online validation (paper: ~30 s).
        validation_improvement: Relative SLO improvement required for a
            pinpointed component to survive validation.
        topology_mode: How diagnosis picks which components the slaves
            analyse: ``"full"`` (default — every monitored component, the
            paper's behaviour and bit-identical to all prior releases) or
            ``"neighborhood"`` (rank components by dependency-graph
            distance from the SLO-violating origin and analyse only the
            top-K; escalates to a full analysis whenever the scoped
            result could have missed the culprit, so nothing is silently
            dropped).
        topology_top_k: Size of the analysed neighborhood in
            ``"neighborhood"`` mode, counting the origin itself. ``0``
            (default) disables scoping even in neighborhood mode —
            equivalent to analysing everything.
    """

    look_back_window: int = 100
    concurrency_threshold: float = 2.0
    burst_window: int = 20
    high_frequency_fraction: float = 0.9
    burst_percentile: float = 90.0
    tangent_tolerance: float = 0.1
    smoothing_window: int = 5
    cusum_bootstraps: int = 120
    cusum_confidence: float = 0.95
    min_segment: int = 5
    outlier_zscore: float = 2.0
    prediction_error_margin: float = 1.2
    history_error_percentile: float = 99.7
    analysis_grace: int = 8
    markov_bins: int = 40
    markov_halflife: int = 2000
    telemetry: str = "off"
    service_cooldown: int = 60
    external_trend_fraction: float = 0.75
    validation_horizon: int = 30
    validation_improvement: float = 0.3
    topology_mode: str = "full"
    topology_top_k: int = 0

    def __post_init__(self) -> None:
        if self.look_back_window <= 0:
            raise ConfigurationError("look_back_window must be positive")
        if self.concurrency_threshold < 0:
            raise ConfigurationError("concurrency_threshold must be >= 0")
        if self.burst_window <= 1:
            raise ConfigurationError("burst_window must exceed 1")
        if not 0 < self.high_frequency_fraction <= 1:
            raise ConfigurationError("high_frequency_fraction must be in (0, 1]")
        if not 0 < self.burst_percentile <= 100:
            raise ConfigurationError("burst_percentile must be in (0, 100]")
        if self.smoothing_window < 1:
            raise ConfigurationError("smoothing_window must be >= 1")
        if self.markov_bins < 2:
            raise ConfigurationError("markov_bins must be >= 2")
        if not 0 < self.cusum_confidence < 1:
            raise ConfigurationError("cusum_confidence must be in (0, 1)")
        if self.topology_mode not in ("full", "neighborhood"):
            raise ConfigurationError(
                f"topology_mode={self.topology_mode!r} is not supported: "
                "choose 'full' (analyse every component) or "
                "'neighborhood' (scope analysis to the top-K components "
                "by dependency-graph distance from the violation origin)"
            )
        if self.topology_top_k < 0:
            raise ConfigurationError(
                f"topology_top_k={self.topology_top_k} must be >= 0 "
                "(0 disables neighborhood scoping)"
            )
        if self.telemetry not in ("off", "timings", "full"):
            raise ConfigurationError(
                f"telemetry={self.telemetry!r} is not supported: choose "
                "'off' (no tracing), 'timings' (stage spans with wall "
                "times) or 'full' (spans plus counters and tags)"
            )

    def validate(self) -> "FChainConfig":
        """Reject cross-field settings that make diagnosis nonsensical.

        :meth:`__post_init__` guards individual fields; this adds the
        cross-field constraints the diagnosis engines depend on and is
        called from every engine constructor (``FChainSlave``,
        ``FChainMaster``, ``FChain``). Returns ``self`` so
        constructors can write ``self.config = (config or FChainConfig()).validate()``.

        Raises:
            ConfigurationError: With an actionable message naming the
                offending fields.
        """
        if self.min_segment < 2:
            raise ConfigurationError(
                f"min_segment={self.min_segment} is too small: recursive "
                "CUSUM segmentation needs segments of at least 2 samples"
            )
        if self.look_back_window <= 2 * self.min_segment:
            raise ConfigurationError(
                f"look_back_window={self.look_back_window} must exceed "
                f"2 * min_segment={2 * self.min_segment}: shorter windows "
                "can never contain a detectable change point (raise "
                "look_back_window or lower min_segment)"
            )
        if self.burst_window <= 0:
            raise ConfigurationError(
                f"burst_window={self.burst_window} must be positive: FFT "
                "burst extraction needs a non-empty window around each "
                "change point"
            )
        if self.concurrency_threshold < 0:
            raise ConfigurationError(
                f"concurrency_threshold={self.concurrency_threshold} must "
                "be >= 0: it is a time distance between abnormal onsets"
            )
        if self.analysis_grace < 0:
            raise ConfigurationError(
                f"analysis_grace={self.analysis_grace} must be >= 0: the "
                "slaves cannot analyse data recorded before the violation "
                "window"
            )
        if self.cusum_bootstraps < 1:
            raise ConfigurationError(
                f"cusum_bootstraps={self.cusum_bootstraps} must be >= 1: "
                "the bootstrap significance test needs at least one "
                "permutation"
            )
        if self.markov_halflife < 1:
            raise ConfigurationError(
                f"markov_halflife={self.markov_halflife} must be >= 1: it "
                "is a decay period measured in model updates"
            )
        if self.service_cooldown < 0:
            raise ConfigurationError(
                f"service_cooldown={self.service_cooldown} must be >= 0 "
                "ticks: it is the dedup window between diagnosis triggers"
            )
        if self.validation_horizon <= 0:
            raise ConfigurationError(
                f"validation_horizon={self.validation_horizon} must be "
                "positive: online validation needs forward simulation time"
            )
        return self

    def with_window(self, look_back_window: int) -> "FChainConfig":
        """Copy of this config with a different look-back window."""
        from dataclasses import replace

        return replace(self, look_back_window=look_back_window)

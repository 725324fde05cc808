"""Analysis tools: closed-form queueing formulas for cross-validation
and critical-path attribution over request traces."""

from .._lazy import attach

__all__ = [
    "GAPS",
    "BackpressureOnset",
    "EdgeStats",
    "Exemplar",
    "NodeBreakdown",
    "NodeContribution",
    "TailAttribution",
    "TraceAnalytics",
    "analyze",
    "analyze_traces",
    "bottleneck",
    "cascade_report",
    "chain_of",
    "critical_path",
    "critical_path_of",
    "culprit",
    "detect_onsets",
    "erlang_c",
    "exemplars",
    "fanout_percentile_amplification",
    "format_timeline_report",
    "load_timelines",
    "load_traces",
    "mg1_mean_sojourn",
    "mg1_mean_wait",
    "mm1_mean_sojourn",
    "mm1_sojourn_percentile",
    "mmc_mean_sojourn",
    "mmc_mean_wait",
    "node_breakdowns",
    "reconcile_shard_runtime",
    "red_graph",
    "required_leaf_quantile",
    "slowest_nodes",
    "tail_attribution",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "backpressure": [
            "BackpressureOnset", "bottleneck", "cascade_report", "culprit",
            "detect_onsets",
        ],
        "critical_path": [
            "NodeContribution", "analyze", "chain_of", "critical_path",
            "critical_path_of", "slowest_nodes", "spans_of",
        ],
        "queueing": [
            "erlang_c", "fanout_percentile_amplification", "mg1_mean_sojourn",
            "mg1_mean_wait", "mm1_mean_sojourn", "mm1_sojourn_percentile",
            "mmc_mean_sojourn", "mmc_mean_wait", "required_leaf_quantile",
        ],
        "timeline": [
            "format_timeline_report", "load_timelines",
            "reconcile_shard_runtime",
        ],
        "trace_analytics": [
            "GAPS", "EdgeStats", "Exemplar", "NodeBreakdown",
            "TailAttribution", "TraceAnalytics", "analyze_traces", "exemplars",
            "load_traces", "node_breakdowns", "red_graph", "tail_attribution",
        ],
    },
)

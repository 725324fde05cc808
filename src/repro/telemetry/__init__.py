"""Telemetry: latency recording, time series, tracing, metrics, and
report formatting."""

from .._lazy import attach

__all__ = [
    "ALERT_BREACH",
    "ALERT_RECOVERY",
    "AVAILABILITY",
    "AvailabilityMonitor",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY",
    "LatencyRecorder",
    "MetricsRegistry",
    "SLO",
    "SLOAlert",
    "SLOMonitor",
    "SPAN_CANCELLED",
    "SPAN_OK",
    "Scraper",
    "Span",
    "SpanEvent",
    "TIMELINE_SCHEMA",
    "TimeSeries",
    "Trace",
    "TraceConfig",
    "Tracer",
    "WindowedLatency",
    "counters_from_perfetto",
    "format_analytics_report",
    "format_run_manifest",
    "parse_slo",
    "format_series",
    "format_table",
    "from_otlp",
    "load_timeline",
    "ms",
    "read_otlp",
    "scrape_tiers",
    "series_from_json",
    "series_to_json",
    "timeline_payload",
    "to_otlp",
    "to_perfetto",
    "us",
    "write_otlp",
    "write_perfetto",
    "write_timeline",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "availability": ["AvailabilityMonitor"],
        "export": [
            "counters_from_perfetto", "from_otlp", "read_otlp", "to_otlp",
            "to_perfetto", "write_otlp", "write_perfetto",
        ],
        "latency": ["LatencyRecorder", "WindowedLatency"],
        "metrics": ["Counter", "Gauge", "Histogram", "MetricsRegistry"],
        "report": [
            "format_analytics_report", "format_run_manifest", "format_series",
            "format_table", "ms", "us",
        ],
        "scrape": [
            "TIMELINE_SCHEMA", "Scraper", "load_timeline", "scrape_tiers",
            "series_from_json", "series_to_json", "timeline_payload",
            "write_timeline",
        ],
        "slo": [
            "ALERT_BREACH", "ALERT_RECOVERY", "AVAILABILITY", "LATENCY", "SLO",
            "SLOAlert", "SLOMonitor", "parse_slo",
        ],
        "timeseries": ["TimeSeries"],
        "tracing": [
            "SPAN_CANCELLED", "SPAN_OK", "Span", "SpanEvent", "Trace",
            "TraceConfig", "Tracer",
        ],
    },
)

"""repro.obs — the end-to-end observability layer.

One process-wide metrics registry (:mod:`repro.obs.metrics`: counters,
gauges, histograms with bounded reservoirs),
a ring-buffered slow-query/slow-commit log (:mod:`repro.obs.slowlog`),
and the ``repro top`` dashboard renderer (:mod:`repro.obs.dashboard`).

Recording is off by default — the guarded helpers are near-zero-cost
no-ops — and switched on with ``REPRO_OBS=1`` or
``repro serve --metrics`` (:func:`enable_metrics`).  The registry is
exposed three ways: the ``metrics`` wire command (Prometheus-style text
plus a JSON snapshot), the ``metrics``/``slowlog`` sections of
:meth:`Connection.stats` (parity-pinned across the memory, journal and
served backends), and the ``repro top`` dashboard.
"""

from repro.obs.dashboard import render_dashboard
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    enable_metrics,
    inc,
    metrics_enabled,
    observe,
    registry,
    render_prometheus,
    set_gauge,
    snapshot,
)
# NB: only the class and the record helper are lifted here — re-exporting
# the ``slowlog()`` accessor would shadow the ``repro.obs.slowlog``
# submodule on the package, breaking ``from repro.obs import slowlog``.
from repro.obs.slowlog import SlowLog, maybe_record

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SlowLog",
    "enable_metrics",
    "inc",
    "maybe_record",
    "metrics_enabled",
    "observe",
    "registry",
    "render_dashboard",
    "render_prometheus",
    "set_gauge",
    "snapshot",
]

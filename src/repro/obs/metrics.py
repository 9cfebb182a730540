"""Process-wide metrics registry: counters, gauges, histograms.

The registry is always importable and always writable, but the
*instrumentation call sites* spread through the engine, store, server and replication
layers all go through the guarded module-level helpers (:func:`inc`,
:func:`observe`, :func:`set_gauge`), which are no-ops
unless observability is switched on.  That keeps the disabled path to a
single module-global read plus a falsy check per instrumentation point:
the acceptance bound — metrics on within 5 % of metrics off on the hot
paths — is measured by ``python -m benchmarks.sweeps --obs`` and enforced
by ``benchmarks/check_regression.py``.

Switching on:

* environment — ``REPRO_OBS=1`` (anything but ``""``/``"0"``), read per
  call so tests can monkeypatch it;
* programmatic — :func:`enable_metrics` (``repro serve --metrics``),
  which overrides the environment until cleared with
  ``enable_metrics(None)``.

Histograms keep ``count``/``sum``/``min``/``max`` exactly and a bounded
reservoir (default 512 samples, oldest-out) from which snapshot-time
quantiles (p50/p95/p99) are computed — memory stays O(series), never
O(observations).
"""

from __future__ import annotations

import os
import threading
from collections import deque

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "enable_metrics",
    "inc",
    "metrics_enabled",
    "observe",
    "registry",
    "render_prometheus",
    "set_gauge",
    "snapshot",
]

#: Bounded reservoir size per histogram series (oldest-out).
RESERVOIR_SIZE = 512

#: Programmatic override: ``True``/``False`` force the state, ``None``
#: defers to the ``REPRO_OBS`` environment variable.
_FORCED: bool | None = None


def metrics_enabled() -> bool:
    """Is metric recording switched on for this process?

    The environment is consulted per call (cheap — one dict lookup) so
    tests can flip ``REPRO_OBS`` without reimporting, and
    :func:`enable_metrics` wins over the environment when it has been
    called.
    """
    if _FORCED is not None:
        return _FORCED
    return os.environ.get("REPRO_OBS", "0") not in ("", "0")


def enable_metrics(on: bool | None = True) -> None:
    """Force metrics on (``True``), off (``False``), or back to the
    environment default (``None``).  Used by ``repro serve --metrics``
    and by tests."""
    global _FORCED
    _FORCED = on


class Counter:
    """A monotonically increasing float total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A point-in-time float value (set, not accumulated)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Exact count/sum/min/max plus a bounded quantile reservoir."""

    __slots__ = ("count", "total", "vmin", "vmax", "reservoir")
    kind = "histogram"

    def __init__(self, reservoir_size: int = RESERVOIR_SIZE) -> None:
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")
        self.reservoir: deque[float] = deque(maxlen=reservoir_size)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        self.reservoir.append(value)

    def quantile(self, q: float) -> float:
        if not self.reservoir:
            return 0.0
        ordered = sorted(self.reservoir)
        index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
        return ordered[index]

    def snapshot(self) -> dict:
        if not self.count:
            return {"count": 0, "sum": 0.0}
        ordered = sorted(self.reservoir)

        def at(q: float) -> float:
            return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]

        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "mean": self.total / self.count,
            "p50": at(0.50),
            "p95": at(0.95),
            "p99": at(0.99),
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Thread-safe name+labels → metric map with JSON and Prometheus
    exposition.  One process-wide instance lives behind :func:`registry`;
    tests may construct their own."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kinds: dict[str, str] = {}
        self._series: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}

    def _get(self, kind: str, name: str, labels: dict[str, str]):
        key = (name, _label_key(labels))
        metric = self._series.get(key)
        if metric is not None:
            if metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"not {kind}"
                )
            return metric
        with self._lock:
            metric = self._series.get(key)
            if metric is None:
                known = self._kinds.setdefault(name, kind)
                if known != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {known}, "
                        f"not {kind}"
                    )
                metric = _KINDS[kind]()
                self._series[key] = metric
        return metric

    # -- recording -----------------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels: str) -> None:
        self._get("counter", name, labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        self._get("gauge", name, labels).set(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        self._get("histogram", name, labels).observe(value)

    # -- exposition ----------------------------------------------------

    def snapshot(self, prefix: str = "") -> dict:
        """A JSON-ready snapshot: ``{name: {kind, series: {labelstr:
        value-or-histogram-dict}}}``, optionally filtered by name
        prefix.  Series maps are rebuilt fresh — the result shares no
        mutable state with the registry."""
        with self._lock:
            items = list(self._series.items())
            kinds = dict(self._kinds)
        out: dict[str, dict] = {}
        for (name, labelkey), metric in sorted(items, key=lambda kv: kv[0]):
            if prefix and not name.startswith(prefix):
                continue
            entry = out.setdefault(
                name, {"kind": kinds[name], "series": {}}
            )
            labelstr = ",".join(f"{k}={v}" for k, v in labelkey)
            entry["series"][labelstr] = metric.snapshot()
        return out

    def render_prometheus(self, namespace: str = "repro") -> str:
        """Prometheus text exposition of :meth:`snapshot` (see the
        module-level :func:`render_prometheus`)."""
        return render_prometheus(self.snapshot(), namespace)

    def reset(self) -> None:
        with self._lock:
            self._series.clear()
            self._kinds.clear()


def _fmt(value: float) -> str:
    return repr(round(float(value), 9))


def _render_labels(
    labelstr: str, extra: tuple[str, str] | None = None
) -> str:
    pairs = []
    if labelstr:
        for item in labelstr.split(","):
            k, _, v = item.partition("=")
            pairs.append((k, v))
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + inner + "}"


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry.  Always writable — the enabled check
    lives in the guarded helpers below, not here."""
    return _REGISTRY


# ----------------------------------------------------------------------
# guarded instrumentation helpers — the only functions hot paths call
# ----------------------------------------------------------------------


def inc(name: str, amount: float = 1.0, **labels: str) -> None:
    if metrics_enabled():
        _REGISTRY.inc(name, amount, **labels)


def set_gauge(name: str, value: float, **labels: str) -> None:
    if metrics_enabled():
        _REGISTRY.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels: str) -> None:
    if metrics_enabled():
        _REGISTRY.observe(name, value, **labels)


def snapshot() -> dict:
    """The stats-section shape shared by every backend: enabled flag
    plus the full registry snapshot (empty dict when nothing recorded)."""
    return {"enabled": metrics_enabled(), "registry": _REGISTRY.snapshot()}


def render_prometheus(
    snapshot: dict | None = None, namespace: str = "repro"
) -> str:
    """Prometheus text exposition of a registry snapshot (the process-wide
    registry's when ``None``) — HTTP-free: the wire ``metrics`` command
    carries it and ``repro client metrics`` renders ``stats()``'s."""
    if snapshot is None:
        snapshot = _REGISTRY.snapshot()
    lines: list[str] = []
    for name, entry in snapshot.items():
        kind = entry["kind"]
        metric_name = f"{namespace}_{name}"
        if kind == "counter":
            metric_name += "_total"
        lines.append(f"# TYPE {metric_name} {kind}")
        for labelstr, value in entry["series"].items():
            rendered = _render_labels(labelstr)
            if kind == "histogram":
                lines.append(f"{metric_name}_count{rendered} {value['count']}")
                lines.append(f"{metric_name}_sum{rendered} {_fmt(value['sum'])}")
                for q in ("p50", "p95", "p99"):
                    if q in value:
                        quantile = _render_labels(
                            labelstr, extra=("quantile", f"0.{q[1:]}")
                        )
                        lines.append(f"{metric_name}{quantile} {_fmt(value[q])}")
            else:
                lines.append(f"{metric_name}{rendered} {_fmt(value)}")
    return "\n".join(lines) + ("\n" if lines else "")

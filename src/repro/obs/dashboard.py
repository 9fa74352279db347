"""Text dashboard over a metric snapshot (or diff) plus recent events.

``render_dashboard`` turns the two telemetry streams — a registry
snapshot/diff and a slice of the flight recorder — into one fixed-width
text panel. Everything is sorted and formatted deterministically, so a
simulated run renders byte-identical dashboards run to run (the monitor
channel's acceptance test relies on this).

``include`` / ``exclude`` are metric-name prefix filters: pass
``exclude=("db.query_latency_s",)`` to drop wall-clock measurements
from an otherwise sim-clock-deterministic panel.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.obs.export import summary_quantile

_RULE = "-" * 72


def _keep(name: str, include: Sequence[str] | None, exclude: Sequence[str]) -> bool:
    if any(name.startswith(prefix) for prefix in exclude):
        return False
    if include is not None:
        return any(name.startswith(prefix) for prefix in include)
    return True


def _num(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _event_fields(event: Any) -> dict[str, Any]:
    """Uniform view over Event objects and their ``to_dict`` form."""
    if isinstance(event, dict):
        return event
    return event.to_dict()


def render_dashboard(
    snapshot: dict[str, Any],
    events: Iterable[Any] = (),
    title: str = "repro telemetry",
    include: Sequence[str] | None = None,
    exclude: Sequence[str] = (),
    max_events: int = 20,
) -> str:
    """Render *snapshot* (a registry snapshot or an exporter diff) as text.

    *events* may be :class:`repro.obs.events.Event` objects or their
    ``to_dict`` dicts (the wire form the monitor channel delivers); the
    newest ``max_events`` are shown, oldest first.
    """
    lines: list[str] = [f"== {title} ==", _RULE]

    counters = {
        name: value
        for name, value in snapshot.get("counters", {}).items()
        if _keep(name, include, exclude)
    }
    lines.append(f"counters ({len(counters)})")
    for name in sorted(counters):
        lines.append(f"  {name:<48} {_num(counters[name]):>12}")

    gauges = {
        name: value
        for name, value in snapshot.get("gauges", {}).items()
        if _keep(name, include, exclude)
    }
    lines.append(f"gauges ({len(gauges)})")
    for name in sorted(gauges):
        lines.append(f"  {name:<48} {_num(gauges[name]):>12}")

    for name in sorted(snapshot.get("gauges_absent", {})):
        if _keep(name, include, exclude):
            lines.append(f"  {name:<48} {'(absent)':>12}")

    histograms = {
        name: summary
        for name, summary in snapshot.get("histograms", {}).items()
        if _keep(name, include, exclude)
    }
    lines.append(f"histograms ({len(histograms)})")
    for name in sorted(histograms):
        summary = histograms[name] or {}
        lines.append(
            f"  {name:<48} count={_num(summary.get('count', 0))}"
            f" mean={_num(summary.get('mean'))}"
            f" p50={_num(summary_quantile(summary, 0.50))}"
            f" p90={_num(summary.get('p90'))}"
            f" p99={_num(summary_quantile(summary, 0.99))}"
            f" max={_num(summary.get('max'))}"
        )

    shown = list(events)[-max_events:] if max_events > 0 else []
    lines.append(_RULE)
    lines.append(f"events ({len(shown)} shown)")
    for event in shown:
        data = _event_fields(event)
        fields = data.get("fields", {})
        rendered_fields = " ".join(f"{key}={fields[key]}" for key in sorted(fields))
        lines.append(
            f"  [{data.get('at', 0.0):9.3f}] {data.get('severity', 'INFO'):<5}"
            f" {data.get('name', '?')}"
            + (f"  {rendered_fields}" if rendered_fields else "")
        )
    lines.append(_RULE)
    return "\n".join(lines)

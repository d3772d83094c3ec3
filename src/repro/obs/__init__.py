"""Structured observability: metrics registry + recovery-timeline export.

Two channels, one layer:

* :mod:`repro.obs.metrics` — a deterministic low-overhead registry of
  counters and gauges (sim-time), owned by each
  :class:`~repro.core.runtime.system.BTRSystem` and snapshotted into
  ``RunResult.metrics``. Its headline metric is
  ``messages_dropped{reason}``: nothing in the runtime may swallow a
  message or cache entry without incrementing it.
* :mod:`repro.obs.recovery` / :mod:`repro.obs.export` — per-fault
  recovery timelines (manifest → first charge → conviction → quorum →
  switch boundary → first correct output) reconstructed purely from the
  :class:`~repro.sim.trace.Trace`, with phase spans that sum exactly to
  the empirical end-to-end recovery time, exported per run to JSON and
  rendered by ``repro trace`` from a saved report and by ``repro run
  --timeline`` from the run just finished — one view of a recovery.
"""

from .metrics import MetricsRegistry, render_key
from .recovery import (
    MILESTONES,
    PHASE_BUDGET_COMPONENT,
    PHASES,
    FaultTimeline,
    budget_attribution,
    reconstruct_timelines,
)
from .export import (
    REPORT_VERSION,
    ReportError,
    export_run,
    load_report,
    render_phase_report,
    render_timeline,
    run_report,
)

__all__ = [
    "FaultTimeline",
    "MetricsRegistry",
    "MILESTONES",
    "PHASES",
    "PHASE_BUDGET_COMPONENT",
    "REPORT_VERSION",
    "ReportError",
    "budget_attribution",
    "export_run",
    "load_report",
    "reconstruct_timelines",
    "render_key",
    "render_phase_report",
    "render_timeline",
    "run_report",
]

"""Per-run observability export: one JSON document per run.

``run_report`` condenses a finished run into a diffable, deterministic
dictionary — fault timelines with their phase spans, the promised budget
decomposition, the metrics-registry snapshot, and an event census — and
``export_run``/``load_report`` round-trip it through JSON on disk.
``render_phase_report`` is the one rendering of a recovery: ``repro
trace`` applies it to a saved report, and ``repro run --timeline``
(through ``render_timeline``) to the run just finished, so both print the
same text for the same run.

The report is the contract between the experiment harness and the
documentation: EXPERIMENTS E1's recovery numbers are read back out of
these reports, never recomputed ad hoc.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Tuple

from ..persist import json_text, write_atomic
from .recovery import (
    MILESTONES,
    PHASES,
    PHASE_BUDGET_COMPONENT,
    FaultTimeline,
    reconstruct_timelines,
)

#: Bumped when the report layout changes incompatibly.
REPORT_VERSION = 1


def run_report(result, timelines: Optional[List[FaultTimeline]] = None
               ) -> Dict[str, object]:
    """A JSON-ready observability report for one run.

    ``result`` is a :class:`~repro.core.runtime.system.RunResult`;
    ``timelines`` may be passed if the caller already reconstructed them
    (they are recomputed from the trace otherwise).
    """
    if timelines is None:
        timelines = reconstruct_timelines(result)
    return {
        "version": REPORT_VERSION,
        "period_us": result.workload.period,
        "n_periods": result.n_periods,
        "duration_us": result.duration_us,
        "budget": (result.budget.to_dict()
                   if result.budget is not None else None),
        "faults": [t.to_dict() for t in timelines],
        "metrics": result.metrics or {},
        "trace_counts": result.trace.kind_counts(),
    }


def export_run(result, path: str,
               timelines: Optional[List[FaultTimeline]] = None
               ) -> Dict[str, object]:
    """Write the run's observability report to ``path`` atomically
    (:func:`~repro.persist.write_atomic`) and return it."""
    report = run_report(result, timelines)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    write_atomic(path, json_text(report) + "\n")
    return report


#: Keys every report carries; absence means a truncated or foreign file.
_REQUIRED_REPORT_KEYS = ("version", "period_us", "n_periods",
                         "duration_us", "budget", "faults", "metrics")
#: The run's integer shape.
_RUN_KEYS = ("period_us", "n_periods", "duration_us")
#: Keys every fault entry needs before the renderer may touch it, and the
#: type each must have.
_FAULT_KEY_TYPES = (("node", str), ("fault_kind", str),
                    ("manifest_us", int), ("milestones", dict),
                    ("phases", dict), ("total_us", int))
#: The integer components a non-null budget carries.
_BUDGET_KEYS = ("detection_us", "distribution_us", "switch_us",
                "settling_us", "total_us")
#: A milestone never observed is null.
_OPTIONAL_INT = (int, type(None))
_TYPE_NAMES = {int: "an integer", str: "a string", dict: "an object",
               list: "a list", _OPTIONAL_INT: "an integer or null"}


def _check_types(path: str, where: str, obj: Dict[str, object],
                 key_types: Iterable[Tuple[str, type]]) -> None:
    """Raise ``ValueError`` naming the first key of ``obj`` that is
    absent or not of its type (a JSON ``true`` is no integer)."""
    for key, kind in key_types:
        if key not in obj:
            raise ValueError(f"{path}: {where} is missing key {key!r}")
        value = obj[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(
                f"{path}: {where}[{key!r}] must be {_TYPE_NAMES[kind]}, "
                f"got {type(value).__name__}")


def load_report(path: str) -> Dict[str, object]:
    """Load and structurally validate a saved observability report.

    Raises ``ValueError`` (with the offending path and key) on anything
    that is not a report :func:`export_run` could have written —
    truncated writes, wrong JSON documents, missing phase tables, values
    of the wrong type, a negative phase, phases that do not sum to the
    fault's total — so callers like ``repro trace`` can print a
    diagnosis instead of tracebacking mid-render or rendering nonsense.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except ValueError as exc:
            raise ValueError(
                f"{path}: not valid JSON ({exc}) — was the file "
                f"truncated mid-write?") from None
    if not isinstance(report, dict):
        raise ValueError(
            f"{path}: expected a report object, got "
            f"{type(report).__name__} — is this a `repro run --obs` "
            f"report?")
    missing = [k for k in _REQUIRED_REPORT_KEYS if k not in report]
    if missing:
        raise ValueError(
            f"{path}: report is missing keys: {', '.join(missing)} — "
            f"is this a `repro run --obs` report?")
    if report["version"] != REPORT_VERSION:
        raise ValueError(
            f"{path}: report version {report['version']!r} is not "
            f"supported (this build reads version {REPORT_VERSION})")
    budget = report["budget"]
    if budget is not None:
        _check_types(path, "report", report, [("budget", dict)])
        _check_types(path, "budget", budget,
                     [(key, int) for key in _BUDGET_KEYS])
    _check_types(path, "report", report,
                 [(key, int) for key in _RUN_KEYS]
                 + [("metrics", dict), ("faults", list)])
    if "counters" in report["metrics"]:
        _check_types(path, "metrics", report["metrics"],
                     [("counters", dict)])
    faults = report["faults"]
    for i, fault in enumerate(faults):
        if not isinstance(fault, dict):
            raise ValueError(f"{path}: faults[{i}] must be an object, "
                             f"got {type(fault).__name__}")
        _check_types(path, f"faults[{i}]", fault, _FAULT_KEY_TYPES)
        _check_types(path, f"faults[{i}]['milestones']",
                     fault["milestones"],
                     [(name, _OPTIONAL_INT) for name in MILESTONES])
        phases = fault["phases"]
        _check_types(path, f"faults[{i}]['phases']", phases,
                     [(phase, int) for phase in PHASES])
        for phase in PHASES:
            if phases[phase] < 0:
                raise ValueError(f"{path}: faults[{i}]['phases']"
                                 f"[{phase!r}] is negative: {phases[phase]}")
        spent = sum(phases[phase] for phase in PHASES)
        if spent != fault["total_us"]:
            raise ValueError(
                f"{path}: faults[{i}]'s phases sum to {spent} us, not its "
                f"total_us {fault['total_us']}")
    return report


def _fmt_ms(us: Optional[int]) -> str:
    return "-" if us is None else f"{us / 1000:.3f}"


def render_phase_report(report: Dict[str, object]) -> str:
    """Human-readable phase breakdown of a saved report (for the CLI)."""
    lines: List[str] = []
    faults = report.get("faults", [])
    budget = report.get("budget")

    # Never under 12 columns, so the common kinds keep one layout, and as
    # wide as the longest kind (``evidence_flood`` has 14).
    kind_width = max([12] + [len(fault["fault_kind"]) for fault in faults])
    header = (f"{'fault':<{kind_width}} {'node':<8} {'manifest':>10} "
              + " ".join(f"{p:>9}" for p in PHASES)
              + f" {'total':>9}")
    lines.append("Recovery phase breakdown (ms)")
    lines.append(header)
    lines.append("-" * len(header))
    for fault in faults:
        phases = fault["phases"]
        lines.append(
            f"{fault['fault_kind']:<{kind_width}} {fault['node']:<8} "
            f"{_fmt_ms(fault['manifest_us']):>10} "
            + " ".join(f"{_fmt_ms(phases[p]):>9}" for p in PHASES)
            + f" {_fmt_ms(fault['total_us']):>9}"
        )
    if not faults:
        lines.append("(no faults injected)")

    if budget:
        lines.append("")
        lines.append("Budget attribution (observed worst phase vs promised "
                     "component, ms)")
        worst: Dict[str, int] = {p: 0 for p in PHASES}
        for fault in faults:
            for p in PHASES:
                worst[p] = max(worst[p], fault["phases"][p])
        lines.append(f"{'phase':<10} {'observed':>10} {'component':>16} "
                     f"{'promised':>10} {'used':>6}")
        for p in PHASES:
            component = PHASE_BUDGET_COMPONENT[p]
            promised = budget[component]
            used = (f"{100 * worst[p] / promised:.0f}%"
                    if promised else "-")
            lines.append(f"{p:<10} {_fmt_ms(worst[p]):>10} {component:>16} "
                         f"{_fmt_ms(promised):>10} {used:>6}")
        lines.append(f"{'end-to-end':<10} "
                     f"{_fmt_ms(max((f['total_us'] for f in faults), default=0)):>10} "
                     f"{'total_us':>16} {_fmt_ms(budget['total_us']):>10}")

    metrics = report.get("metrics") or {}
    counters = metrics.get("counters") or {}
    dropped = {k: v for k, v in counters.items()
               if k.startswith("messages_dropped")}
    if dropped:
        lines.append("")
        lines.append("Dropped messages")
        for key in sorted(dropped):
            lines.append(f"  {key}: {dropped[key]}")
    return "\n".join(lines)


def render_timeline(result,
                    timelines: Optional[List[FaultTimeline]] = None) -> str:
    """The phase report of a finished run: what ``repro run --timeline``
    prints, byte for byte what ``repro trace`` prints for the report
    ``export_run`` writes of the same run. ``timelines`` as for
    :func:`run_report`."""
    return render_phase_report(run_report(result, timelines))

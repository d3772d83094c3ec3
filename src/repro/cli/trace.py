"""``repro trace``: render a saved observability report (``run --obs
FILE``) — the per-fault recovery phase breakdown, the budget-attribution
table, and any dropped-message counters."""

from __future__ import annotations


def register(sub) -> None:
    p = sub.add_parser("trace", help="render a saved observability report")
    p.add_argument("report", metavar="RUN_JSON",
                   help="a report written by `repro run --obs FILE`")
    p.set_defaults(handler=handle)


def handle(args) -> int:
    from ..obs import load_report, render_phase_report

    print(render_phase_report(load_report(args.report)))
    return 0

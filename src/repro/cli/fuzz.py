"""``repro fuzz``: coverage-guided adversary fuzzing.

``campaign`` — a seeded generator mutates fault scripts along the
adversary's axes, climbs a recovery-timeline fitness signal toward the
``kR`` bound, and emits minimised, replay-confirmed counterexamples into
a corpus of regression benchmarks; exits 1 when it finds a violation.
``corpus-check`` replays every corpus entry and exits 1 when any stops
reproducing, 2 on an entry it cannot replay (``repro replay`` re-runs
one entry)."""

from __future__ import annotations

from .flags import (
    add_deployment_flags,
    deployment,
    number,
    write_json,
)
from .search import (
    add_search_flags,
    print_counterexample,
    run_search,
    write_artifacts,
)


def register(sub) -> None:
    fuzz = sub.add_parser("fuzz", help="coverage-guided adversary fuzzing")
    verbs = fuzz.add_subparsers(dest="fuzz_command", required=True)

    campaign = verbs.add_parser("campaign",
                                help="run one seeded fuzz campaign")
    add_deployment_flags(campaign)
    add_search_flags(campaign,
                     ["crash", "commission", "omission", "timing"])
    campaign.add_argument(
        "--generations", type=number(int, zero_ok=True), default=4,
        help="mutation generations after the seed generation")
    campaign.add_argument(
        "--batch", type=number(int), default=8,
        help="mutants generated per generation")
    campaign.add_argument(
        "--elite", type=number(int), default=4,
        help="top-fitness survivors eligible as mutation parents")
    campaign.add_argument(
        "--max-injections", type=number(int), default=1,
        help="max injections per script (the paper's k)")
    campaign.add_argument(
        "--max-artifacts", type=number(int, zero_ok=True), default=8,
        help="cap on minimised counterexample artifacts")
    campaign.set_defaults(handler=handle_campaign)

    corpus = verbs.add_parser(
        "corpus-check",
        help="replay every corpus entry (the regression gate)")
    add_deployment_flags(corpus)
    corpus.add_argument("--corpus", metavar="DIR", default="corpus",
                        help="corpus directory (default: corpus)")
    corpus.add_argument("--report", metavar="FILE", default=None,
                        help="write the check report as JSON")
    corpus.set_defaults(handler=handle_corpus_check)


def handle_campaign(args) -> int:
    from ..fuzz import FuzzParams, run_fuzz_campaign

    report, stats, wall = run_search(
        args, "fuzz", "run", run_fuzz_campaign, FuzzParams,
        generations=args.generations,
        batch=args.batch,
        elite=args.elite,
        max_injections=args.max_injections,
        max_artifacts=args.max_artifacts,
    )

    print(f"evaluated {report['evaluated']} scripts over "
          f"{len(report['generations'])} generations: "
          f"{len(report['coverage'])} coverage keys, "
          f"best fitness {report['best_fitness']} "
          + wall(report["evaluated"]))

    for artifact in report["counterexamples"]:
        print_counterexample(
            artifact,
            f"{len(artifact['fault_script']['injections'])} injection(s)")
    write_artifacts(args, report["counterexamples"])
    if args.report:
        write_json(args.report, report, "campaign report")

    if report["found"]:
        print(f"FOUND {report['violating_scripts']} violating script(s), "
              f"{len(report['counterexamples'])} minimised "
              f"counterexample(s)")
        return 1
    print("no violation found at this budget")
    return 0


def handle_corpus_check(args) -> int:
    from ..fuzz import check_corpus, load_corpus

    entries = load_corpus(args.corpus)
    if not entries:
        print(f"repro fuzz: corpus {args.corpus} is empty")
        return 0
    report = check_corpus(args.corpus, deployment(args), entries=entries)
    for entry in report["entries"]:
        status = ("ok" if entry["confirmed"] and entry["digest_match"]
                  else "FAIL")
        detail = ",".join(entry["observed"]) or "none"
        print(f"  {entry['name']}: {status} "
              f"(recorded {','.join(entry['recorded'])}; "
              f"replayed {detail}"
              + ("" if entry["digest_match"] else "; digest mismatch")
              + ")")
    print(f"corpus: {report['checked']} entries, "
          f"{report['failed']} failing")
    if args.report:
        write_json(args.report, report, "corpus report")
    return 0 if report["ok"] else 1

"""Coverage-guided adversary fuzzing: searching the fault-script space.

The model checker (:mod:`repro.mc`) exhausts tiny configurations; this
package probes realistic ones. A seeded generator mutates
:class:`~repro.faults.adversary.FaultScript` payloads along the axes the
paper's §3 adversary controls, a fitness signal derived from the
recovery timelines climbs toward the ``kR`` bound, and a coverage map
over (mode transitions × milestones × verdicts × injection placement)
keeps novel executions alive when fitness stalls. Confirmed violations
become minimised, replayable counterexamples in the shared ``mc/``
artifact format, checked into a ``corpus/`` of permanent regression
benchmarks. See ``docs/FUZZING.md``.
"""

from .campaign import (
    FUZZ_REPORT_VERSION,
    FuzzParams,
    run_fuzz_campaign,
)
from .corpus import artifact_name, check_corpus, load_corpus, write_corpus
from .fitness import coverage_keys, fitness_vector
from .mutate import (
    MUTATIONS,
    MutationSpace,
    canonical_script,
    mutate_script,
    seed_scripts,
)

__all__ = [
    "FUZZ_REPORT_VERSION",
    "FuzzParams",
    "run_fuzz_campaign",
    "artifact_name",
    "check_corpus",
    "load_corpus",
    "write_corpus",
    "coverage_keys",
    "fitness_vector",
    "MUTATIONS",
    "MutationSpace",
    "canonical_script",
    "mutate_script",
    "seed_scripts",
]

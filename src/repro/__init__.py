"""repro - Bounded-Time Recovery for cyber-physical systems.

A full reproduction of the system sketched in "Fault Tolerance and the
Five-Second Rule" (Chen, Xiao, Haeberlen, Phan - HotOS XV, 2015):

* :class:`BTRSystem` / :class:`BTRConfig` - the deployment API
  (offline planning + simulated execution);
* :class:`Deployment` - one deployment named by primitives (workload,
  topology spec, bandwidth, f, seed, stretch), as CLI flags, artifact
  ``meta`` and pool workers name it;
* :mod:`repro.workload` - periodic dataflow workloads with criticality;
* :mod:`repro.net` - CPS topologies, routing, bandwidth reservation;
* :mod:`repro.sched` - static schedule synthesis and analysis;
* :mod:`repro.faults` - Byzantine fault injection and adversaries;
* :mod:`repro.baselines` - BFT / ZZ / self-stabilization / crash-restart
  comparison systems on the same substrate;
* :mod:`repro.analysis` - the Definition 3.1 checker, plant models,
  and metrics.
"""

from .core import BTRConfig, BTRSystem, RecoveryBudget, RunResult
from .deployment import Deployment

__version__ = "1.0.0"

__all__ = [
    "BTRConfig",
    "BTRSystem",
    "Deployment",
    "RecoveryBudget",
    "RunResult",
    "__version__",
]

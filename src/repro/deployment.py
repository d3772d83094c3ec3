"""One deployment, named by primitives.

The planner computes a strategy for one deployment: a workload, a
topology and a fault budget f (§4.1 of the paper). A Definition 3.1 or
kR verdict is a claim about that deployment, so every surface that
names one — the CLI flags, the ``meta`` of an mc / fuzz artifact, a
corpus entry — names it with one
:class:`Deployment`: six primitives that pickle, serialise to JSON and
compare by value.

:meth:`Deployment.system` is the only code that turns those primitives
into a workload, a topology and an unprepared
:class:`~repro.core.runtime.system.BTRSystem`. Its keyword arguments
choose *how* the system runs (trace fidelity), never *what* it is.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

from .core.runtime.config import BTRConfig
from .core.runtime.system import BTRSystem
from .net.topology import Topology, parse_topology_spec, topology_from_spec
from .workload import WORKLOADS, stretched_workload
from .workload.dataflow import DataflowGraph


def _require_int(name: str, value, least: Optional[int] = None) -> None:
    # ``type(...) is int``: a JSON ``true`` is no count.
    if type(value) is not int or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


@dataclass(frozen=True)
class Deployment:
    """A workload name, a topology spec, the raw link bandwidth (bit/s),
    the fault budget f, the run seed, and the period/deadline stretch
    (see :func:`~repro.workload.stretched_workload`).

    Construction validates every field (``ValueError`` naming the first
    bad one), so a ``Deployment`` that exists can be built.
    """

    workload: str = "industrial"
    topology: str = "fullmesh:7"
    bandwidth: float = 1e8
    f: int = 1
    seed: int = 42
    stretch: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.workload, str) \
                or self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}; choose "
                             f"from {', '.join(sorted(WORKLOADS))}")
        if not isinstance(self.topology, str):
            raise ValueError(f"topology must be a spec string, "
                             f"got {self.topology!r}")
        parse_topology_spec(self.topology)
        if type(self.bandwidth) not in (int, float) \
                or not 0 < self.bandwidth < math.inf:
            raise ValueError(f"bandwidth must be a positive number, "
                             f"got {self.bandwidth!r}")
        _require_int("f", self.f)
        if self.f < 1:
            raise ValueError("BTR needs f >= 1 (use the unreplicated "
                             "baseline for f = 0)")
        _require_int("seed", self.seed)
        _require_int("stretch", self.stretch, least=1)

    # ------------------------------------------------------------ meta

    @classmethod
    def from_meta(cls, meta, base: Optional["Deployment"] = None
                  ) -> "Deployment":
        """The deployment an artifact's ``meta`` pins.

        Keys the meta lacks come from ``base`` (default: the record's
        defaults) — the CLI passes the one its flags name — and keys
        that name no field (``source``) are ignored. ``ValueError`` on
        a meta that is not an object or pins a malformed field.
        """
        if meta is None:
            meta = {}
        if not isinstance(meta, dict):
            raise ValueError(f"meta must be an object, got {meta!r}")
        pinned = {field.name: meta[field.name] for field in fields(cls)
                  if field.name in meta}
        return replace(base or cls(), **pinned)

    def to_meta(self) -> dict:
        """The artifact ``meta`` naming this deployment. ``stretch`` is
        written only when it is not 1, so unstretched artifacts keep
        the layout (and corpus names) they had before it existed."""
        meta = asdict(self)
        if self.stretch == 1:
            del meta["stretch"]
        return meta

    # ----------------------------------------------------------- build

    def build_workload(self) -> DataflowGraph:
        return stretched_workload(WORKLOADS[self.workload](), self.stretch)

    def build_topology(self) -> Topology:
        return topology_from_spec(self.topology, self.bandwidth)

    def config(self, *, trace_mode: str = "full") -> BTRConfig:
        return BTRConfig(f=self.f, seed=self.seed, trace_mode=trace_mode)

    def system(self, *, trace_mode: str = "full") -> BTRSystem:
        """An unprepared system on this deployment."""
        return BTRSystem(self.build_workload(), self.build_topology(),
                         self.config(trace_mode=trace_mode))

"""Workload generators: the paper's motivating CPS scenarios + random DAGs.

Three domain workloads mirror the examples the paper's intro and case study
use — an avionics suite (flight control next to in-flight entertainment), an
industrial plant (pressure sensor → controller → safety valve), and a
many-ECU automotive workload — plus parametric pipeline and random layered
DAGs for tests and scalability sweeps.

All times are integer µs; default periods are tens of milliseconds, typical
of control loops in these domains.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..sim.random import DeterministicRandom
from ..sim.time import ms
from .criticality import Criticality
from .dataflow import DataflowGraph, Flow, WorkloadError
from .task import Task


def pipeline_workload(
    n_stages: int = 3,
    period: int = ms(20),
    wcet: int = 500,
    deadline: Optional[int] = None,
) -> DataflowGraph:
    """A linear source → t1 → … → tn → sink pipeline (test workhorse),
    every stage criticality A."""
    if n_stages < 1:
        raise ValueError("need at least one stage")
    name = "pipeline"
    tasks = [
        Task(name=f"{name}.t{i}", wcet=wcet, criticality=Criticality.A,
             state_bits=1024)
        for i in range(n_stages)
    ]
    flows: List[Flow] = [
        Flow(name=f"{name}.in", src=f"{name}.sensor", dst=tasks[0].name)
    ]
    for i in range(n_stages - 1):
        flows.append(Flow(name=f"{name}.f{i}", src=tasks[i].name,
                          dst=tasks[i + 1].name))
    flows.append(Flow(
        name=f"{name}.out", src=tasks[-1].name, dst=f"{name}.actuator",
        deadline=deadline if deadline is not None else period,
        criticality=Criticality.A,
    ))
    return DataflowGraph(
        period=period, tasks=tasks, flows=flows,
        sources=[f"{name}.sensor"], sinks=[f"{name}.actuator"], name=name,
    )


def avionics_workload(period: int = ms(20), n_ife_channels: int = 1,
                      ife_wcet: int = 2000) -> DataflowGraph:
    """Flight control + navigation + telemetry + entertainment (paper §1).

    Criticality A: the pitch/roll control loop. B: navigation. C: telemetry
    downlink. D: the in-flight entertainment system the paper suggests
    shedding first.

    ``n_ife_channels`` adds extra IFE streaming chains (seat groups); with
    enough of them the entertainment load dominates the CPU, which is the
    regime where mixed-criticality shedding becomes resource-driven (E4).
    """
    if n_ife_channels < 1:
        raise ValueError("need at least one IFE channel")
    tasks = [
        Task("fusion", wcet=800, criticality=Criticality.A, state_bits=4096),
        Task("ctrl_law", wcet=1200, criticality=Criticality.A, state_bits=8192),
        Task("autopilot", wcet=900, criticality=Criticality.A, state_bits=8192),
        Task("nav", wcet=1000, criticality=Criticality.B, state_bits=16384),
        Task("route_plan", wcet=1500, criticality=Criticality.B,
             state_bits=32768),
        Task("telemetry", wcet=600, criticality=Criticality.C,
             state_bits=2048),
        Task("ife_head", wcet=ife_wcet, criticality=Criticality.D,
             state_bits=65536),
        Task("ife_stream", wcet=ife_wcet + 500, criticality=Criticality.D,
             state_bits=65536),
    ]
    for i in range(1, n_ife_channels):
        tasks.append(Task(f"ife{i}_head", wcet=ife_wcet,
                          criticality=Criticality.D, state_bits=65536))
        tasks.append(Task(f"ife{i}_stream", wcet=ife_wcet + 500,
                          criticality=Criticality.D, state_bits=65536))
    flows = [
        Flow("pitot_in", src="pitot", dst="fusion", size_bits=256),
        Flow("gyro_in", src="gyro", dst="fusion", size_bits=256),
        Flow("gps_in", src="gps", dst="nav", size_bits=512),
        Flow("fused_state", src="fusion", dst="ctrl_law", size_bits=1024),
        Flow("fused_nav", src="fusion", dst="nav", size_bits=1024),
        Flow("nav_ap", src="nav", dst="autopilot", size_bits=1024),
        Flow("nav_route", src="nav", dst="route_plan", size_bits=2048),
        Flow("ap_cmd", src="autopilot", dst="ctrl_law", size_bits=512),
        Flow("elevator_cmd", src="ctrl_law", dst="elevator",
             deadline=ms(10), criticality=Criticality.A, size_bits=256),
        Flow("aileron_cmd", src="ctrl_law", dst="aileron",
             deadline=ms(10), criticality=Criticality.A, size_bits=256),
        Flow("route_out", src="route_plan", dst="mfd_display",
             deadline=ms(18), criticality=Criticality.B, size_bits=4096),
        Flow("fused_telemetry", src="fusion", dst="telemetry",
             size_bits=1024),
        Flow("telemetry_out", src="telemetry", dst="downlink",
             deadline=ms(20), criticality=Criticality.C, size_bits=8192),
        Flow("media_in", src="media_store", dst="ife_head", size_bits=16384),
        Flow("ife_pipe", src="ife_head", dst="ife_stream", size_bits=16384),
        Flow("cabin_video", src="ife_stream", dst="cabin_screens",
             deadline=period, criticality=Criticality.D, size_bits=16384),
    ]
    for i in range(1, n_ife_channels):
        flows += [
            Flow(f"media_in{i}", src="media_store", dst=f"ife{i}_head",
                 size_bits=16384),
            Flow(f"ife_pipe{i}", src=f"ife{i}_head", dst=f"ife{i}_stream",
                 size_bits=16384),
            Flow(f"cabin_video{i}", src=f"ife{i}_stream",
                 dst="cabin_screens", deadline=period,
                 criticality=Criticality.D, size_bits=16384),
        ]
    return DataflowGraph(
        period=period, tasks=tasks, flows=flows,
        sources=["pitot", "gyro", "gps", "media_store"],
        sinks=["elevator", "aileron", "mfd_display", "downlink",
               "cabin_screens"],
        name="avionics",
    )


def industrial_workload() -> DataflowGraph:
    """Pressure-vessel control (paper §2): sensor → controller → valve.

    "When a sensor indicates a pressure increase ... the system may need to
    respond within seconds — e.g., by opening a safety valve — to prevent an
    explosion."
    """
    period = ms(50)
    tasks = [
        Task("p_filter", wcet=400, criticality=Criticality.A,
             state_bits=2048),
        Task("t_filter", wcet=400, criticality=Criticality.A,
             state_bits=2048),
        Task("plant_ctrl", wcet=1500, criticality=Criticality.A,
             state_bits=8192),
        Task("safety_mon", wcet=600, criticality=Criticality.A,
             state_bits=1024),
        Task("batch_sched", wcet=1800, criticality=Criticality.B,
             state_bits=16384),
        Task("historian", wcet=1200, criticality=Criticality.C,
             state_bits=32768),
        Task("hmi_render", wcet=2200, criticality=Criticality.D,
             state_bits=16384),
    ]
    flows = [
        Flow("pressure_in", src="pressure_sensor", dst="p_filter",
             size_bits=256),
        Flow("pressure_mon", src="pressure_sensor", dst="safety_mon",
             size_bits=256),
        Flow("temp_in", src="temp_sensor", dst="t_filter", size_bits=256),
        Flow("p_clean", src="p_filter", dst="plant_ctrl", size_bits=512),
        Flow("t_clean", src="t_filter", dst="plant_ctrl", size_bits=512),
        Flow("valve_cmd", src="plant_ctrl", dst="control_valve",
             deadline=ms(25), criticality=Criticality.A, size_bits=256),
        Flow("safety_cmd", src="safety_mon", dst="safety_valve",
             deadline=ms(10), criticality=Criticality.A, size_bits=128),
        Flow("ctrl_batch", src="plant_ctrl", dst="batch_sched",
             size_bits=1024),
        Flow("batch_out", src="batch_sched", dst="batch_actuators",
             deadline=ms(40), criticality=Criticality.B, size_bits=2048),
        Flow("ctrl_hist", src="plant_ctrl", dst="historian", size_bits=4096),
        Flow("hist_out", src="historian", dst="archive",
             deadline=ms(50), criticality=Criticality.C, size_bits=8192),
        Flow("hist_hmi", src="historian", dst="hmi_render", size_bits=8192),
        Flow("hmi_out", src="hmi_render", dst="operator_screen",
             deadline=ms(50), criticality=Criticality.D, size_bits=16384),
    ]
    return DataflowGraph(
        period=period, tasks=tasks, flows=flows,
        sources=["pressure_sensor", "temp_sensor"],
        sinks=["control_valve", "safety_valve", "batch_actuators", "archive",
               "operator_screen"],
        name="industrial",
    )


def automotive_workload(n_wheels: int = 4) -> DataflowGraph:
    """A many-ECU car (paper §2: "about a hundred microprocessors")."""
    period = ms(10)
    tasks = [
        Task("abs_ctrl", wcet=700, criticality=Criticality.A,
             state_bits=4096),
        Task("stability", wcet=900, criticality=Criticality.A,
             state_bits=8192),
        Task("engine_ctrl", wcet=1100, criticality=Criticality.B,
             state_bits=16384),
        Task("climate", wcet=800, criticality=Criticality.C,
             state_bits=4096),
        Task("infotainment", wcet=1600, criticality=Criticality.D,
             state_bits=65536),
    ]
    flows = []
    sources = ["imu", "throttle", "cabin_temp", "head_unit_input"]
    for w in range(n_wheels):
        sources.append(f"wheel{w}_speed")
        flows.append(Flow(f"wheel{w}_in", src=f"wheel{w}_speed",
                          dst="abs_ctrl", size_bits=128))
    flows += [
        Flow("imu_in", src="imu", dst="stability", size_bits=512),
        Flow("abs_stab", src="abs_ctrl", dst="stability", size_bits=512),
        Flow("brake_cmd", src="abs_ctrl", dst="brake_actuators",
             deadline=ms(5), criticality=Criticality.A, size_bits=256),
        Flow("stab_cmd", src="stability", dst="steering_assist",
             deadline=ms(8), criticality=Criticality.A, size_bits=256),
        Flow("throttle_in", src="throttle", dst="engine_ctrl",
             size_bits=256),
        Flow("injector_cmd", src="engine_ctrl", dst="injectors",
             deadline=ms(10), criticality=Criticality.B, size_bits=512),
        Flow("temp_in2", src="cabin_temp", dst="climate", size_bits=128),
        Flow("hvac_cmd", src="climate", dst="hvac",
             deadline=ms(10), criticality=Criticality.C, size_bits=256),
        Flow("ui_in", src="head_unit_input", dst="infotainment",
             size_bits=2048),
        Flow("screen_out", src="infotainment", dst="dash_screen",
             deadline=ms(10), criticality=Criticality.D, size_bits=8192),
    ]
    return DataflowGraph(
        period=period, tasks=tasks, flows=flows, sources=sources,
        sinks=["brake_actuators", "steering_assist", "injectors", "hvac",
               "dash_screen"],
        name="automotive",
    )


def power_grid_workload(n_feeders: int = 3) -> DataflowGraph:
    """A substation protection-and-control workload (SCADA-class CPS).

    The paper's §2 cites factory/power-plant control [54] and the
    Maroochy/Stuxnet/steel-mill incidents [44, 48, 63, 73] as motivation.
    Criticality A: protection relays tripping breakers on fault currents
    (hard deadlines — a breaker must open before equipment damage).
    B: voltage regulation. C: the SCADA historian. D: the operator
    dashboard.
    """
    period = ms(40)
    if n_feeders < 1:
        raise ValueError("need at least one feeder")
    tasks = [
        Task("prot_agg", wcet=500, criticality=Criticality.A,
             state_bits=2048),
        Task("volt_reg", wcet=1200, criticality=Criticality.B,
             state_bits=16384),
        Task("scada_hist", wcet=1000, criticality=Criticality.C,
             state_bits=32768),
        Task("op_dash", wcet=1800, criticality=Criticality.D,
             state_bits=16384),
    ]
    flows: List[Flow] = []
    sources = ["bus_pmu"]
    for i in range(n_feeders):
        tasks.append(Task(f"relay{i}", wcet=400,
                          criticality=Criticality.A, state_bits=1024))
        sources.append(f"feeder{i}_ct")
        flows += [
            Flow(f"feeder{i}_in", src=f"feeder{i}_ct", dst=f"relay{i}",
                 size_bits=256),
            Flow(f"trip{i}", src=f"relay{i}", dst=f"breaker{i}",
                 deadline=ms(8), criticality=Criticality.A, size_bits=128),
            Flow(f"relay{i}_agg", src=f"relay{i}", dst="prot_agg",
                 size_bits=256),
        ]
    flows += [
        Flow("pmu_in", src="bus_pmu", dst="volt_reg", size_bits=1024),
        Flow("agg_volt", src="prot_agg", dst="volt_reg", size_bits=512),
        Flow("tap_cmd", src="volt_reg", dst="tap_changer",
             deadline=ms(30), criticality=Criticality.B, size_bits=256),
        Flow("agg_hist", src="prot_agg", dst="scada_hist", size_bits=2048),
        Flow("volt_hist", src="volt_reg", dst="scada_hist", size_bits=2048),
        Flow("hist_arch", src="scada_hist", dst="grid_archive",
             deadline=ms(40), criticality=Criticality.C, size_bits=8192),
        Flow("hist_dash", src="scada_hist", dst="op_dash", size_bits=8192),
        Flow("dash_out", src="op_dash", dst="control_room",
             deadline=ms(40), criticality=Criticality.D, size_bits=16384),
    ]
    sinks = [f"breaker{i}" for i in range(n_feeders)]
    sinks += ["tap_changer", "grid_archive", "control_room"]
    return DataflowGraph(period=period, tasks=tasks, flows=flows,
                         sources=sources, sinks=sinks, name="power_grid")


def random_workload(
    rng: DeterministicRandom,
    n_tasks: int = 10,
    n_layers: int = 3,
    period: int = ms(50),
) -> DataflowGraph:
    """A random layered DAG: sources feed layer 0, last layer feeds sinks.

    Every task gets at least one input and one output, so the result always
    satisfies the model's structural invariants.
    """
    name = "random"
    if n_tasks < n_layers:
        raise ValueError("need at least one task per layer")
    crits = Criticality.ordered()
    layers: List[List[Task]] = [[] for _ in range(n_layers)]
    for i in range(n_tasks):
        layer = i % n_layers
        task = Task(
            name=f"{name}.t{i}",
            wcet=rng.randint(200, 2000),
            criticality=rng.choice(crits),
            state_bits=rng.choice([1024, 4096, 16384]),
        )
        layers[layer].append(task)

    flows: List[Flow] = []
    source = f"{name}.sensor"
    sink = f"{name}.actuator"
    flow_idx = 0

    def next_flow_name() -> str:
        nonlocal flow_idx
        flow_idx += 1
        return f"{name}.f{flow_idx}"

    for task in layers[0]:
        flows.append(Flow(next_flow_name(), src=source, dst=task.name,
                          size_bits=rng.choice([128, 256, 512])))
    for layer_idx in range(1, n_layers):
        for task in layers[layer_idx]:
            parents = rng.sample(
                layers[layer_idx - 1],
                k=min(len(layers[layer_idx - 1]), rng.randint(1, 2)),
            )
            for parent in parents:
                flows.append(Flow(next_flow_name(), src=parent.name,
                                  dst=task.name,
                                  size_bits=rng.choice([256, 512, 1024])))
    # Ensure every non-final-layer task has an output.
    for layer_idx in range(n_layers - 1):
        fed = {f.src for f in flows}
        for task in layers[layer_idx]:
            if task.name not in fed:
                target = rng.choice(layers[layer_idx + 1])
                flows.append(Flow(next_flow_name(), src=task.name,
                                  dst=target.name, size_bits=256))
    for task in layers[-1]:
        deadline = rng.randint(period // 2, period)
        flows.append(Flow(next_flow_name(), src=task.name, dst=sink,
                          deadline=deadline, criticality=task.criticality,
                          size_bits=256))
    tasks = [t for layer in layers for t in layer]
    return DataflowGraph(period=period, tasks=tasks, flows=flows,
                         sources=[source], sinks=[sink], name=name)


def stretched_workload(graph: DataflowGraph, factor: int) -> DataflowGraph:
    """The same dataflow at ``factor``x slower periods and deadlines.

    Geo-distributed deployments run the library's domain control loops
    at WAN-scale periods: the structure (tasks, flows, criticalities,
    state sizes) is unchanged, but the period and every flow deadline
    are multiplied by ``factor``. Task WCETs are *not* scaled — compute
    does not slow down because the plant is far away — so stretching
    strictly adds slack. E17's geo cells use this to place
    millisecond-deadline CPS workloads on topologies whose inter-region
    links alone cost several milliseconds.
    """
    if factor < 1:
        raise WorkloadError(f"stretch factor must be >= 1, got {factor}")
    if factor == 1:
        return graph
    flows = [
        Flow(name=f.name, src=f.src, dst=f.dst, size_bits=f.size_bits,
             deadline=None if f.deadline is None else f.deadline * factor,
             criticality=f.criticality)
        for f in graph.flows
    ]
    return DataflowGraph(
        period=graph.period * factor,
        tasks=graph.tasks.values(),
        flows=flows,
        sources=graph.sources,
        sinks=graph.sinks,
        name=f"{graph.name}x{factor}",
    )


#: The named workloads: the one name -> factory table behind
#: :class:`~repro.deployment.Deployment`, and so behind the CLI's
#: ``--workload``, artifact ``meta`` and pool-sweep workers.
WORKLOADS: Dict[str, Callable[[], DataflowGraph]] = {
    "industrial": industrial_workload,
    "avionics": avionics_workload,
    "automotive": automotive_workload,
    "pipeline": pipeline_workload,
    "power_grid": power_grid_workload,
}

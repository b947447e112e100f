"""repro.netsim -- the contention-aware lockstep network simulator.

The routing layer of this package answers "where does every message go";
this subsystem answers the paper-standard interconnect question "how long
does it take under load": open-loop injection (Poisson / bursty arrival
processes from the traffic registry), plans built from the batch routing
engine's CSR node paths with whole-array passes (:func:`build_plan`),
round-based replay of the routed paths against per-virtual-channel
occupancy with deterministic lowest-index arbitration, and latency /
throughput / saturation reporting.

Two bit-identical simulators are registered (``array`` -- the vectorized
default -- and ``scalar`` -- the dict-based oracle), switchable via the
``REPRO_NETSIM`` environment variable, :func:`use_simulator`, or the
``sim=`` argument, exactly like the ``REPRO_ROUTE_ENGINE`` /
``REPRO_MASK_KERNEL`` toggles before it.

Entry points: :meth:`repro.api.MeshSession.simulate` (one call),
:class:`NetSimSession` (the facade), ``SweepExecutor.run_latency`` /
:func:`repro.sim.experiments.run_latency_sweep` (latency-vs-load curves),
the ``repro-mesh simulate`` CLI command and
``benchmarks/bench_saturation.py``.
"""

from repro.netsim.plan import NUM_VCS, SimPlan, build_plan
from repro.netsim.registry import (
    SimulatorSpec,
    available_simulators,
    default_simulator,
    get_simulator,
    register_simulator,
    resolve_simulator,
    set_default_simulator,
    simulator_keys,
    use_simulator,
)
from repro.netsim.session import NetSimSession
from repro.netsim.simulators import SimOutcome, simulate_array, simulate_scalar
from repro.netsim.stats import VC_NAMES, NetSimStats, delivery_fingerprint

__all__ = [
    "NUM_VCS",
    "VC_NAMES",
    "SimPlan",
    "build_plan",
    "SimOutcome",
    "simulate_array",
    "simulate_scalar",
    "SimulatorSpec",
    "register_simulator",
    "get_simulator",
    "available_simulators",
    "simulator_keys",
    "default_simulator",
    "set_default_simulator",
    "use_simulator",
    "resolve_simulator",
    "NetSimSession",
    "NetSimStats",
    "delivery_fingerprint",
]

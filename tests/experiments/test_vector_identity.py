"""Scalar vs batched pipelines: full-run bit-identity gates.

The simulator picks its kernels from problem size — the batched settle
pipeline from :data:`repro.hw.machine.BATCH_MIN_CPUS` logical CPUs, the
numpy bus kernel from :data:`repro.hw.bus._VECTOR_MIN_LANES` lanes. Both
are pure evaluation-order-preserving optimizations, so an entire
simulation — every turnaround, every counter that carries physics — must
be byte-equal whichever side runs. Each test forces both sides with
:func:`tests.pipeline.forced` on the same spec: on the paper's Figure 2
grid, on a 256-CPU machine, with the audit on, and through the
chunked-parallel dispatcher. ``"newton"`` in a test name is the scalar
side (scalar pipeline, scalar Newton loop), ``"vector"`` the batched one.
"""

from repro.config import BusConfig, MachineConfig
from repro.core.policies import LatestQuantumPolicy, QuantaWindowPolicy
from repro.experiments.base import SimulationSpec, run_simulation
from repro.experiments.fig2 import run_fig2
from repro.hw.machine import Machine
from repro.parallel import run_many
from repro.sim.engine import Engine
from repro.workloads.microbench import bbma_spec, nbbma_spec
from repro.workloads.suites import PAPER_APPS
from tests.pipeline import forced

_SCALE = 0.05


def _machine(n_cpus: int = 8) -> MachineConfig:
    return MachineConfig(
        n_cpus=n_cpus,
        bus=BusConfig(capacity_txus=BusConfig().capacity_txus * (n_cpus / 4.0)),
    )


def _spec(scheduler, **kwargs) -> SimulationSpec:
    apps = [PAPER_APPS[name].scaled(_SCALE) for name in ("CG", "Barnes")]
    return SimulationSpec(
        targets=[apps[0], apps[0], apps[1]],
        background=[bbma_spec(), bbma_spec(), nbbma_spec()],
        scheduler=scheduler,
        machine=_machine(),
        seed=11,
        **kwargs,
    )


def _run(batched: bool, spec: SimulationSpec):
    with forced(batched):
        return run_simulation(spec)


def _spec_256(seed: int = 3) -> SimulationSpec:
    """The 256-CPU Quanta Window workload, at a test-sized work scale."""
    inst = 32
    targets = []
    for name in ("Barnes", "SP", "CG", "Raytrace"):
        targets.extend([PAPER_APPS[name].scaled(0.005)] * inst)
    background = [bbma_spec() for _ in range(3 * inst)]
    background += [nbbma_spec() for _ in range(inst)]
    return SimulationSpec(
        targets=targets,
        background=background,
        scheduler=QuantaWindowPolicy(),
        machine=_machine(256),
        seed=seed,
    )


class TestPipelineChoice:
    def test_size_picks_the_pipeline(self):
        # No option: the paper's 4-CPU machine and SMT machines run the
        # scalar pipeline; a large machine without SMT runs batched.
        assert Machine(MachineConfig(), Engine()).soa_store is None
        assert Machine(_machine(256), Engine()).soa_store is not None
        smt = MachineConfig(n_cpus=128, smt_ways=2)
        assert Machine(smt, Engine()).soa_store is None


class TestVectorRunIdentity:
    def test_linux_run_bit_identical_to_newton(self):
        ref = _run(False, _spec("linux"))
        vec = _run(True, _spec("linux"))
        assert vec == ref  # compare=False excludes observability counters
        assert vec.apps == ref.apps

    def test_policy_run_bit_identical_to_newton(self):
        for policy_cls in (LatestQuantumPolicy, QuantaWindowPolicy):
            ref = _run(False, _spec(policy_cls()))
            vec = _run(True, _spec(policy_cls()))
            assert vec == ref

    def test_fig2_grid_bit_identical_across_pipelines(self):
        for set_name in ("A", "B", "C"):
            with forced(False):
                ref = run_fig2(set_name, work_scale=_SCALE, seed=42)
            with forced(True):
                vec = run_fig2(set_name, work_scale=_SCALE, seed=42)
            assert vec == ref, f"set {set_name} diverged"

    def test_256_cpu_run_bit_identical_across_pipelines(self):
        ref = _run(False, _spec_256())
        vec = _run(True, _spec_256())
        default = run_simulation(_spec_256())  # picks batched by itself
        assert vec == ref
        assert default == ref

    def test_incremental_selection_matches_full_rerank(self):
        # Same pipeline on both sides: this isolates the selection rewrite.
        full = _run(True, _spec(QuantaWindowPolicy(incremental=False)))
        inc = _run(True, _spec(QuantaWindowPolicy(incremental=True)))
        assert inc == full

    def test_vector_identity_survives_audit(self):
        # The audit replays selections through the differential oracle;
        # it must neither fire nor perturb the batched run.
        audited = _run(True, _spec(QuantaWindowPolicy(), audit=True))
        plain = _run(True, _spec(QuantaWindowPolicy()))
        ref = _run(False, _spec(QuantaWindowPolicy()))
        assert audited.audit is not None and audited.audit.violations == ()
        assert audited == plain == ref

    def test_vector_survives_chunked_parallel_dispatch(self):
        def grid():
            # Fresh policy instances per call: policies are stateful.
            return [_spec("linux"), _spec(QuantaWindowPolicy())]

        with forced(True):
            serial = run_many(grid(), jobs=1)
            parallel = run_many(grid(), jobs=2)
        assert serial == parallel

    def test_profile_counters_prove_vector_path_ran(self):
        result = _run(True, _spec(QuantaWindowPolicy(), profile=True))
        prof = result.profile
        assert prof is not None
        assert prof["batched_lanes"] > 0
        assert prof["dirty_mask_hits"] >= 0
        assert prof["selection_calls"] >= 1
        scalar = _run(False, _spec(QuantaWindowPolicy(), profile=True))
        assert scalar.profile["batched_lanes"] == 0
        assert scalar.profile["dirty_mask_hits"] == 0

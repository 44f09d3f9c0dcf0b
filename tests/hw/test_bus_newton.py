"""Guarded-Newton root finder: the saturated equilibrium it finds.

The bus has one root finder, guarded Newton warm-started from the
previous equilibrium. These properties pin *what* it converges to: the
root of ``throughput(lam) == capacity``, checked against a plain
bisection written here, independently of the solver's own code. The
module also covers the warm-start counters and the removal of the old
``solver_mode`` option.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BusConfig
from repro.hw.bus import BusModel

_rates = st.floats(min_value=0.0, max_value=60.0, allow_nan=False, allow_infinity=False)
_request_lists = st.lists(_rates, min_size=1, max_size=10)


def _throughput(bus: BusModel, rates: list[float], lam: float) -> float:
    """Aggregate actual rate if every thread saw base latency ``lam``."""
    total = 0.0
    for r in rates:
        total += r * bus.speed_at_latency(bus.request_for_rate(r), lam)
    return total


def _arbitration_latency(bus: BusModel, rates: list[float]) -> float:
    offered = 0.0
    for r in rates:  # left to right, like the solver (not sum())
        offered += r
    return bus.contention_latency(offered / bus.capacity)


def _bisect_latency(bus: BusModel, rates: list[float]) -> tuple[float, int]:
    """Reference equilibrium latency by bisection (and its evaluations).

    Below saturation the latency is the arbitration latency ``lam_c``;
    above it, the root of ``throughput(lam) == capacity``, bracketed by
    doubling from ``lam_c`` and bisected down to ``fixed_point_tol·lam0``.
    """
    cap = bus.capacity
    lam_c = _arbitration_latency(bus, rates)
    if _throughput(bus, rates, lam_c) <= cap:
        return lam_c, 0
    steps = 0
    lo, hi = lam_c, 2.0 * lam_c
    while _throughput(bus, rates, hi) >= cap:
        steps += 1
        lo, hi = hi, 2.0 * hi
    while hi - lo >= bus.config.fixed_point_tol * bus.lam0:
        steps += 1
        mid = 0.5 * (lo + hi)
        if _throughput(bus, rates, mid) > cap:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), steps


def _assert_is_equilibrium(bus: BusModel, rates: list[float], sol) -> None:
    ref, _ = _bisect_latency(bus, rates)
    tol = bus.config.fixed_point_tol * bus.lam0
    assert sol.latency_us == pytest.approx(ref, abs=2 * tol, rel=1e-6)
    if sol.saturated:
        # The defining property of the saturated root.
        assert sol.total_txus == pytest.approx(bus.capacity, rel=1e-6)
        assert _throughput(bus, rates, sol.latency_us) == pytest.approx(
            bus.capacity, rel=1e-6
        )


class TestSolverModeConfig:
    def test_unknown_mode_rejected(self):
        # The option is gone: any solver_mode is an unknown keyword.
        with pytest.raises(TypeError):
            BusConfig(solver_mode="brent")


@given(_request_lists)
@settings(max_examples=300, deadline=None)
def test_newton_equilibrium_matches_bisect_within_tolerance(rates):
    bus = BusModel(BusConfig())
    sol = bus.solve([bus.request_for_rate(r) for r in rates])
    ref, _ = _bisect_latency(bus, rates)
    assert sol.saturated == (
        _throughput(bus, rates, _arbitration_latency(bus, rates)) > bus.capacity
    )
    _assert_is_equilibrium(bus, rates, sol)
    for r, grant in zip(rates, sol.grants):
        want = bus.speed_at_latency(bus.request_for_rate(r), ref)
        assert grant.speed == pytest.approx(want, rel=1e-6, abs=1e-9)


@given(st.lists(_request_lists, min_size=2, max_size=6))
@settings(max_examples=100, deadline=None)
def test_newton_agrees_across_drifting_sequences(rate_lists):
    # Warm starts carry state between solves; agreement must survive a
    # whole *sequence* of solves, not just a single cold call.
    bus = BusModel(BusConfig())
    for rates in rate_lists:
        sol = bus.solve([bus.request_for_rate(r) for r in rates])
        _assert_is_equilibrium(bus, rates, sol)


@given(_request_lists)
@settings(max_examples=150, deadline=None)
def test_newton_conservation_and_speed_bounds(rates):
    bus = BusModel(BusConfig())
    sol = bus.solve([bus.request_for_rate(r) for r in rates])
    assert sol.total_txus <= bus.capacity * (1 + 1e-9)
    for grant in sol.grants:
        assert 0.0 < grant.speed <= 1.0 + 1e-9


class TestWarmStart:
    def _saturating_rates(self, n=6, base=30.0):
        return [base + i for i in range(n)]

    def test_warm_start_engages_on_drift(self):
        newton = BusModel(BusConfig(solve_cache_size=0))
        for shift in range(12):
            rates = [r + 0.01 * shift for r in self._saturating_rates()]
            newton.solve([newton.request_for_rate(r) for r in rates])
        # Every saturated solve after the first can seed from the last root.
        assert newton.warm_starts >= 10

    def test_newton_uses_fewer_evaluations_than_bisect(self):
        newton = BusModel(BusConfig(solve_cache_size=0))
        bisect_steps = 0
        for shift in range(25):
            rates = [r + 0.02 * shift for r in self._saturating_rates()]
            bisect_steps += _bisect_latency(newton, rates)[1]
            newton.solve([newton.request_for_rate(r) for r in rates])
        assert bisect_steps > 0
        # >= 25% fewer throughput evaluations than cold bisection.
        assert newton.bisection_steps <= 0.75 * bisect_steps


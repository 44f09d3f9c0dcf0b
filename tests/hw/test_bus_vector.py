"""Batched bus kernel: bit-identity with the scalar loop, lane plumbing.

A bus model evaluates lanes with numpy kernels from
:data:`_VECTOR_MIN_LANES` requests on, and with the scalar loop below
that. The choice is a pure cost decision, so the contract is
*bit-identity*: every elementwise numpy op rounds exactly like the scalar
float op, and the reductions are strict left-to-right ``cumsum`` folds —
so equality below is ``==``, never ``approx``. Each test builds the two
sides with :func:`tests.pipeline.forced`, which pins a model's kernel
whatever the lane count. The module also covers the ``batched_lanes``
counter, the narrow-solve scalar path and the ``speeds_arr`` /
``actuals_arr`` plumbing used by the machine's batched pipeline.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BusConfig
from repro.hw.bus import _VECTOR_MIN_LANES, BusModel
from tests.hw.test_bus_newton import _assert_is_equilibrium
from tests.pipeline import forced

_rates = st.floats(min_value=0.0, max_value=60.0, allow_nan=False, allow_infinity=False)
_request_lists = st.lists(_rates, min_size=1, max_size=10)
_wide_request_lists = st.lists(
    _rates, min_size=_VECTOR_MIN_LANES, max_size=_VECTOR_MIN_LANES + 16
)


def _model(batched: bool, **kwargs) -> BusModel:
    with forced(batched):
        return BusModel(BusConfig(**kwargs))


def _pair(**kwargs) -> tuple[BusModel, BusModel]:
    """(scalar, batched) models on the same config."""
    return _model(False, **kwargs), _model(True, **kwargs)


def _solve(bus: BusModel, rates):
    return bus.solve([bus.request_for_rate(r) for r in rates])


def _assert_bit_identical(sol_s, sol_b) -> None:
    # Full structural equality — saturation flag, latency, utilisation,
    # totals and every grant — at the last ulp, not to tolerance.
    assert sol_b == sol_s
    assert sol_b.latency_us == sol_s.latency_us
    assert sol_b.total_txus == sol_s.total_txus
    for gs, gb in zip(sol_s.grants, sol_b.grants):
        assert gb.speed == gs.speed
        assert gb.actual_txus == gs.actual_txus


class TestSolverModeConfig:
    def test_vector_counter_starts_at_zero(self):
        assert _model(True).batched_lanes == 0


@given(_request_lists)
@settings(max_examples=300, deadline=None)
def test_vector_solution_is_bit_identical_to_newton(rates):
    scalar, batched = _pair()
    _assert_bit_identical(_solve(scalar, rates), _solve(batched, rates))


@given(_wide_request_lists)
@settings(max_examples=50, deadline=None)
def test_wide_default_solve_is_bit_identical_to_scalar(rates):
    # At and above the crossover an unforced model takes the batched
    # kernel by itself.
    default = BusModel(BusConfig())
    scalar = _model(False)
    _assert_bit_identical(_solve(scalar, rates), _solve(default, rates))
    assert default.batched_lanes == len(rates)
    assert scalar.batched_lanes == 0


@given(st.lists(_request_lists, min_size=2, max_size=6))
@settings(max_examples=100, deadline=None)
def test_vector_bit_identical_across_drifting_sequences(rate_lists):
    # Both kernels share the warm-start slot; identity must hold through
    # a whole solve *sequence*, where each root seeds the next.
    scalar, batched = _pair(solve_cache_size=0)
    for rates in rate_lists:
        assert _solve(batched, rates) == _solve(scalar, rates)


@given(_request_lists)
@settings(max_examples=150, deadline=None)
def test_vector_equilibrium_matches_bisect_within_tolerance(rates):
    # The batched kernel's root is the equilibrium the independent
    # bisection of test_bus_newton.py finds, to solver tolerance.
    batched = _model(True)
    _assert_is_equilibrium(batched, rates, _solve(batched, rates))


class TestBatchedLanesCounter:
    def test_wide_solve_counts_every_lane(self):
        batched = _model(True, solve_cache_size=0)
        rates = [30.0 + i for i in range(6)]
        _solve(batched, rates)
        assert batched.batched_lanes == 6
        _solve(batched, [r + 0.5 for r in rates])
        assert batched.batched_lanes == 12

    def test_narrow_solve_falls_back_to_scalar(self):
        bus = BusModel(BusConfig(solve_cache_size=0))
        _solve(bus, [30.0 + i for i in range(_VECTOR_MIN_LANES - 1)])
        assert bus.batched_lanes == 0

    def test_scalar_modes_never_batch(self):
        scalar = _model(False, solve_cache_size=0)
        _solve(scalar, [30.0 + i for i in range(2 * _VECTOR_MIN_LANES)])
        assert scalar.batched_lanes == 0

    @given(st.lists(_rates, min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_narrow_fallback_is_bit_identical_too(self, rates):
        # A default model below the crossover takes the scalar loop and
        # matches a forced-batched model bit for bit.
        default = BusModel(BusConfig(solve_cache_size=0))
        batched = _model(True, solve_cache_size=0)
        assert _solve(default, rates) == _solve(batched, rates)
        assert default.batched_lanes == 0


class TestLaneArrays:
    """``speeds_arr``/``actuals_arr``: the machine's batched-settle feed."""

    def test_wide_vector_solve_exposes_arrays_matching_grants(self):
        batched = _model(True, solve_cache_size=0)
        sol = _solve(batched, [28.0, 31.0, 34.0, 37.0, 40.0])
        assert sol.speeds_arr is not None and sol.actuals_arr is not None
        # Same bits, request order — the machine folds these straight
        # into its lane arrays without touching the grant tuples.
        assert sol.speeds_arr.tolist() == [g.speed for g in sol.grants]
        assert sol.actuals_arr.tolist() == [g.actual_txus for g in sol.grants]

    def test_scalar_solve_has_no_arrays(self):
        sol = _solve(_model(False, solve_cache_size=0), (30.0, 35.0, 40.0, 45.0))
        assert sol.speeds_arr is None and sol.actuals_arr is None

    def test_reordered_memo_replay_drops_arrays(self):
        # A permuted replay reorders the grant tuple; the stored arrays
        # would still be in first-solve order, so they must not survive.
        batched = _model(True)
        rates = [28.0, 31.0, 34.0, 37.0]
        first = _solve(batched, rates)
        assert first.speeds_arr is not None
        replay = _solve(batched, list(reversed(rates)))
        assert batched.cache_hits >= 1
        assert replay.speeds_arr is None and replay.actuals_arr is None
        assert replay.grants == tuple(reversed(first.grants))

    def test_arrays_do_not_affect_solution_equality(self):
        scalar, batched = _pair(solve_cache_size=0)
        rates = [28.0, 31.0, 34.0, 37.0]
        assert _solve(batched, rates) == _solve(scalar, rates)  # arrays or not

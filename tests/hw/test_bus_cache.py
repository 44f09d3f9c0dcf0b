"""Unit tests for the bus-solve memo cache (hit/miss accounting, eviction,
permutation hits, cached-vs-uncached identity, and equivalence with the
former memo keyed on rounded requests)."""

from collections import OrderedDict
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BusConfig
from repro.hw.bus import BusModel, BusRequest
from tests.pipeline import forced


@pytest.fixture
def bus() -> BusModel:
    return BusModel(BusConfig())


def _requests(bus: BusModel, rates: list[float]) -> list[BusRequest]:
    return [bus.request_for_rate(r) for r in rates]


class TestAccounting:
    def test_first_solve_is_a_miss(self, bus):
        bus.solve(_requests(bus, [3.0, 7.0]))
        assert bus.solve_calls == 1
        assert bus.cache_hits == 0
        assert bus.cache_len == 1

    def test_repeat_solve_is_a_hit(self, bus):
        reqs = _requests(bus, [3.0, 7.0])
        first = bus.solve(reqs)
        second = bus.solve(reqs)
        assert bus.solve_calls == 2
        assert bus.cache_hits == 1
        assert bus.cache_len == 1
        assert second == first

    def test_distinct_request_sets_all_miss(self, bus):
        for rates in ([1.0], [2.0], [1.0, 2.0]):
            bus.solve(_requests(bus, rates))
        assert bus.solve_calls == 3
        assert bus.cache_hits == 0
        assert bus.cache_len == 3

    def test_empty_solve_not_cached(self, bus):
        bus.solve([])
        bus.solve([])
        assert bus.solve_calls == 2
        assert bus.cache_hits == 0
        assert bus.cache_len == 0

    def test_cache_hit_skips_bisection(self, bus):
        reqs = _requests(bus, [10.0, 15.0, 20.0])
        bus.solve(reqs)
        steps_after_miss = bus.bisection_steps
        assert steps_after_miss > 0
        bus.solve(reqs)
        assert bus.bisection_steps == steps_after_miss


class TestPermutation:
    def test_permuted_requests_hit_and_grants_follow_caller_order(self, bus):
        rates = [2.0, 9.0, 17.0]
        forward = bus.solve(_requests(bus, rates))
        backward = bus.solve(_requests(bus, rates[::-1]))
        assert bus.cache_hits == 1
        assert backward.total_txus == forward.total_txus
        assert backward.latency_us == forward.latency_us
        assert list(backward.grants) == list(forward.grants)[::-1]

    def test_same_order_hit_returns_equal_solution(self, bus):
        reqs = _requests(bus, [2.0, 9.0, 17.0])
        assert bus.solve(reqs) == bus.solve(reqs)


class TestEviction:
    def test_eviction_at_capacity(self):
        bus = BusModel(BusConfig(solve_cache_size=2))
        bus.solve(_requests(bus, [1.0]))
        bus.solve(_requests(bus, [2.0]))
        bus.solve(_requests(bus, [3.0]))  # evicts [1.0] (LRU)
        assert bus.cache_len == 2
        bus.solve(_requests(bus, [1.0]))  # miss: was evicted
        assert bus.cache_hits == 0
        bus.solve(_requests(bus, [3.0]))  # still resident? no — [1.0] evicted [2.0]
        assert bus.cache_hits == 1

    def test_hit_refreshes_lru_position(self):
        bus = BusModel(BusConfig(solve_cache_size=2))
        bus.solve(_requests(bus, [1.0]))
        bus.solve(_requests(bus, [2.0]))
        bus.solve(_requests(bus, [1.0]))  # hit: [1.0] becomes most-recent
        bus.solve(_requests(bus, [3.0]))  # evicts [2.0], not [1.0]
        bus.solve(_requests(bus, [1.0]))
        assert bus.cache_hits == 2

    def test_cache_disabled(self):
        bus = BusModel(BusConfig(solve_cache_size=0))
        reqs = _requests(bus, [3.0, 7.0])
        first = bus.solve(reqs)
        second = bus.solve(reqs)
        assert bus.cache_hits == 0
        assert bus.cache_len == 0
        assert second == first


# A cached replay must be bitwise equal to an uncached solve of the
# same multiset.
_rate = st.floats(min_value=0.001, max_value=40.0).map(lambda r: round(r, 6))


class TestCachedEqualsUncached:
    @settings(max_examples=60, deadline=None)
    @given(rates=st.lists(_rate, min_size=1, max_size=6))
    def test_cached_solution_bitwise_equals_uncached(self, rates):
        # A replay returns the memoized solve, so it equals an uncached
        # solve from the same (cold) warm-start state bit for bit. A
        # model that re-solves instead warm-starts from its previous
        # root, which may move the last ulp: it agrees to tolerance.
        cached = BusModel(BusConfig())
        warm = BusModel(BusConfig(solve_cache_size=0))
        for _ in range(2):  # second round replays from the cache
            a = cached.solve(_requests(cached, rates))
            cold = BusModel(BusConfig(solve_cache_size=0))
            b = cold.solve(_requests(cold, rates))
            assert a.latency_us == b.latency_us
            assert a.total_txus == b.total_txus
            assert a.utilisation == b.utilisation
            assert a.grants == b.grants
            c = warm.solve(_requests(warm, rates))
            assert c.latency_us == pytest.approx(a.latency_us, rel=1e-9, abs=1e-12)
        assert cached.cache_hits == 1

    @settings(max_examples=30, deadline=None)
    @given(rates=st.lists(_rate, min_size=2, max_size=6), data=st.data())
    def test_permuted_replay_reorders_the_canonical_solution(self, rates, data):
        # A permuted hit replays the *canonical* (first-solved) solution
        # with grants reordered to the caller's request order: bitwise
        # equal to the first solve per rate, and within solver tolerance
        # of an independent solve of the permuted order (the root finder
        # sums floats in request order, so the last ulp may differ there).
        perm = data.draw(st.permutations(rates))
        cached = BusModel(BusConfig())
        uncached = BusModel(BusConfig(solve_cache_size=0))
        first = cached.solve(_requests(cached, rates))
        a = cached.solve(_requests(cached, perm))
        assert cached.cache_hits == 1
        assert a.latency_us == first.latency_us
        by_rate = dict(zip(rates, first.grants))
        assert list(a.grants) == [by_rate[r] for r in perm]
        b = uncached.solve(_requests(uncached, perm))
        assert a.latency_us == pytest.approx(b.latency_us, rel=1e-9, abs=1e-12)
        for ga, gb in zip(a.grants, b.grants):
            assert ga.speed == pytest.approx(gb.speed, rel=1e-9, abs=1e-12)


class _RoundedKeyLRU:
    """Reference: the solve memo keyed on requests rounded to 12 decimals.

    One LRU entry per sorted multiset, storing the request order of the
    miss; a hit in that order returns the stored solution, a hit in
    another order re-matches the grants by value. Misses are solved by an
    uncached model, whose warm start sees the same miss sequence as the
    memo under test, so its solutions must match bit for bit.
    """

    def __init__(self, size: int) -> None:
        self.solver = BusModel(BusConfig(solve_cache_size=0))
        self.size = size
        self.cache: OrderedDict = OrderedDict()
        self.hits = 0

    def solve(self, requests):
        key_seq = tuple(
            (round(q.rate_txus, 12), round(q.mem_fraction, 12)) for q in requests
        )
        key = tuple(sorted(key_seq))
        entry = self.cache.get(key)
        if entry is not None:
            self.hits += 1
            self.cache.move_to_end(key)
            stored_seq, solution, grant_map = entry
            if stored_seq == key_seq:
                return solution
            return replace(
                solution,
                grants=tuple(grant_map[q] for q in key_seq),
                speeds_arr=None,
                actuals_arr=None,
            )
        solution = self.solver.solve(requests)
        grant_map: dict = {}
        for q, grant in zip(key_seq, solution.grants):
            grant_map.setdefault(q, grant)
        self.cache[key] = (key_seq, solution, grant_map)
        if len(self.cache) > self.size:
            self.cache.popitem(last=False)
        return solution


# A small pool, so that repeats, reorderings and in-set duplicates occur;
# 0.0 is a zero-demand lane and 31.0 exceeds the streaming ceiling.
_pool_rate = st.sampled_from([0.0, 0.5, 3.0, 7.25, 11.8, 23.6, 31.0])


def _same_lane_array(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.tobytes() == b.tobytes()


class TestMatchesRoundedKeyLRU:
    @pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batched"])
    @settings(max_examples=80, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=8),
        calls=st.lists(st.lists(_pool_rate, min_size=1, max_size=5), min_size=1, max_size=40),
    )
    def test_every_call_matches_the_reference(self, batched, size, calls):
        with forced(batched):
            bus = BusModel(BusConfig(solve_cache_size=size))
            ref = _RoundedKeyLRU(size)
        for rates in calls:
            got = bus.solve(_requests(bus, rates))
            want = ref.solve(_requests(ref.solver, rates))
            assert got == want  # grants, latency, totals, regime
            assert _same_lane_array(got.speeds_arr, want.speeds_arr)
            assert _same_lane_array(got.actuals_arr, want.actuals_arr)
            assert bus.cache_hits == ref.hits
            assert bus.cache_len == len(ref.cache)
        assert bus.solve_calls == len(calls)


class TestRequestMemo:
    def test_request_for_rate_returns_same_object(self, bus):
        assert bus.request_for_rate(5.0) is bus.request_for_rate(5.0)

    def test_distinct_rates_distinct_requests(self, bus):
        assert bus.request_for_rate(5.0) is not bus.request_for_rate(6.0)

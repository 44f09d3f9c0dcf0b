"""The memoized single-pass ``account_run`` against a three-walk reference.

:meth:`repro.hw.cache.CacheL2.account_run` forms the occupancy and the
other threads' total in one pass over the residency dict and skips the
walk entirely for a converged thread whose inflow displaces nothing.
:class:`_ReferenceL2` below is the straightforward model it must equal:
one walk for the occupancy, one for the others' total, one more inside
the eviction, no memo. Its sums fold left to right from 0.0, as the
simulator defines them (the builtin ``sum()`` of floats is compensated
from CPython 3.12 on, so it is not the reference). Random sequences of
``account_run`` / ``forget`` / ``warmth`` over a few threads must leave
both with the same residency dict — same keys, same order, same bits —
and return the same warmth.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.hw.cache import CacheL2

TOTAL = CacheConfig().total_lines


def _fold(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


class _ReferenceL2:
    """The cache model with no memo and one dict walk per sum."""

    def __init__(self, total: float) -> None:
        self.total = float(total)
        self.res: dict[int, float] = {}

    def _others_total(self, tid: int) -> float:
        return _fold(v for k, v in self.res.items() if k != tid)

    def account_run(self, tid: int, footprint_lines: float, inflow_lines: float) -> None:
        if inflow_lines <= 0.0:
            return
        cap = min(float(footprint_lines), self.total)
        mine = self.res.get(tid, 0.0)
        grow = min(inflow_lines, max(0.0, cap - mine))
        free = max(0.0, self.total - _fold(self.res.values()))
        displacing = max(0.0, inflow_lines - free)
        lines = min(displacing, self._others_total(tid))
        if lines > 0.0:
            others = self._others_total(tid)
            if others > 0.0:
                frac = min(1.0, lines / others)
                for k in list(self.res):
                    if k == tid:
                        continue
                    kept = self.res[k] * (1.0 - frac)
                    if kept < 1.0:
                        del self.res[k]
                    else:
                        self.res[k] = kept
        if grow > 0.0:
            self.res[tid] = mine + grow

    def forget(self, tid: int) -> None:
        self.res.pop(tid, None)

    def warmth(self, tid: int, footprint_lines: float) -> float:
        cap = min(float(footprint_lines), self.total)
        if cap <= 0.0:
            return 1.0
        return min(1.0, self.res.get(tid, 0.0) / cap)


_tids = st.integers(min_value=1, max_value=4)
# Footprints below, at and above the capacity; inflows from none through
# a trickle to several full caches, so runs reach a full cache, converge
# and then repeat steady-state no-ops.
_footprints = st.sampled_from([0.0, 64.0, 1000.0, 2048.0, float(TOTAL), 3.0 * TOTAL])
_inflows = st.one_of(
    st.sampled_from([0.0, 0.5, 10.0, 500.0, float(TOTAL), 5.0 * TOTAL]),
    st.floats(min_value=0.0, max_value=4.0 * TOTAL, allow_nan=False),
)
_run = st.tuples(st.just("run"), _tids, _footprints, _inflows)
# Back-to-back calls of one thread drive the memo: a converged thread's
# no-op sets it, and a later, larger inflow must still evict.
_repeat = st.tuples(st.just("repeat"), _tids, _footprints,
                    st.lists(_inflows, min_size=2, max_size=6))
_forget = st.tuples(st.just("forget"), _tids)
_warmth = st.tuples(st.just("warmth"), _tids, _footprints)
_ops = st.lists(st.one_of(_run, _run, _repeat, _forget, _warmth), max_size=60)


@given(_ops)
@settings(max_examples=400, deadline=None)
def test_account_run_matches_three_walk_reference(ops):
    fast = CacheL2(CacheConfig())
    ref = _ReferenceL2(TOTAL)
    for op in ops:
        kind = op[0]
        if kind == "run":
            _, tid, fp, inflow = op
            fast.account_run(tid, fp, inflow)
            ref.account_run(tid, fp, inflow)
        elif kind == "repeat":
            _, tid, fp, inflows = op
            for inflow in inflows:
                fast.account_run(tid, fp, inflow)
                ref.account_run(tid, fp, inflow)
        elif kind == "forget":
            fast.forget(op[1])
            ref.forget(op[1])
        else:
            _, tid, fp = op
            assert fast.warmth(tid, fp) == ref.warmth(tid, fp)
        assert list(fast._resident.items()) == list(ref.res.items())
    assert fast.occupancy() <= TOTAL + 1e-6


def test_steady_state_no_op_keeps_the_memo():
    l2 = CacheL2(CacheConfig())
    l2.account_run(1, footprint_lines=TOTAL, inflow_lines=2.0 * TOTAL)  # fills it
    l2.account_run(1, footprint_lines=TOTAL, inflow_lines=100.0)  # converged no-op
    memo = l2._fast
    assert memo is not None and memo[0] == 1
    l2.account_run(1, footprint_lines=TOTAL, inflow_lines=100.0)
    assert l2._fast is memo  # answered from the memo, nothing recomputed
    assert l2.resident(1) == TOTAL
    l2.forget(2)
    assert l2._fast is None  # any mutation path clears it


def test_former_name_is_the_same_body():
    assert CacheL2.account_run_fast is CacheL2.account_run

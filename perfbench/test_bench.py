"""Fast tests of the census benchmark's own logic; no census is run.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bench_checks import check_census, check_stack_count, check_verify, records_digest  # noqa: E402
from bench_trace import Tracer, merge  # noqa: E402
from run import END_TO_END, PER_LAYER, WORKLOADS, scaled_seconds  # noqa: E402

from genus4census.census import CensusRecord  # noqa: E402


def _smooth(kind, p_rank, a_number, type43=None, aut=None):
    return CensusRecord(id=f"{kind};x", kind=kind, smooth=True, counts=(1, 2, 3, 4),
                        p_rank=p_rank, two_rank=p_rank, a_number=a_number, type43=type43,
                        aut=aut)


def test_digest_skips_open_cone_fields_only():
    same = records_digest([_smooth("cone", 2, None)])
    assert records_digest([_smooth("cone", 2, 1, type43=False)]) == same
    # 2-rank 0 cone records, and every other kind, keep a_number and type43
    assert records_digest([_smooth("cone", 0, 2)]) != records_digest([_smooth("cone", 0, 1)])
    assert records_digest([_smooth("ns", 2, 1)]) != records_digest([_smooth("ns", 2, None)])
    # the lazy aut orders never count
    assert records_digest([_smooth("ns", 2, 1, aut=4)]) == records_digest([_smooth("ns", 2, 1)])
    # order and count of records do
    a, b = _smooth("ns", 1, 1), _smooth("hyp", 1, 1)
    assert records_digest([a, b]) != records_digest([b, a])
    assert records_digest([a]) != records_digest([a, a])


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # outer [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 6]
    t = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    with t.span("outer", keep=True):
        with t.span("a"):
            with t.span("g"):
                pass
        with t.span("b"):
            pass
    assert t.total == {"outer": 10, "a": 3, "g": 1, "b": 1}
    assert t.self_time == {"outer": 6, "a": 2, "g": 1, "b": 1}
    assert t.spans == [{"id": 1, "parent": None, "name": "outer", "start": 0, "end": 10}]


def test_recursive_wrapped_calls_count_once():
    t = Tracer(clock=FakeClock(range(100)))

    def fact(n):
        return 1 if n <= 1 else n * traced(n - 1)

    traced = t.wrap(fact, "fact", observe=lambda tr, args, res: tr.counters.update(seen=1))
    assert traced(4) == 24
    assert t.calls["fact"] == 1 and t.total["fact"] == 1 and t.counters["seen"] == 1


def test_merge_sums_counts_and_unions_distinct():
    t1, t2 = Tracer(clock=FakeClock(range(10))), Tracer(clock=FakeClock(range(10)))
    for t, key in ((t1, (1, 2)), (t2, (1, 2)), (t2, (3, 4))):
        with t.span("x"):
            t.distinct["k"].add(key)
    agg = merge([t1.summary(), t2.summary()])
    assert agg["calls"]["x"] == 3 and agg["total"]["x"] == 3
    assert len(agg["distinct"]["k"]) == 2


def test_scaled_seconds_divides_out_machine_speed():
    # the same step, once at the reference speed and once on a machine half
    # as fast (its calibration also took twice as long)
    same = [{"seconds": 1.0, "scale": 1.0}, {"seconds": 2.0, "scale": 0.5}]
    assert scaled_seconds(same) == 1.0
    # a step that is slower while the calibration is not reads slower
    assert scaled_seconds([{"seconds": 1.5, "scale": 1.0}, {"seconds": 2.0, "scale": 0.5}]) > 1.0


VERIFY_OK = ("PASS: no smooth ns model meets the [4,3] criterion\n"
             "PASS: every smooth 2-rank-0 hyperelliptic model has EO type [4,2]\n"
             "PASS: no smooth model has a-number >= 3\n"
             "PASS: 15 distinct supersingular Weil polynomials observed (bound 65)\n")
STACK = {"members": 264, "iso_reps": 2, "stack_count": "1"}


def _stack_out(**change):
    out = {"members": 264, "iso_reps": ["hyp;h=0x01;f=0x280", "ns;c=0x07b8"],
           "jacobian_auts": [2, 2], "stack_count": "1"}
    out.update(change)
    return {"exit": 0, "stdout": json.dumps(out)}


def test_query_checks_pass_on_expected_output():
    assert check_verify({"exit": 0, "stdout": VERIFY_OK}, {"supersingular": 15}) == []
    assert check_stack_count(_stack_out(), STACK) == []


def test_wrong_stack_count_fails():
    assert check_stack_count(_stack_out(stack_count="3/2"), STACK)
    assert check_stack_count(_stack_out(members=263), STACK)
    assert check_stack_count(_stack_out(iso_reps=["hyp;h=0x01;f=0x280"]), STACK)
    assert check_stack_count({"exit": 1, "stdout": ""}, STACK)


def test_missing_pass_line_fails():
    lines = VERIFY_OK.splitlines()
    assert check_verify({"exit": 0, "stdout": "\n".join(lines[1:])}, {"supersingular": 15})
    failing = VERIFY_OK.replace("PASS: no smooth model", "FAIL: no smooth model")
    assert check_verify({"exit": 1, "stdout": failing}, {"supersingular": 15})
    assert check_verify({"exit": 0, "stdout": VERIFY_OK}, {"supersingular": 14})


def test_census_check_compares_digest_and_count():
    want = {"records": 2, "digest": "ab"}
    assert check_census({"exit": 0, "records": 2, "digest": "ab"}, want) == []
    assert check_census({"exit": 0, "records": 2, "digest": "ac"}, want)
    assert check_census({"exit": 0, "records": 3, "digest": "ab"}, want)
    assert check_census({"exit": 1, "error": "RuntimeError: boom"}, want)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    with open(os.path.join(HERE, "reference.json")) as fh:
        assert set(json.load(fh)) == set(WORKLOADS)

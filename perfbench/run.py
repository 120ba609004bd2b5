"""Census benchmark: the genus4census user session, timed end to end.

    python3 perfbench/run.py --workload census-hyp --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

A closed loop with one client: it runs the steps of a session
(census, verify, stack-count) one after another, each step in a fresh Python
process (bench_step.py), so every step pays the cold start a command-line
user pays.  Timed sessions census a fixed 1/16 sample of the curve ids and
repeat while the next one still ends within --seconds (at least one runs).
The input is fixed, so nothing is drawn at random; --seed is recorded only.

With --trace 0 the last stdout line carries the end-to-end metrics: step
and setup times scaled to the reference speed by a calibration job timed in
the same processes (bench_step.calibrate_on).  With --trace 1 it carries
the per-layer metrics of one traced session over the whole model space,
with the census run in one process.  Progress, run
metadata and failed checks go to stderr; samples, metadata and the raw
operation/chunk spans go to .perfbench_out/ in the checkout.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from bench_checks import CHECKS  # noqa: E402
from bench_trace import Tracer, merge  # noqa: E402

STEP = os.path.join(HERE, "bench_step.py")
STEPS = ("census", "verify", "stack-count")
PROBES = 5  # extra import-only processes per run, for the setup_s median
OVERHEAD_PAIRS = 2
# The calibration job's wall time (bench_step.calibrate_on) at the reference
# speed, by the number of processes it runs in at once.  The reference
# machine's speed moves by up to 2x within seconds and by 10-15% over
# minutes, with no steal time reported; each step's times are scaled by the
# calibrations timed right before and after it, in its process, against
# this reference time.
CALIBRATION_REF_S = {1: 0.15, 2: 0.18}
DEADLINE_S = 170.0
# a fixed string-hash seed removes one source of run-to-run variation
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")

WORKLOADS = {
    # hyp census at 1 worker, then the class-h queries on that file
    "census-hyp": {"kinds": "hyp", "workers": 1, "weil": "16,16,8,0,-4,0,2,2,1"},
    # `genus4census census --kind all --workers 2`, verify, stack-count of the
    # mixed class (192 hyp + 72 ns members in the full census)
    "session-all-w2": {"kinds": "all", "workers": 2, "weil": "16,16,8,4,4,2,2,2,1"},
}
# Timed sessions census a fixed 1/SAMPLE of the ids.  A full-census session
# takes 25-60 s here and one run has room for a single one, whose time moves
# by 20-30% from run to run on a shared machine; many short sessions per run
# give a steady median.  The traced run censuses the whole model space.
SAMPLE = 16

END_TO_END = (("census_s", "s"), ("verify_s", "s"), ("stack_count_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _total(name):
    return lambda a: a["total"].get(name, 0.0)


def _self(name):
    return lambda a: a["self"].get(name, 0.0)


def _calls(name):
    return lambda a: a["calls"].get(name, 0)


def _counter(name):
    return lambda a: a["counters"].get(name, 0)


def _per_call(counter, name):
    def value(a):
        calls = a["calls"].get(name, 0)
        return a["counters"].get(counter, 0) / calls if calls else 0
    return value


def _distinct(name):
    return lambda a: len(a["distinct"].get(name, ()))


def _job_max(a):
    return max((s["end"] - s["start"] for s in a["spans"] if s["name"] == "census.job"), default=0.0)


# (metric, unit, value from the merged trace); the comment after each group
# names the end-to-end metric it should move, and on which workload
PER_LAYER = (
    ("census.quadric_scan_s", "s", _total("census.quadric_scan")),
    ("census.quadric_scan_calls", "count", _calls("census.quadric_scan")),
    # -> census_s on session-all-w2
    ("census.hyp_counts_s", "s", _total("census.hyp_counts")),
    ("census.hyp_smooth_s", "s", _total("census.hyp_smooth")),
    ("census.hyp_smooth_calls", "count", _calls("census.hyp_smooth")),
    # -> census_s on census-hyp
    ("census.record_build_self_s", "s", _self("census.record_build")),
    ("census.record_build_calls", "count", _calls("census.record_build")),
    ("census.write_s", "s", _total("census.write")),
    ("census.write_bytes", "bytes", _counter("census.write_bytes")),
    # -> census_s on both workloads
    ("census.read_s", "s", _total("census.read")),
    ("census.read_calls", "count", _calls("census.read")),
    ("census.read_records", "count", _per_call("census.read_records", "census.read")),
    # -> verify_s and stack_count_s
    ("census.iso_canonical_s", "s", _total("census.iso_canonical")),
    ("census.iso_canonical_calls", "count", _calls("census.iso_canonical")),
    ("census.aut_order_s", "s", _total("census.aut_order")),
    ("census.aut_order_calls", "count", _calls("census.aut_order")),
    # -> stack_count_s
    ("census.verify_propositions_s", "s", _total("census.verify_propositions")),
    # -> verify_s
    ("census.jobs", "count", _calls("census.job")),
    ("census.job_s_max", "s", _job_max),
    ("census.job_s_sum", "s", _total("census.job")),
    ("census.result_pickle_bytes", "bytes", _counter("census.result_pickle_bytes")),
    ("census.result_pickle_s", "s", _counter("census.result_pickle_s")),
    # -> census_s on session-all-w2 (the 2-worker job split, run in-process)
    ("curves.smooth_f2_s", "s", _total("curves.smooth_f2")),
    ("curves.smooth_f2_calls", "count", _calls("curves.smooth_f2")),
    ("curves.smooth_f2_yield", "ratio", _per_call("curves.smooth_f2_smooth", "curves.smooth_f2")),
    # -> census_s on session-all-w2
    ("curves.hyp_transform_s", "s", _total("curves.hyp_transform")),
    ("curves.hyp_transform_calls", "count", _calls("curves.hyp_transform")),
    ("curves.quadric_transform_s", "s", _total("curves.quadric_transform")),
    ("curves.quadric_transform_calls", "count", _calls("curves.quadric_transform")),
    ("curves.stabilizer_s", "s", _total("curves.stabilizer")),
    # -> stack_count_s
    ("elimination.common_zero_f2_s", "s", _total("elimination.common_zero_f2")),
    ("elimination.common_zero_f2_calls", "count", _calls("elimination.common_zero_f2")),
    ("cartier.ns_s", "s", _total("cartier.ns")),
    ("cartier.ns_calls", "count", _calls("cartier.ns")),
    # -> census_s on session-all-w2
    ("cartier.hyp_s", "s", _total("cartier.hyp")),
    ("cartier.hyp_calls", "count", _calls("cartier.hyp")),
    ("cartier.hyp_distinct", "count", _distinct("cartier.hyp")),
    # -> census_s on census-hyp
    ("zeta.weil_s", "s", _total("zeta.weil")),
    ("zeta.predicted_s", "s", _total("zeta.predicted")),
    ("zeta.newton_s", "s", _total("zeta.newton")),
    ("zeta.stratum_s", "s", _total("zeta.stratum")),
    ("zeta.calls", "count", _calls("zeta.weil")),
    ("zeta.distinct_counts", "count", _distinct("zeta.counts")),
    # -> census_s, mostly on census-hyp
    ("dieudonne.eo_s", "s", _total("dieudonne.eo")),
    ("dieudonne.eo_calls", "count", _calls("dieudonne.eo")),
    # -> census_s on both workloads
    ("cli.self_s", "s", _self("cli.main")),
    # -> verify_s and stack_count_s
    ("trace.census_s", "s", lambda a: a["traced_census_s"]),
    ("trace.untraced_census_s", "s", lambda a: a["untraced_census_s"]),
    ("trace.overhead_share", "ratio", lambda a: a["traced_census_s"] / a["untraced_census_s"] - 1),
    ("trace.spans", "count", lambda a: sum(a["calls"].values())),
    ("trace.overhead_est_s", "s", lambda a: sum(a["calls"].values()) * a["span_cost_s"]),
    # the tracing overhead: the sample census in one process, traced against
    # untraced (medians of OVERHEAD_PAIRS each); and, for the traced session,
    # its span count times the calibrated cost of one span
)


class StepError(RuntimeError):
    pass


def run_child(argv, deadline: float) -> dict:
    """Run bench_step.py in a fresh process; its result plus setup seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, STEP, *argv], cwd=ROOT, text=True, env=CHILD_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise StepError(f"step {argv} ran past the run deadline") from None
    finally:
        if proc.poll() is None:  # deadline, SIGTERM or interrupt: stop the step and its pool
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise StepError(f"step {argv} exited {proc.returncode}:\n{err[-3000:]}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - t0
    res["scale"] = CALIBRATION_REF_S[res["calibration_workers"]] / statistics.mean(res["calibration"])
    return res


def scaled_seconds(results) -> float:
    """A step's wall time at the reference speed, over a run: its total wall
    time over the total of its calibrations, in reference units.  Speed that
    moves within a session averages out; speed that moves between sessions,
    or between runs, is divided out."""
    return sum(r["seconds"] for r in results) / sum(1 / r["scale"] for r in results)


def census_argv(wl: dict, sample: bool, in_process: bool) -> list[str]:
    argv = ["--step", "census", "--kinds", wl["kinds"], "--workers", str(wl["workers"])]
    if sample:
        argv += ["--sample", str(SAMPLE)]
    if in_process and wl["workers"] > 1:
        argv.append("--serial")
    return argv


def session(wl: dict, work: str, deadline: float, trace: bool) -> dict:
    records = os.path.join(work, "records.jsonl")
    flags = ["--records", records] + (["--trace"] if trace else [])
    out = {
        "census": run_child(census_argv(wl, sample=not trace, in_process=trace) + flags, deadline),
        "verify": run_child(["--step", "verify"] + flags, deadline),
        "stack-count": run_child(["--step", "stack-count", "--weil", wl["weil"]] + flags, deadline),
    }
    if os.path.exists(records):
        os.remove(records)
    return out


def steal_ticks():
    """Guest steal ticks of all CPUs so far, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def span_cost_s(n: int = 200_000) -> float:
    """Added seconds per traced call: a wrapped no-op against a bare one."""
    def noop():
        return None
    traced = Tracer().wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(n):
        traced()
    t1 = time.perf_counter()
    for _ in range(n):
        noop()
    t2 = time.perf_counter()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / n)


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def check_sessions(sessions, want: dict) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems = []
    for i, sess in enumerate(sessions):
        for step in STEPS:
            found = CHECKS[step](sess[step], want[step])
            attempted += 1
            failed += bool(found)
            problems += [f"session {i} {step}: {p}" for p in found]
    return attempted, failed, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, want: dict, work: str) -> dict:
    wl = WORKLOADS[name]
    deadline = time.perf_counter() + DEADLINE_S
    meta = {"workload": name, "seed": seed, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "git_rev": git_rev(), "steal_ticks_start": steal_ticks()}
    probes = [run_child(["--step", "probe"], deadline) for _ in range(PROBES)]
    meta["numpy"] = probes[0]["numpy"]
    setups = [p["setup_s"] * p["scale"] for p in probes]
    if trace:
        # the tracing overhead: the sample census in one process, untraced and
        # traced, alternating
        argv = census_argv(wl, sample=True, in_process=True) + ["--records", os.path.join(work, "o.jsonl")]
        overhead = {"untraced": [], "traced": []}
        for _ in range(OVERHEAD_PAIRS):
            for key, extra in (("untraced", []), ("traced", ["--trace"])):
                res = run_child(argv + extra, deadline)
                overhead[key].append(res["seconds"] * res["scale"])
        meta["overhead_samples"] = overhead
        sessions = [session(wl, work, deadline, trace=True)]
    else:
        # sessions run while the next one, at the mean session time so far,
        # still ends within --seconds; at least one runs
        sessions = []
        t_measure = time.perf_counter()
        while (not sessions or (time.perf_counter() - t_measure) * (len(sessions) + 1) / len(sessions)
               <= seconds):
            sessions.append(session(wl, work, deadline, trace=False))
    meta["steal_ticks"] = (None if meta["steal_ticks_start"] is None
                           else steal_ticks() - meta["steal_ticks_start"])
    want = want["full" if trace else "sample"]
    attempted, failed, problems = check_sessions(sessions, want)
    meta["records_sha256"] = sorted({s["census"].get("sha256", "") for s in sessions})
    meta["records_sha256_as_seed"] = meta["records_sha256"] == [want["census"]["file_sha256"]]

    if trace:
        agg = merge(s[step]["trace"] for s in sessions for step in STEPS)
        agg["spans"] = [sp for s in sessions for step in STEPS for sp in s[step]["spans"]]
        agg["traced_census_s"] = statistics.median(overhead["traced"])
        agg["untraced_census_s"] = statistics.median(overhead["untraced"])
        agg["span_cost_s"] = span_cost_s()
        metrics = {m: {"value": fn(agg), "unit": unit} for m, unit, fn in PER_LAYER}
    else:
        def scaled(step):
            return scaled_seconds([s[step] for s in sessions])
        setups += [s[step]["setup_s"] * s[step]["scale"] for s in sessions for step in STEPS]
        values = {"census_s": scaled("census"), "verify_s": scaled("verify"),
                  "stack_count_s": scaled("stack-count"), "setup_s": statistics.median(setups),
                  "peak_rss_mb": peak_rss_mb()}
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
        # for information: the unscaled mean wall times, and the median slowness
        # against the reference (above 1 is slower)
        meta["wall_s"] = {step: statistics.mean(s[step]["seconds"] for s in sessions) for step in STEPS}
        meta["slowness"] = statistics.median(1 / s[step]["scale"] for s in sessions for step in STEPS)

    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump({"meta": meta, "problems": problems, "setups": setups,
                   "sessions": sessions, "metrics": metrics}, fh, indent=1)
    for p in problems:
        print(f"FAILED CHECK {p}", file=sys.stderr)
    print(f"[{name}] " + " ".join(f"{k}={v}" for k, v in meta.items()), file=sys.stderr)
    print(f"[{name}] failed_share={failed / attempted:.4f} ({failed}/{attempted} checks), "
          f"{len(sessions)} session(s)", file=sys.stderr)
    for m, v in metrics.items():
        print(f"[{name}] {m} = {v['value']:.6g} {v['unit']}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description="genus4census census benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True, help="recorded only: the input is fixed")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", default=os.path.join(HERE, "reference.json"),
                   help="expected outputs, taken on the seed commit")
    args = p.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "genus4census", "census.py")):
        print(f"error: no genus4census sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(args.reference) as fh:
        reference = json.load(fh)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), reference[n], work)
                   for n in names]
    except StepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    for res in results:
        print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())

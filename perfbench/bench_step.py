"""One timed step of a census session, run in a fresh process.

    python3 perfbench/bench_step.py --step census --kinds all --workers 2 --sample 16 --records F
    python3 perfbench/bench_step.py --step verify --records F
    python3 perfbench/bench_step.py --step stack-count --records F --weil c0,...,c8
    python3 perfbench/bench_step.py --step probe

Prints one JSON object: the perf_counter reading once the package is
imported (``ready``), the step's wall time, its exit status and captured
output, and for the census step a digest of the returned records.  A fixed
calibration job is timed right before and right after the step
(``calibration``); run.py scales the step's times by it.  With
--trace the calls into each layer are wrapped and their aggregates
reported; --serial runs the census job split in this process instead of a
process pool.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import sys
import time
import zlib
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy  # noqa: E402

from bench_checks import records_digest  # noqa: E402
from bench_trace import Tracer, patched  # noqa: E402
from genus4census import census, cli, curves, elimination  # noqa: E402

READY = time.perf_counter()


CALIBRATION_CHUNKS, CALIBRATION_ROWS = 24, 500
CALIBRATION_JOBS = 3  # jobs per pool worker, as the census gives its pool one per kind and worker


def calibrate(chunks: int = CALIBRATION_CHUNKS) -> float:
    """Seconds for a fixed job of the kinds of work the census does: JSON
    lines written and parsed, dicts, small-integer arithmetic and a sort.
    It uses only the standard library, so no change to the program moves it;
    it measures how fast the machine runs at this moment.  It works in small
    chunks, so that it does not raise the process's peak RSS."""
    t0 = time.perf_counter()
    acc = 0
    for chunk in range(chunks):
        base = chunk * CALIBRATION_ROWS
        rows = [{"id": f"m{i:05x}", "counts": [i & 7, i % 13, (i * 2654435761) & 0xFFFF],
                 "note": str(i * 31)} for i in range(base, base + CALIBRATION_ROWS)]
        back = [json.loads(line) for line in "\n".join(json.dumps(r) for r in rows).splitlines()]
        back.sort(key=lambda r: r["note"])
        for r in back:
            for c in r["counts"]:
                acc ^= (c << 3) ^ (acc >> 1)
    return time.perf_counter() - t0


def calibrate_on(workers: int) -> float:
    """Wall seconds for the calibration job spread over `workers` processes, in
    a fresh process pool like the census's own, so that a parallel step is
    scaled by the speed of all the CPUs it uses.  Each worker gets the work of
    one calibration job, cut into CALIBRATION_JOBS jobs that the pool hands
    out as workers free up, as it does the census's jobs; so one slow CPU
    delays it as little as it delays the census."""
    if workers == 1:
        return calibrate()
    t0 = time.perf_counter()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        list(pool.map(calibrate, [CALIBRATION_CHUNKS // CALIBRATION_JOBS] * (CALIBRATION_JOBS * workers)))
    return time.perf_counter() - t0


class Sample:
    """id_filter keeping a fixed pseudo-random 1/n of the curve ids (by CRC-32)."""

    def __init__(self, n: int):
        self.n = n

    def __call__(self, cid: str) -> bool:
        return zlib.crc32(cid.encode()) % self.n == 0


class SerialExecutor:
    """In-process stand-in for ProcessPoolExecutor: the same jobs, one after another."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))


def _smooth_seen(t, args, res):
    if res.smooth:
        t.counters["curves.smooth_f2_smooth"] += 1


def _counts_seen(t, args, res):
    t.distinct["zeta.counts"].add(args[0])


def _h_seen(t, args, res):
    t.distinct["cartier.hyp"].add(args[0])


def _written(t, args, res):
    t.counters["census.write_bytes"] += os.path.getsize(args[0])


def _read(t, args, res):
    t.counters["census.read_records"] += len(res)


def pickle_results(tracer: Tracer, results) -> None:
    """Count what pool workers would send back, after the timed census."""
    t0 = time.perf_counter()
    tracer.counters["census.result_pickle_bytes"] += sum(len(pickle.dumps(r)) for r in results)
    tracer.counters["census.result_pickle_s"] += time.perf_counter() - t0


def layer_targets(tracer: Tracer, job_results):
    """(module, attribute, wrapper) for every traced call site; job results
    are collected into job_results unless it is None.

    Each program module binds the names it imports, so a function reached
    from two modules is wrapped in both under one span name.
    """
    kept = None if job_results is None else (lambda t, args, res: job_results.append(res))
    spec = [
        (census, "_census_job", "census.job", True, kept),
        (census, "_quadric_scan", "census.quadric_scan", False, None),
        (census, "_hyp_counts_vector", "census.hyp_counts", False, None),
        (census, "_hyp_smooth_masks", "census.hyp_smooth", False, None),
        (census, "_classified_record", "census.record_build", False, None),
        (census, "write_records", "census.write", False, _written),
        (census, "read_records", "census.read", False, _read),
        (census, "isomorphism_canonical_id", "census.iso_canonical", False, None),
        (census, "jacobian_aut_order", "census.aut_order", False, None),
        (census, "verify_propositions", "census.verify_propositions", False, None),
        (census, "_quadric_smooth_f2", "curves.smooth_f2", False, _smooth_seen),
        (census, "hyperelliptic_transformed", "curves.hyp_transform", False, None),
        (curves, "hyperelliptic_transformed", "curves.hyp_transform", False, None),
        (census, "apply_transform", "curves.quadric_transform", False, None),
        (curves, "apply_transform", "curves.quadric_transform", False, None),
        (census, "quadric_stabilizer_f2", "curves.stabilizer", False, None),
        (curves, "quadric_stabilizer_f2", "curves.stabilizer", False, None),
        (elimination, "exists_common_zero_f2", "elimination.common_zero_f2", False, None),
        (census, "_ns_cartier", "cartier.ns", False, None),
        (census, "_hyp_cartier", "cartier.hyp", False, _h_seen),
        (census, "weil_from_counts", "zeta.weil", False, _counts_seen),
        (census, "predicted_counts", "zeta.predicted", False, None),
        (census, "newton_polygon", "zeta.newton", False, None),
        (census, "classify_stratum", "zeta.stratum", False, None),
        (census, "eo_classify_curve", "dieudonne.eo", False, None),
        (cli, "main", "cli.main", True, None),
    ]
    return [(mod, attr, tracer.wrap(getattr(mod, attr), name, keep, observe))
            for mod, attr, name, keep, observe in spec]


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def run_step(args) -> dict:
    out = {"step": args.step, "exit": 0, "stdout": ""}
    if args.step == "census":
        kinds = census.KINDS if args.kinds == "all" else (args.kinds,)
        t0 = time.perf_counter()
        try:
            keep = Sample(args.sample) if args.sample > 1 else None
            records = census.run_census(kinds=kinds, workers=args.workers, id_filter=keep)
            census.write_records(args.records, records)
        except Exception as exc:  # reported as a failed check, not a crash
            out["seconds"] = time.perf_counter() - t0
            out.update(exit=1, error=f"{type(exc).__name__}: {exc}")
            return out
        out["seconds"] = time.perf_counter() - t0
        out["records"] = len(records)
        out["digest"] = records_digest(records)
        h = hashlib.sha256()
        with open(args.records, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out["sha256"] = h.hexdigest()
    elif args.step in ("verify", "stack-count"):
        argv = [args.step, "--records", args.records]
        if args.step == "stack-count":
            argv += ["--weil", args.weil]
        t0 = time.perf_counter()
        out["exit"], out["stdout"] = _cli(argv)
        out["seconds"] = time.perf_counter() - t0
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--step", required=True, choices=("census", "verify", "stack-count", "probe"))
    p.add_argument("--kinds", default="all", choices=("all", "hyp"))
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--sample", type=int, default=1, help="census of 1/n of the ids only")
    p.add_argument("--records")
    p.add_argument("--weil")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--serial", action="store_true")
    args = p.parse_args()

    tracer = Tracer()
    job_results = [] if args.workers > 1 else None
    targets = []
    if args.serial:
        targets.append((census, "ProcessPoolExecutor", SerialExecutor))
    if args.trace:
        targets += layer_targets(tracer, job_results)
    # the census pool runs `workers` processes at once; every other step one
    workers = args.workers if args.step == "census" and not args.serial else 1
    before = calibrate_on(workers)
    with patched(targets), tracer.span(f"step.{args.step}", keep=True):
        out = run_step(args)
    out["calibration"] = [before, calibrate_on(workers)]
    out["calibration_workers"] = workers
    if args.trace and job_results:
        pickle_results(tracer, job_results)
    out["ready"] = READY
    out["numpy"] = numpy.__version__
    if args.trace:
        out["trace"] = tracer.summary()
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one growthopt benchmark workload and print its metrics.

    python3 perfbench/run.py --threads 1 --workload optimal --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds informational fields (answers, versions, ungated path statistics).
With ``--trace 0`` the metrics are the end-to-end ones, measured with no
wrappers installed; their times are rescaled to a nominal machine speed by
the probe in ``speed.py``.  With ``--trace 1`` the run times the same
operations untraced and then traced, and reports the per-layer metrics; its
spans are written to ``.perfbench/spans-<workload>-seed<n>.jsonl.gz``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Tally:
    """Operations attempted and failed; a failed operation is one whose
    checks found at least one problem."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted


def measure(workload, seconds: float, tally: Tally, probes: list,
            first: int = 0, min_ops: int = 1):
    """Run operations while the next one is expected to end within
    ``seconds``, and at least ``min_ops`` of them.  A speed probe runs after
    every operation and is appended to ``probes``, whose last entry ran just
    before the first operation.  Returns the raw and the rescaled wall time
    of each operation and the path-steps done."""
    import speed

    walls, scaled, steps = [], [], 0
    start = time.perf_counter()
    i = first
    while True:
        done = i - first
        elapsed = time.perf_counter() - start
        # stop when one more operation at the pace so far would overrun
        if done >= max(min_ops, 1) and elapsed * (done + 1) / done > seconds:
            break
        t = time.perf_counter()
        try:
            result = workload.op(i)
        except Exception as exc:  # a crash is a failed operation
            traceback.print_exc()
            tally.record([f"operation {i} raised {exc!r}"])
            result = None
        wall = time.perf_counter() - t
        probes.append(speed.probe())
        if result is not None:
            walls.append(wall)
            scaled.append(speed.rescale(wall, probes[-2], probes[-1]))
            tally.record(workload.check(i, result))
            steps += workload.steps(result)
        i += 1
    return walls, scaled, steps


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(1, -(-len(ordered) * q // 100))
    return ordered[int(k) - 1]


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it is one."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(threads: int) -> dict:
    import numpy
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"src_lines": src_lines,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "threads_pinned": threads,
            "blas_threads": blas_threads()}


def run(args, tally: Tally, tmp: str) -> tuple[dict, dict]:
    import layers
    import speed
    import workloads
    from spans import Tracer

    import_s = time.perf_counter() - T0
    probes = [speed.probe()]
    wl = workloads.WORKLOADS[args.workload](tmp, args.seed)
    setup_walls, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        tally.record(wl.setup())
        setup_walls.append(time.perf_counter() - t)
        probes.append(speed.probe())
        setup_scaled.append(speed.rescale(setup_walls[-1], probes[-2],
                                          probes[-1]))
    import_scaled = speed.rescale(import_s, probes[0], probes[0])
    info = {"import_s": import_s, "setup_walls_s": setup_walls,
            "raw_setup_s": import_s + statistics.median(setup_walls)}

    if not args.trace:
        walls, scaled, steps = measure(wl, args.seconds, tally, probes,
                                       min_ops=wl.min_ops)
        metrics = {
            "setup_s": (import_scaled + statistics.median(setup_scaled), "s"),
            "wall_s": (statistics.median(scaled), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            * 1024 / 1e6, "MB"),
        }
        info.update(ops=len(walls), op_walls_s=walls,
                    raw_wall_s=statistics.median(walls),
                    path_steps_per_s=steps / sum(walls) if steps else None)
        if wl.latencies:
            info.update(path_samples=len(wl.latencies),
                        path_p50_ms=1e3 * percentile(wl.latencies, 50),
                        path_p98_ms=1e3 * percentile(wl.latencies, 98))
        info.update(probes_s=probes, answers=wl.summary())
        return metrics, info

    half = args.seconds / 2.0
    _, untraced, _ = measure(wl, half, tally, probes)
    tracer = Tracer()
    layers.install(tracer)
    try:
        tally.record(wl.setup())
        tracer.phase = "timed"
        probes.append(speed.probe())
        _, traced, _ = measure(wl, half, tally, probes, first=len(untraced))
    finally:
        tracer.uninstall()
    tally.record(wl.check_trace(tracer, len(traced)))
    overhead = statistics.median(traced) - statistics.median(untraced)
    values = layers.layer_metrics(tracer, len(traced), overhead)
    metrics = {name: (values[name], unit) for name, unit in layers.METRICS}
    spans_path = (ROOT / ".perfbench"
                  / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    tracer.write(str(spans_path))
    info.update(untraced_walls_s=untraced, traced_walls_s=traced,
                spans=len(tracer.spans),
                spans_file=str(spans_path.relative_to(ROOT)),
                answers=wl.summary())
    return metrics, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["optimal", "simulate", "paths", "ldcheck"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="BLAS/OpenMP threads, at most the usable cores")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    nproc = len(os.sched_getaffinity(0))
    if not 1 <= args.threads <= nproc:
        p.error(f"--threads must lie in [1, {nproc}]")
    if not (ROOT / "src" / "growthopt" / "__init__.py").is_file():
        print(f"error: no growthopt sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # pin the thread pools before numpy loads them
    for var in THREAD_VARS:
        os.environ[var] = str(args.threads)
    sys.path.insert(0, str(ROOT / "src"))

    tally = Tally()
    work_dir = ROOT / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_dir)
    try:
        # the program's own prints go to stderr; stdout carries the result
        with contextlib.redirect_stdout(sys.stderr):
            metrics, info = run(args, tally, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, fail_frac=tally.fail_frac,
                problems=tally.problems[:20], **environment(args.threads))
    for line in tally.problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

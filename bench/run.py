"""os2e benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/os2e`` next to ``bench/``).
Workloads are listed in ``BENCHMARK.json`` and described in
``bench/README.md``.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The line before it records the run's context and details.

``--write-reference`` recomputes ``bench/reference.json`` (the stored
multicrop scores and concept selections of seed 0) and exits.
"""

import time

PROCESS_START = time.perf_counter()

import os

# one BLAS thread: with two, the first BLAS call sometimes starts a thread
# pool for ~0.8 s and item times depend on the other core being idle
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import glob
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # items beyond the tail percentile

if not (SRC / "os2e" / "__init__.py").is_file():
    sys.exit(f"bench: no os2e sources at {SRC / 'os2e'}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from os2e import cli, datagen, io, network, pipeline, selection, stats, training  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - PROCESS_START
LAYERS = {
    "network": network,
    "training": training,
    "pipeline": pipeline,
    "io": io,
    "datagen": datagen,
    "stats": stats,
    "selection": selection,
    "cli": cli,
}


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "os2e").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_threads() -> int | None:
    import ctypes

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    try:
        get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.restype = ctypes.c_int
    return int(get())


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def context(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload_seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# timed loop
# ---------------------------------------------------------------------------


class Items:
    """Latencies, first summaries per pool item, and failures of one phase."""

    def __init__(self, tracer=None):
        self.tracer = tracer  # paused during output checks: they are harness time
        self.latencies: list[float] = []
        self.first: dict[int, object] = {}
        self.failed = 0
        self.wall = 0.0

    def add(self, workload, k: int) -> None:
        start = time.perf_counter()
        end = None
        try:
            out = workload.run(k)
            end = time.perf_counter()
            if self.tracer:
                self.tracer.active = False
            summary, problems = workload.check(k, out)
        except Exception:  # the item boundary: count it failed and go on
            end = end or time.perf_counter()
            summary, problems = None, [traceback.format_exc()]
        finally:
            if self.tracer:
                self.tracer.active = True
        self.latencies.append(end - start)
        if summary is not None:
            if k in self.first and self.first[k] != summary:
                problems.append("output differs from an earlier run on the same input")
            self.first.setdefault(k, summary)
        if problems:
            self.failed += 1
            print(f"bench: item {k} failed: {'; '.join(problems)}", file=sys.stderr)


def run_items(
    workload, seconds: float, whole_cycles: bool = False, count=None, tracer=None
) -> Items:
    """Run pool items in cycle order for ``seconds`` (or exactly ``count`` items)."""
    items = Items(tracer)
    n = len(workload.items)
    t0 = time.perf_counter()
    while True:
        i = len(items.latencies)
        items.add(workload, i % n)
        elapsed = time.perf_counter() - t0
        if count is not None:
            if i + 1 == count:
                break
        elif elapsed >= seconds and (not whole_cycles or (i + 1) % n == 0):
            break
    items.wall = elapsed
    return items


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND items beyond it: (value, percentile, beyond).

    With TAIL_BEYOND items or fewer no percentile has that many beyond it;
    the median stands in (percentile 50) rather than the noisy maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

_IO_NAMED = (
    "read_image", "write_image", "read_checkpoint_json", "write_checkpoint_json",
    "read_dataset_csv", "write_dataset_csv",
)
_CLI_STEPS = ("gen", "stats", "select", "train", "infer", "report")


def layer_metrics(agg: dict, items: int, overhead: float) -> dict:
    def field(name, key):
        return agg[name][key] if name in agg else 0

    def per_item(value):
        return value / items

    def self_s(*names):
        return per_item(sum(field(n, "self_ns") for n in names) / 1e9)

    def in_layer(layer):
        return [n for n in agg if n.split(".")[0] == layer]

    def iter_us(mode):
        span = agg.get(f"training.{mode}_transfer_train")
        if not span:
            return 0.0
        return float(np.median(span["durations_ns"] / span["counts"])) / 1e3

    forward_calls = field("network.forward", "calls")
    m = {
        "network.forward.calls": per_item(forward_calls),
        "network.forward.self_s": self_s("network.forward"),
        "network.forward.rows_per_call": (
            field("network.forward", "count") / forward_calls if forward_calls else 0.0
        ),
        "network.backward.calls": per_item(field("network.backward", "calls")),
        "network.backward.self_s": self_s("network.backward"),
        "network.loss.self_s": self_s("network.loss"),
        "network.sgd_momentum_step.self_s": self_s("network.sgd_momentum_step"),
    }
    for mode in ("init", "knowledge", "data"):
        m[f"training.iter_us.{mode}"] = iter_us(mode)
    m["training.evaluate.self_s"] = self_s("training.evaluate")
    for fn in ("resize_bilinear", "crop_extract", "ImageBuffer", "scorer"):
        m[f"pipeline.{fn}.calls"] = per_item(field(f"pipeline.{fn}", "calls"))
        m[f"pipeline.{fn}.self_s"] = self_s(f"pipeline.{fn}")
    m["pipeline.resize_bilinear.bytes_out"] = per_item(
        field("pipeline.resize_bilinear", "count")
    )
    m["pipeline.score_regions.self_s"] = self_s("pipeline.score_regions")
    m["pipeline.fuse.self_s"] = self_s("pipeline.fuse_streams", "pipeline.fuse_regions")
    for fn in _IO_NAMED:
        m[f"io.{fn}.self_s"] = self_s(f"io.{fn}")
    for fn in ("read_image", "write_image"):
        m[f"io.{fn}.bytes"] = per_item(field(f"io.{fn}", "count"))
    m["io.other.self_s"] = self_s(
        *(n for n in in_layer("io") if n.split(".", 1)[1] not in _IO_NAMED)
    )
    for direction, prefix in (("read", "io.read_"), ("written", "io.write_")):
        m[f"io.bytes_{direction}"] = per_item(
            sum(field(n, "count") for n in agg if n.startswith(prefix))
        )
    m["stats.estimate_conditional.self_s"] = self_s("stats.estimate_conditional")
    m["stats.bayes_posterior.self_s"] = self_s("stats.bayes_posterior")
    m["stats.conditional_entropy.calls"] = per_item(
        field("stats.conditional_entropy", "calls")
    )
    for fn in ("from_posterior", "greedy_select", "exhaustive_select"):
        m[f"selection.{fn}.self_s"] = self_s(f"selection.{fn}")
    m["selection.energy.calls"] = per_item(field("selection.energy", "calls"))
    for step in _CLI_STEPS:
        m[f"cli.{step}.s"] = per_item(field(f"cli.{step}", "wall_ns") / 1e9)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s(*in_layer(layer))
    m["harness.self_s"] = self_s("harness")
    m["trace.wall_s"] = per_item(field("harness", "wall_ns") / 1e9)
    m["trace.overhead_frac"] = overhead
    return m


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def declared_metrics(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def result_line(values: dict, kind: str, correct: bool, attempted: int, failed: int) -> str:
    units = declared_metrics(kind)
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json {kind}"
        )
    finite = {name: float(v) for name, v in values.items() if math.isfinite(v)}
    if len(finite) < len(values):  # only after a failure; keep the line valid JSON
        correct = False
    metrics = {name: {"value": finite.get(name, 0.0), "unit": units[name]} for name in units}
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def load_reference() -> dict:
    with open(BENCH_DIR / "reference.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_reference(work_dir: str) -> None:
    empty = {"multicrop": None, "concepts": None}
    reference = {
        name: WORKLOADS[name](0, empty, work_dir).reference_outputs()
        for name in ("multicrop", "concepts")
    }
    with open(BENCH_DIR / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh)
        fh.write("\n")


def set_up(args, work_dir: str):
    """Build the workload SETUP_REPEATS times, each with a checked warm-up item."""
    reference = load_reference()
    times, problems = [], []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None  # release the previous pool before building the next
        start = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, reference, work_dir)
        problems = workload.warm_up()
        times.append(time.perf_counter() - start)
        if problems:
            print(f"bench: warm-up failed: {'; '.join(problems)}", file=sys.stderr)
            break
    return workload, times, problems


def end_to_end(workload, args, setup_times, problems) -> tuple[dict, str]:
    items = run_items(workload, args.seconds)
    n, failed = len(items.latencies), items.failed
    rest = Items()  # untimed runs of pool items the timed loop missed, for test_map
    rest.first = items.first
    for k in range(len(workload.items)):
        if k not in items.first:
            rest.add(workload, k)
    tail_value, tail_pct, beyond = tail(items.latencies)
    values = {
        "setup_s": IMPORT_S + statistics.median(setup_times),
        "items_per_s": n / items.wall,
        "item_p50_ms": 1e3 * statistics.median(items.latencies),
        "item_tail_ms": 1e3 * tail_value,
        "ok_frac": (n - failed) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "test_map": workload.test_map(items.first),
    }
    detail = {"items": n, "tail_percentile": tail_pct, "items_beyond_tail": beyond}
    correct = not problems and failed == 0 and rest.failed == 0
    return detail, result_line(values, "end_to_end", correct, n, failed)


def per_layer(workload, args, problems) -> tuple[dict, str]:
    """Whole pool cycles untraced for half the time, then the same items traced."""
    plain = run_items(workload, args.seconds / 2, whole_cycles=True)
    n = len(plain.latencies)
    tracer = spans.Tracer()
    patches = spans.install(tracer, LAYERS)
    root = tracer.open("harness")
    try:
        spanned = run_items(workload, 0.0, count=n, tracer=tracer)
    finally:
        tracer.close(root)
        patches.restore()
    agg = tracer.aggregate()
    unattributed = agg["harness"]["wall_ns"] - sum(a["self_ns"] for a in agg.values())
    if any(plain.first[k] != spanned.first.get(k) for k in plain.first):
        problems = problems + ["traced outputs differ from untraced outputs"]
    if unattributed:
        problems = problems + [f"{unattributed} ns of traced time not attributed"]
    spans_path = OUT_DIR / f"spans-{args.workload}.npz"
    tracer.write(str(spans_path))
    overhead = sum(spanned.latencies) / sum(plain.latencies) - 1.0
    values = layer_metrics(agg, n, overhead)
    failed = plain.failed + spanned.failed
    detail = {"items": n, "spans": len(tracer.parent), "spans_file": str(spans_path.relative_to(ROOT))}
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    return detail, result_line(values, "per_layer", correct, 2 * n, failed)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        if args.write_reference:
            write_reference(work_dir)
            return 0
        workload, setup_times, problems = set_up(args, work_dir)
        if args.trace:
            detail, result = per_layer(workload, args, problems)
        else:
            detail, result = end_to_end(workload, args, setup_times, problems)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    detail = {
        "import_s": IMPORT_S,
        "setup_repeats_s": setup_times,
        "warm_up_ok": not problems,
        "pool_items": len(workload.items),
        **detail,
    }
    info = {"workload": args.workload, "trace": args.trace, "context": context(args.seed)}
    print(json.dumps({**info, "detail": detail}))
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""zxwkit benchmark: one closed-loop client drives the library in-process.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics: a fixed set of requests is
drawn from the seed, and whole passes over it run until the next one would
end after ``--seconds``.  Each request is timed, and so is a fixed
reference computation around it; the end-to-end metrics are request times in
units of the reference time.  ``--trace 1`` runs one pass, each request
once plain and once with every public zxwkit function wrapped in a span,
checks that both return bit-identical outputs, and reports per-layer self
times and counts; the spans go to ``perfbench/out/``.  ``--smoke`` runs two
small requests per workload in both modes, checks that every metric named in
BENCHMARK.json is emitted with a unit, and checks that a deliberately wrong
target counts as a failure.

Every output is checked against a dense reference at 1e-9.  The last line
of stdout is one JSON object; the exit code is 1 if any check failed and 2
if zxwkit cannot be imported from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread keeps each request on one core, so a run measures the
# library and not BLAS threading.  Set before numpy loads; set-up
# subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5   # fresh-process set-ups per run, spread over the run
TAIL_BEYOND = 10    # samples that must lie beyond a trustworthy percentile

E2E_UNITS = {"latency_p50_ref": "ref", "latency_p90_ref": "ref",
             "latency_mean_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s"}


def die(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_zxwkit():
    """Import zxwkit from this checkout's src/ and nowhere else."""
    if not (SRC / "zxwkit" / "__init__.py").is_file():
        die(f"no zxwkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import zxwkit
    if Path(zxwkit.__file__).resolve().parent != SRC / "zxwkit":
        die(f"zxwkit imported from {zxwkit.__file__}, not from {SRC}")
    return zxwkit


def generators(seed: int):
    """Independent streams for the measured requests and the warm-up."""
    import numpy as np
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(2)]


def run_one(wl, req):
    """Time one request; a request that raises yields its exception."""
    t0 = time.perf_counter()
    try:
        out = wl.run(req)
    except Exception as exc:  # a raising request is a failed request
        out = exc
    return time.perf_counter() - t0, out


def reference_s() -> float:
    """Time one fixed computation that does not call zxwkit.

    It does the two kinds of work zxwkit's requests do: dict, set and tuple
    churn, and a chain of small complex tensordots.  Timed next to a
    request, it slows down and speeds up with the machine as the request
    does.
    """
    import numpy as np
    t0 = time.perf_counter()
    table = {}
    for i in range(2000):
        table[(i % 97, i % 89)] = table.get((i % 89, i % 97), 0) + i
    keys = {tuple(sorted(k)) for k in table if k[0] < 60}
    had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    a = np.full((2, 2, 2), float(len(keys)), dtype=complex)
    for _ in range(150):
        a = np.tensordot(a, had, axes=([0], [0]))
    return time.perf_counter() - t0


def run_passes(wl, reqs, seconds: float, setup_marks, setup):
    """Closed loop over whole passes of ``reqs`` until the next pass would
    end after ``seconds``; at least one.

    ``reference_s()`` runs before the first request of a pass and after
    every request; a request's cost is its time over the mean of the two
    reference times around it.  Each output is checked outside the timed
    regions.  Between passes, ``setup()`` runs once for every mark in
    ``setup_marks`` the passes have reached, and once for each mark left at
    the end.  Returns (latencies, costs, reference times, failed count).
    """
    from workloads import TOL
    lat, cost, refs = [], [], []
    failed, elapsed, marks = 0, 0.0, list(setup_marks)
    while True:
        while marks and marks[0] <= elapsed:
            marks.pop(0)
            setup()
        t0 = time.perf_counter()
        refs.append(reference_s())
        for req in reqs:
            took, out = run_one(wl, req)
            refs.append(reference_s())
            lat.append(took)
            cost.append(2.0 * took / (refs[-2] + refs[-1]))
            failed += is_failure(wl, req, out, TOL)
        took = time.perf_counter() - t0
        elapsed += took
        if elapsed + took > seconds:
            break
    for _ in marks:
        setup()
    return lat, cost, refs, failed


def traced_pairs(wl, reqs, tracer):
    """Run each request plain and traced, alternating which goes first, so
    that slow spells of a shared machine hit both sides alike."""
    plain, traced = ([], []), ([], [])
    for i, req in enumerate(reqs):
        for side in ((plain, traced) if i % 2 == 0 else (traced, plain)):
            if side is traced:
                with tracer.recording(i):
                    lat, out = run_one(wl, req)
            else:
                lat, out = run_one(wl, req)
            side[0].append(lat)
            side[1].append(out)
    return plain + traced


def is_failure(wl, req, out, tol: float) -> bool:
    """Whether a request raised or missed its target."""
    return isinstance(out, Exception) or not wl.error(req, out) <= tol


def failures(wl, reqs, outs, tol: float) -> list:
    """Indices of requests that raised or missed their target."""
    return [i for i, (req, out) in enumerate(zip(reqs, outs))
            if is_failure(wl, req, out, tol)]


def tail_note(n: int) -> str:
    """Say how far the p90 can be trusted with ``n`` samples."""
    beyond = int(n * 0.1)
    if beyond >= TAIL_BEYOND:
        return f"p90 of {n} samples"
    best = next((q for q in (75, 50)
                 if int(n * (100 - q) / 100) >= TAIL_BEYOND), None)
    best = f"p{best}" if best else "none"
    return (f"p90 of {n} samples, {beyond} beyond it; highest percentile "
            f"with {TAIL_BEYOND} beyond: {best}")


def measure_setup(workload: str, seed: int) -> float:
    """Import plus one warm-up request, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-child",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        die(f"set-up run failed: {proc.stderr.strip()}", 1)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def setup_child(workload: str, seed: int) -> int:
    t0 = time.perf_counter()
    import_zxwkit()
    t1 = time.perf_counter()
    from workloads import TOL, WORKLOADS
    wl = WORKLOADS[workload]
    req = wl.warmup(generators(seed)[1])
    t2 = time.perf_counter()
    _, out = run_one(wl, req)
    t3 = time.perf_counter()
    if failures(wl, [req], [out], TOL):
        die(f"warm-up request failed: {out!r}", 1)
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))
    return 0


def blas_threads():
    """Threads the loaded OpenBLAS uses, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"]}


def draw_requests(wl, rng, smoke: bool) -> list:
    """The workload's request set, or two warm-up-sized requests in smoke
    mode."""
    if smoke:
        return [wl.warmup(rng) for _ in range(2)]
    return wl.requests(rng)


def bench_e2e(wl, seed: int, seconds: float, smoke: bool = False):
    """End-to-end run: (attempted, failed, metrics, notes).

    A shared machine runs in fast and slow spells, up to twice as slow,
    that last from seconds to many minutes, so a latency in seconds mixes
    the program's cost with the spell it fell in.  The ``*_ref`` metrics
    are latencies in units of ``reference_s()`` timed around each request,
    over every request of every pass.  Latencies in seconds go into the
    notes.
    """
    rng_req, rng_warm = generators(seed)
    run_one(wl, wl.warmup(rng_warm))   # lazy set-up happens before timing
    reqs = draw_requests(wl, rng_req, smoke)
    repeats = 1 if smoke else SETUP_REPEATS
    marks = [seconds * k / max(repeats - 1, 1) for k in range(repeats)]
    setups = []
    lat, cost, refs, failed = run_passes(
        wl, reqs, seconds, marks,
        lambda: setups.append(measure_setup(wl.name, seed)))
    metrics = {
        "latency_p50_ref": statistics.median(cost),
        "latency_p90_ref": p90(cost),
        "latency_mean_ref": statistics.fmean(cost),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    wall = {"requests_per_s": (len(lat) - failed) / sum(lat),
            "latency_p50_s": statistics.median(lat),
            "latency_p90_s": p90(lat),
            "reference_s": statistics.median(refs)}
    notes = {"passes": f"{len(lat) // len(reqs)} of {len(reqs)} requests",
             "setup_s": f"median of {[round(t, 4) for t in setups]}",
             "wall_clock": json.dumps({k: round(v, 6)
                                       for k, v in wall.items()}),
             "p90": tail_note(len(lat))}
    return len(lat), failed, metrics, notes


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def bench_layers(wl, seed: int, smoke: bool = False):
    """Traced run: (attempted, failed, metrics, notes).  A request whose
    traced and untraced outputs differ counts as failed."""
    from spans import Tracer, layer_metrics
    from workloads import TOL
    rng_req, rng_warm = generators(seed)
    run_one(wl, wl.warmup(rng_warm))
    reqs = draw_requests(wl, rng_req, smoke)
    tracer = Tracer()
    lat_plain, outs_plain, lat_traced, outs_traced = traced_pairs(wl, reqs,
                                                                  tracer)
    bad = set(failures(wl, reqs, outs_plain, TOL))
    bad |= set(failures(wl, reqs, outs_traced, TOL))
    differ = [i for i in range(len(reqs)) if i not in bad and
              wl.digest(reqs[i], outs_plain[i]) !=
              wl.digest(reqs[i], outs_traced[i])]
    metrics = layer_metrics(tracer.spans, sum(lat_traced))
    metrics["trace.overhead_frac"] = sum(lat_traced) / sum(lat_plain) - 1.0
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{wl.name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": wl.name, "seed": seed,
                                "spans": tracer.to_json()}))
    notes = {"traced_outputs": ("bit-identical to untraced" if not differ
                                else f"differ on requests {differ}"),
             "spans": str(path.relative_to(ROOT))}
    return len(reqs), len(bad) + len(differ), metrics, notes


def layer_unit(name: str) -> str:
    if name == "trace.overhead_frac":
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def report(workload, seed, attempted, failed, metrics, notes) -> dict:
    info = dict(machine_info(), workload=workload, seed=seed,
                requests=attempted, failed=failed,
                error_rate=failed / attempted)
    print("# " + json.dumps(info))
    for key, text in notes.items():
        print(f"# {key}: {text}")
    out = {}
    for name, value in metrics.items():
        unit = E2E_UNITS.get(name) or layer_unit(name)
        out[name] = {"value": value, "unit": unit}
        print(f"{workload:16s} {name:26s} {value:14.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": out}


def smoke() -> int:
    """Fast self-check of the benchmark itself."""
    from workloads import TOL, WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if sorted(WORKLOADS) != sorted(w["name"] for w in spec["workloads"]):
        problems.append("workload names differ from BENCHMARK.json")
    for name, wl in WORKLOADS.items():
        for traced in (False, True):
            run = (bench_layers(wl, 0, smoke=True) if traced else
                   bench_e2e(wl, 0, 0.0, smoke=True))
            res = report(name, 0, *run)
            if not res["correct"]:
                problems.append(f"{name} trace={int(traced)}: check failed")
            for metric, unit in wanted[traced].items():
                got = res["metrics"].get(metric)
                if got is None or got["unit"] != unit:
                    problems.append(f"{name}: no {metric} in {unit}")
        req = wl.warmup(generators(0)[0])
        req["target"] = req["target"] + 1e-6
        _, out = run_one(wl, req)
        if not failures(wl, [req], [out], TOL):
            problems.append(f"{name}: a wrong target passed its check")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-child", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_child:
        return setup_child(args.workload, args.seed)
    import_zxwkit()
    if args.smoke:
        return smoke()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    run = (bench_layers(wl, args.seed) if args.trace else
           bench_e2e(wl, args.seed, args.seconds))
    result = report(args.workload, args.seed, *run)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

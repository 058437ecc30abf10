#!/usr/bin/env python3
"""mixkd benchmark: distillation, teacher training, evaluation and bound
verification, end to end and per layer.

    python3 perfbench/run.py --workload distill_sm_tmkd --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-reference

With ``--trace 0`` the end-to-end metrics are measured; with ``--trace 1``
an untraced phase and a traced phase of the same length run from the same
set-up, and the per-layer metrics come from the traced one.  The last line
of a ``--workload`` run is one JSON object: correct, attempted, failed and
metrics.  ``--all`` runs every workload in this one process and writes
``perfbench/out/results.json``; ``--smoke`` does that briefly, for
perfbench/test_smoke.py to check.  Run from the repository root;
mixkd is imported from ``src/`` of the same checkout.  See NOTES.md.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one BLAS thread: steadier step times on a small shared machine (NOTES.md)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

if not (SRC / "mixkd" / "__init__.py").is_file():
    sys.exit(f"perfbench: no mixkd sources at {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import mixkd  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

if Path(mixkd.__file__).resolve().parent != SRC / "mixkd":
    sys.exit(f"perfbench: imported mixkd from {mixkd.__file__}, not {SRC}")
IMPORT_S = time.perf_counter() - T_START

END_TO_END = {      # name -> unit
    "throughput_per_s": "1/s",
    "iter_ms_p50": "ms",
    "iter_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_REPEATS = 3
MIN_ITERS = 100         # so that ten iterations lie beyond p90
UNTRACED_SHARE = 0.4    # of --seconds, for the untraced phase of --trace 1
TRACE_MIN_ITERS = W.REF_STEP
# share of the across-seed spread a reference value may move: a change of
# summation order moved them by at most 1e-15 of it, a 0.2% change of
# the GELU constant by 5e-8 (NOTES.md)
REF_TOLERANCE = 1e-9
DEV_SEEDS = list(range(10))
HOLDOUT_SEEDS = list(range(100, 110))


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def blas_threads():
    """The thread count the loaded OpenBLAS reports, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0))}


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

class Loop:
    """Iteration times, calibration samples, item and failure counts of
    one closed loop."""

    def __init__(self):
        self.times: list[float] = []
        self.ends: list[float] = []
        self.items = 0
        self.failed = 0
        self.errors: list[str] = []
        self.clock = calibration.Clock()

    def scaled_ms(self) -> np.ndarray:
        """Iteration times in ms at the reference speed (calibration.py)."""
        times = np.array(self.times)
        return times * 1e3 * self.clock.factors(np.array(self.ends) - times / 2)


def run_loop(state, seconds: float, min_iters: int, tracer=None,
             iters=None) -> Loop:
    """Drive ``state.iterate`` until iterations took ``seconds`` in all and
    at least ``min_iters`` ran, or exactly ``iters`` times when given;
    the calibration loop runs between iterations."""
    loop = Loop()
    loop.clock.sample()
    busy = 0.0
    while True:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                n = state.iterate(None)
            else:
                tracer.step = len(loop.times)
                with tracer.span(tracing.ITER):
                    n = state.iterate(tracer)
        except W.FAILURES as exc:
            loop.failed += 1
            n = 0
            if len(loop.errors) < 5:
                loop.errors.append(f"{type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        loop.times.append(t1 - t0)
        loop.ends.append(t1)
        loop.items += n
        busy += t1 - t0
        loop.clock.maybe_sample(t1)
        done = len(loop.times)
        if (done >= iters) if iters is not None else (
                busy >= seconds and done >= min_iters):
            break
    loop.clock.sample()
    return loop


def setup(name: str, seed: int):
    OUT.mkdir(exist_ok=True)
    return W.WORKLOADS[name](seed, OUT)


def reference_check(name: str, seed: int, state) -> dict:
    """Compare the workload's reference value with perfbench/reference.json.

    The gate is the spread of the recorded values across seeds, so a
    change of summation order passes; a bitwise match is information only.
    """
    got = state.reference_value()
    table = json.loads(REFERENCE.read_text()).get(name) if REFERENCE.is_file() else None
    if got is None or not table:
        return {}
    values = [v for v, _ in table.values()]
    spread = max(values) - min(values)
    value, digest = got
    if str(seed) in table:
        ref, ref_digest = table[str(seed)]
        return {"reference_within_spread": abs(value - ref) <= REF_TOLERANCE * spread,
                "info_reference_bitwise": digest == ref_digest}
    return {"reference_within_spread":
            min(values) - spread <= value <= max(values) + spread}


def end_to_end(name: str, seed: int, seconds: float, repeats: int,
               min_iters: int) -> dict:
    clock = calibration.Clock()
    import_factor = clock.factor_now()
    setup_raw, setup_scaled = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        state = setup(name, seed)
        took = time.perf_counter() - t0
        setup_raw.append(took)
        setup_scaled.append(took * clock.factor_now())
    loop = run_loop(state, seconds, min_iters)
    checks = {**state.final_checks(), **reference_check(name, seed, state)}

    def timings(ms, imports, setups):
        return {"throughput_per_s": loop.items / ms.sum() * 1e3,
                "iter_ms_p50": float(np.percentile(ms, 50)),
                "iter_ms_p90": float(np.percentile(ms, 90)),
                "setup_s": imports + statistics.median(setups)}

    metrics = timings(loop.scaled_ms(), IMPORT_S * import_factor, setup_scaled)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = timings(np.array(loop.times) * 1e3, IMPORT_S, setup_raw)
    counts = {"throughput_per_s": loop.items, "iter_ms_p50": len(loop.times),
              "iter_ms_p90": len(loop.times), "peak_rss_mb": 1,
              "setup_s": len(setup_raw)}
    return {"metrics": {k: (metrics[k], unit) for k, unit in END_TO_END.items()},
            "raw": {k: (v, END_TO_END[k]) for k, v in raw.items()},
            "counts": counts, "loop": loop, "checks": checks,
            "calibration": clock.samples + loop.clock.samples}


def traced(name: str, seed: int, seconds: float, repeats: int,
           min_iters: int) -> dict:
    for _ in range(repeats):    # the process history of an untraced run
        plain = setup(name, seed)
    base = run_loop(plain, seconds * UNTRACED_SHARE, min_iters)
    n = len(base.times)
    state = setup(name, seed)
    tracer = tracing.Tracer(state.roles)
    tracer.install()
    try:
        loop = run_loop(state, 0, 0, tracer=tracer, iters=n)
        units = n if state.unit != "trial" else loop.items
        layers = tracing.layer_metrics(tracer, units,
                                       training=state.unit == "step")
        top = tracing.top_self(tracer, units)
        tracer.step = -2    # marks the spans of the check below
        same = state.fingerprint() == plain.fingerprint()
    finally:
        tracer.uninstall()
    # ms at the reference speed, like the end-to-end times
    scaled = loop.scaled_ms()
    factor = scaled.sum() / (sum(loop.times) * 1e3)
    layers = {k: (v * factor if unit == "ms" else v, unit)
              for k, (v, unit) in layers.items()}
    top = [(span, ms * factor) for span, ms in top]
    layers["trace.overhead_ratio"] = (scaled.sum() / base.scaled_ms().sum(),
                                      "ratio")
    tracer.save(OUT / f"spans-{name}-{seed}.npz")
    merged = Loop()
    merged.failed = base.failed + loop.failed
    merged.errors = base.errors + loop.errors
    merged.times = base.times + loop.times
    return {"metrics": layers, "counts": {k: units for k in layers},
            "loop": merged, "checks": {"traced_equals_untraced_bitwise": same},
            "top_self": top, "unit": state.unit, "spans": len(tracer.end),
            "calibration": base.clock.samples + loop.clock.samples}


def run_one(name, seed, seconds, trace, repeats=SETUP_REPEATS,
            min_iters=MIN_ITERS) -> dict:
    if trace:
        return traced(name, seed, seconds, repeats,
                      min(min_iters, TRACE_MIN_ITERS))
    return end_to_end(name, seed, seconds, repeats, min_iters)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def correct(result) -> bool:
    checks = {k: v for k, v in result["checks"].items() if not k.startswith("info_")}
    return result["loop"].failed == 0 and all(checks.values())


def report(name: str, seed: int, trace: bool, result: dict) -> None:
    loop = result["loop"]
    attempted = len(loop.times)
    print(f"== {name} seed={seed} trace={int(trace)}")
    kind = "layer" if trace else "metric"
    for metric, (value, unit) in result["metrics"].items():
        print(f"{kind} {metric} = {value:.6g} {unit} (n={result['counts'][metric]})")
    for metric, (value, unit) in result.get("raw", {}).items():
        print(f"raw {metric} = {value:.6g} {unit} (unscaled)")
    cal = result["calibration"]
    print(f"calibration loop median {statistics.median(cal):.4g} ms over "
          f"{len(cal)} samples (reference {calibration.REF_MS} ms)")
    print(f"metric failed_fraction = {loop.failed / attempted:.6g} ratio "
          f"(failed={loop.failed}, attempted={attempted})")
    for check, ok in result["checks"].items():
        print(f"check {check} = {ok}")
    for err in loop.errors:
        print(f"error {err}")
    if trace:
        print(f"spans {result['spans']}; largest self times, ms per {result['unit']}:")
        for span, ms in result["top_self"]:
            print(f"  {span:32s} {ms:10.4f}")


def result_line(result) -> str:
    loop = result["loop"]
    return json.dumps({
        "correct": correct(result), "attempted": len(loop.times),
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()}})


def run_all(seed: int, seconds: float, trace: bool, repeats: int,
            min_iters: int) -> dict:
    results = {}
    for name in W.WORKLOADS:
        result = run_one(name, seed, seconds, trace, repeats, min_iters)
        report(name, seed, trace, result)
        results[name] = json.loads(result_line(result))
    return results


def smoke() -> int:
    """Every workload for a few iterations, untraced then traced;
    perfbench/test_smoke.py checks what this prints."""
    ok = True
    for trace in (False, True):
        results = run_all(0, 0.5, trace, repeats=1, min_iters=W.REF_STEP)
        ok = ok and all(r["correct"] for r in results.values())
    return 0 if ok else 1


def record_reference() -> None:
    """Write perfbench/reference.json from the current program."""
    table = {}
    for name in ("distill_sm_tmkd", "teacher_ft", "eval_long"):
        table[name] = {}
        for seed in DEV_SEEDS + HOLDOUT_SEEDS:
            state = setup(name, seed)
            while state.reference_value() is None:
                state.iterate(None)
            table[name][str(seed)] = list(state.reference_value())
        print(name, "recorded", len(table[name]))
    REFERENCE.write_text(json.dumps(table, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(W.WORKLOADS))
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--record-reference", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    print("env " + json.dumps(environment()))
    if args.smoke:
        return smoke()
    if args.record_reference:
        record_reference()
        return 0
    if args.all:
        results = run_all(args.seed, args.seconds, bool(args.trace),
                          SETUP_REPEATS, MIN_ITERS)
        OUT.mkdir(exist_ok=True)
        path = OUT / "results.json"
        path.write_text(json.dumps({"env": environment(), "seed": args.seed,
                                    "trace": args.trace, "results": results},
                                   indent=1) + "\n")
        print(f"wrote {path}")
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, bool(args.trace), result)
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

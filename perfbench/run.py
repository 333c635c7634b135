"""acawgn benchmark: one seeded workload, timed end to end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve-ladder --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json,
``--trace 1`` the per-layer ones.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only when every output passed its
check.  The program under test is imported from ``src/`` next to this
directory, and nothing else; without it the benchmark exits with code 2.
"""

import os

# Pinned before numpy is imported, here and in every child interpreter.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("numerics", "inputs", "solver", "certificates", "scan", "cli")
SETUP_STARTS = 11
# setup_s is given in seconds on a host where the reference kernel takes this
# long, about its time on an idle 2-core 2.1 GHz virtual machine.  Cold imports
# slow down with the host as the kernel does: over six rounds of eleven
# imports, their median wall time varied by 46% and its ratio to the
# kernel by 12% (range over median).
SETUP_KERNEL_S = 0.005

_SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import acawgn.cli; print(time.perf_counter() - t)"
)


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Import acawgn from SRC only; refuse settings that change its numerics."""
    if "ACAWGN_QUAD_TOL" in os.environ:
        fail("ACAWGN_QUAD_TOL is set; it loosens the solver's quadrature tolerance")
    if not (SRC / "acawgn" / "__init__.py").is_file():
        fail(f"no acawgn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import acawgn
    if Path(acawgn.__file__).resolve().parent != SRC / "acawgn":
        fail(f"acawgn imported from {acawgn.__file__}, not from {SRC}")
    return acawgn


def git_commit() -> str:
    """HEAD of the repository, or 'unknown' in a checkout that is not a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in _THREAD_VARS},
    }


def measure_setup(reference) -> float:
    """Median cold ``import acawgn.cli`` in fresh interpreters, at SETUP_KERNEL_S.

    Each import's wall time is scaled by the kernel time taken just before it.
    """
    times = []
    for _ in range(SETUP_STARTS):
        reference.sample()
        kernel_s = reference.samples[-1][1]
        done = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]) * SETUP_KERNEL_S / kernel_s)
    return statistics.median(times)


def line_counts() -> dict:
    """Non-blank lines that are not comment-only, per module and for all of src/acawgn."""
    counts = {}
    for path in sorted((SRC / "acawgn").glob("*.py")):
        lines = path.read_text().splitlines()
        counts[path.stem] = sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))
    out = {"src.lines": sum(counts.values())}
    out.update({f"{m}.lines": counts[m] for m in MODULES if m in counts})
    return out


def kind_summary(kinds: dict) -> list[str]:
    lines = []
    for kind, q in sorted(kinds.items()):
        op = q["op_s"]
        shares = {name: q.get(f"busy.{name}", 0.0) / op
                  for name in ("optimize", "kkt", "info", "quad", "tv", "report", "row", "solve")}
        top = ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])
                        if v > 0)
        capped = q.get("optimize.capped", 0)
        lines.append(f"#   {kind}: n={q['ops']} op={op:.4g} s, opt_capped={capped:g}, "
                     f"busy shares: {top}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve-ladder", "scan-sweep", "certify-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)

    import tracing
    import workloads

    workload = workloads.make(args.workload, OUT)
    inputs = workload.inputs(args.seed)
    workload.warmup(inputs)
    values, detail, notes, timeline = {}, {}, [], {}
    if args.trace == 0:
        timer = workloads.Timer()
        samples = workload.run(inputs, args.seconds, timer)
        timeline = {"reference": timer.reference.samples,
                    "ops": [(s.kind, s.start, s.seconds) for s in samples]}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        slots, detail = workload.metrics(inputs, samples)
        values.update(slots)
        values["setup_s"] = measure_setup(workloads.Reference())
    else:
        tracer = tracing.Tracer()
        samples = workload.run(inputs, args.seconds, workloads.Timer(tracer))
        layer, kinds = tracing.layer_metrics(tracer.spans)
        values.update(tracing.drop_absent(layer, tracer.absent))

        def cycle_s(traced):
            return sum(statistics.median(s.seconds for s in samples
                                         if s.kind == k and s.traced == traced) for k in kinds)

        values["trace.overhead_frac"] = cycle_s(True) / cycle_s(False) - 1.0
        values.update(line_counts())
        notes = kind_summary(kinds)
        if tracer.absent:
            notes.append("#   absent targets: " + ", ".join(sorted(tracer.absent)))
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "extra"],
                       "spans": tracer.spans}, fh)
    verdict = workloads.Verdict.of(samples)

    env = environment()
    correct = verdict.failed == 0 and verdict.attempted > 0
    detail["fail_frac"] = (verdict.failed / max(verdict.attempted, 1), "frac",
                           f"{verdict.failed} of {verdict.attempted} operations")
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    if args.trace:
        print("# lines: non-blank lines that are not comment-only, under src/acawgn")
        print("# per-layer metrics are per cycle (one operation of each kind); times are shares "
              "of the cycle's busy time")
        for line in notes:
            print(line)
    for name, (value, unit, how) in detail.items():
        print(f"{name:28s} {value:.6g} {unit}  ({how})")
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            value = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            seconds = ""
            if m["name"].endswith("_share"):
                seconds = f"  ({value * values['trace.busy_s']:.4g} s per cycle)"
            print(f"{m['name']:28s} {value:.6g} {m['unit']}{seconds}")
        elif args.trace:
            print(f"{m['name']:28s} absent")
        else:
            fail(f"end-to-end metric {m['name']} was not measured", 3)
    for message in verdict.messages[:20]:
        print(f"# CHECK FAILED: {message}", file=sys.stderr)
    result = {"correct": correct, "attempted": verdict.attempted,
              "failed": verdict.failed, "metrics": metrics}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "detail": {k: v[0] for k, v in detail.items()},
                   "failures": verdict.messages, **result, "timeline": timeline}, fh)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

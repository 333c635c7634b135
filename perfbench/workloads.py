"""The three workloads: seeded inputs, closed-loop runs, output checks, metrics.

Each workload drives acawgn's public surface from one thread in a closed
loop: an operation starts when the previous one has finished.  Functions are
looked up on their modules at call time, so the tracer's wrappers are used
while it is installed.  Every workload reports the same three timing slots,
``small_ref``, ``mid_ref`` and ``large_ref``, in multiples of the reference
kernel's time; what each slot measures on each workload is listed in NOTES.md.

Each output is checked right after its timed region and only the verdict is
kept, so the run's memory does not grow with the number of operations and
peak RSS stays a figure of the program's working set.
"""

from __future__ import annotations

import importlib
import itertools
import math
import mmap
import os
import signal
import statistics
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import checks


# Seconds between reference-kernel samples.  Two kernel runs take about 11 ms,
# so sampling costs about 4% of the run; at this pitch every operation, even a
# 15 ms solve, has several samples within RATIO_PAD of it.
SAMPLE_EVERY = 0.25

# An operation is scaled by the kernel's median within this many seconds of
# it: close enough to follow the host's drift, which moves over minutes, and
# wide enough to take the median of eight or more samples.
RATIO_PAD = 1.0


def _mod(name):
    return importlib.import_module(f"acawgn.{name}")


class Reference:
    """A fixed numpy kernel, timed every quarter second to track the box's speed.

    On a shared host the wall time of every operation drifts by tens of
    percent over minutes.  The kernel does the same kind of work as acawgn
    (exp, log and reductions over Gaussian-kernel arrays), so its time drifts
    with it, though not fully: over eleven 5 s windows in four runs, the wall
    time of an A = 2 solve spread by 32% and its ratio to the kernel by 6%.
    The kernel runs from SIGALRM in the benchmark's one thread, so it is also
    sampled during long operations (an A = 8 solve takes 15 s); its time is
    taken out of the operation that it interrupted.

    The kernel writes into freshly mapped anonymous memory on every pass, so
    it takes the same page faults in every process.  A kernel that lets numpy
    allocate its temporaries gets them from reused heap or from fresh pages,
    depending on the malloc state that the seed's inputs leave behind: such a
    kernel ran 25% slower for some seeds, for the whole run, and spread the
    certify-batch slots by 20% across seeds.
    """

    SHAPE = (9, 15, 400)

    def __init__(self):
        rng = np.random.default_rng(0)
        self._y = rng.standard_normal(self.SHAPE[1:])
        self._x = rng.standard_normal(self.SHAPE[0])
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self.busy = 0.0
        for _ in range(3):
            self._kernel()

    def _kernel(self):
        size = 8 * math.prod(self.SHAPE)
        for _ in range(10):
            with mmap.mmap(-1, size) as m1, mmap.mmap(-1, size) as m2:
                d = np.frombuffer(m1, dtype=np.float64).reshape(self.SHAPE)
                e = np.frombuffer(m2, dtype=np.float64).reshape(self.SHAPE)
                np.subtract(self._y[None, :, :], self._x[:, None, None], out=d)
                np.multiply(d, d, out=e)
                np.multiply(e, -0.5, out=d)
                np.exp(d, out=e)
                np.log(e.sum(axis=0)).sum()
                del d, e   # the maps cannot close while arrays view them

    def sample(self, *_signal_args):
        """Run the kernel twice and keep the second, warm time."""
        first = time.perf_counter()
        self._kernel()
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.samples.append((start, end - start))
        self.busy += end - first

    @contextmanager
    def periodic(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()

    def ratio(self, start, end) -> float:
        """1 over the kernel's median time within RATIO_PAD seconds of [start, end]."""
        near = [s for t, s in self.samples if start - RATIO_PAD <= t <= end + RATIO_PAD]
        return 1.0 / statistics.median(near or [s for _, s in self.samples])


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def add(self, ops: int, problems: list[str]):
        self.attempted += ops
        if problems:
            self.failed += ops
            self.messages.extend(problems)

    @classmethod
    def of(cls, samples):
        total = cls()
        for s in samples:
            total.attempted += s.verdict.attempted
            total.failed += s.verdict.failed
            total.messages.extend(s.verdict.messages)
        return total


@dataclass
class Sample:
    """One timed operation: its kind, a small key, its wall time and its verdict."""

    kind: str
    arg: object
    start: float = 0.0
    seconds: float = 0.0
    ref: float = 0.0
    verdict: Verdict = field(default_factory=Verdict)
    traced: bool = False


class Timer:
    """Runs operations one after another and times each.

    Untraced, the reference kernel runs alongside and each sample also gets
    its time in kernel times.  With a tracer, every second operation of a
    kind is traced, so each kind needs two operations instead of one.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.reference = Reference()
        self.min_each = 1 if tracer is None else 2

    @contextmanager
    def running(self):
        if self.tracer is None:
            with self.reference.periodic():
                yield
        else:
            yield

    def timed(self, kind, arg, call, check, ops=1) -> Sample:
        """Time ``call()``, then check its output outside the timed region.

        ``check(output)`` returns one list of failure messages per operation;
        ``ops`` operations fail at once if the call raises.  The output is
        dropped after the check.
        """
        tracer = self.tracer
        sample = Sample(kind, arg, traced=tracer is not None and tracer.take_turn(kind))
        if sample.traced:
            tracer.install()
        error = output = None
        try:
            sample.start = time.perf_counter()
            busy = self.reference.busy
            try:
                output = tracer.call(kind, call) if sample.traced else call()
            except Exception:  # the run goes on; the operation counts as failed
                error = traceback.format_exc()
            sample.seconds = time.perf_counter() - sample.start - (self.reference.busy - busy)
        finally:
            if sample.traced:
                tracer.restore()
        if error is None:
            try:
                problems = list(check(output))
            except Exception:
                error = "check raised: " + traceback.format_exc()
        if error is None:
            for p in problems:
                sample.verdict.add(1, p)
        else:
            sample.verdict.add(ops, [f"{kind} {arg}: {error}"])
        return sample

    def finish(self, samples):
        """Fill in each sample's time in kernel times."""
        if self.tracer is None:
            for s in samples:
                s.ref = s.seconds * self.reference.ratio(s.start, s.start + s.seconds)
        return samples


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with ten samples beyond it.

    With n samples sorted ascending that is the (n-10)-th; with fewer than
    eleven samples it is the maximum, at percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def _median_of(samples, kind, attr="ref"):
    return statistics.median(getattr(s, attr) for s in samples if s.kind == kind)


# ---------------------------------------------------------------- solve-ladder


class SolveLadder:
    """solve_capacity at A = 2, 5 and 8.

    The next solve is the amplitude with the least solve time so far, so each
    rung gets an equal share of the run and the fast rungs repeat enough for
    a steady median; past the deadline only rungs still short of samples run.
    The seed only orders the rungs: the checks compare against K_A and C(A)
    recorded at these exact amplitudes.
    """

    AMPLITUDES = (2.0, 5.0, 8.0)

    def __init__(self):
        self._kkt = {}

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        return tuple(self.AMPLITUDES[i] for i in rng.permutation(len(self.AMPLITUDES)))

    def warmup(self, order):
        _mod("solver").solve_capacity(2.0)

    def _check(self, A, report):
        """check_solve, with kkt_residual computed once per distinct returned input."""
        pi = report.input
        key = (pi.A, pi.locations, pi.weights)
        if key not in self._kkt:
            self._kkt[key] = _mod("inputs").kkt_residual(pi)
        return [checks.check_solve(A, report, self._kkt[key])]

    def run(self, order, seconds, timer):
        spent = dict.fromkeys(order, 0.0)
        count = dict.fromkeys(order, 0)
        samples = []
        deadline = time.perf_counter() + seconds
        with timer.running():
            while True:
                due = order
                if time.perf_counter() >= deadline:
                    due = [A for A in order if count[A] < timer.min_each]
                    if not due:
                        break
                A = min(due, key=spent.__getitem__)
                s = timer.timed(f"A{A:g}", A, lambda: _mod("solver").solve_capacity(A),
                                lambda report: self._check(A, report))
                spent[A] += s.seconds
                count[A] += 1
                samples.append(s)
        return timer.finish(samples)

    def metrics(self, order, samples):
        med = {A: _median_of(samples, f"A{A:g}") for A in self.AMPLITUDES}
        slots = {"small_ref": med[2.0], "mid_ref": med[5.0], "large_ref": med[8.0]}
        detail = {}
        for A in self.AMPLITUDES:
            n = sum(s.kind == f"A{A:g}" for s in samples)
            detail[f"solve_s.A{A:g}"] = (_median_of(samples, f"A{A:g}", "seconds"), "s",
                                         f"wall, median of {n}")
        return slots, detail


# ------------------------------------------------------------------ scan-sweep


class ScanSweep:
    """``acawgn scan`` through ``acawgn.cli.main``, CSV written and read back.

    The grid is 0.25, 0.5, ..., 5: dense and strictly increasing in (0, 5].
    Scans of its first 5, 10 and all 20 points repeat in cycles of ten
    scans, in an order the seed sets.  The grid itself is fixed.  The solve time of a row jumps
    with A: above A = 3 the optimizer's iteration count moves between 181
    and 301 when A moves by 0.0005, so a seeded offset changed the 20-row
    scan's work by 15% between seeds.
    """

    GRID = tuple(f"{0.25 * k:g}" for k in range(1, 21))
    SIZES = (5, 10, 20)
    # Scans of each size per cycle.  The short scans take 70 and 180 ms and
    # vary more, so they repeat: a 30 s run has about 48, 24 and 8 samples.
    # With one of each per cycle, the 5-row median spread by 14% to 19% across
    # seeds.
    REPEATS = {5: 6, 10: 3, 20: 1}

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self._reference = {}

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        cycle = [n for n in self.SIZES for _ in range(self.REPEATS[n])]
        return self.GRID, tuple(int(cycle[i]) for i in rng.permutation(len(cycle)))

    def _check(self, n, rc, path):
        """One failure list per row of the CSV that a scan of n rows wrote to path."""
        text = None
        if os.path.exists(path):
            with open(path) as fh:
                text = fh.read()
        if rc != 0 or text is None:
            return [[f"exit code {rc}, CSV written: {text is not None}"]] * n
        grid = [float(a) for a in self.GRID[:n]]
        return checks.check_scan_rows(grid, text, self._reference)

    def _scan(self, n, workdir, timer):
        path = os.path.join(workdir, f"scan-{n}.csv")
        if os.path.exists(path):
            os.remove(path)
        argv = ["scan", "--grid", ",".join(self.GRID[:n]), "--out", path]
        return timer.timed(f"rows{n}", n, lambda: _mod("cli").main(argv),
                           lambda rc: self._check(n, rc, path), ops=n)

    def warmup(self, inputs):
        """Solve every grid point once: the reference (K, C, QUADPACK C) for the checks."""
        solver = _mod("solver")
        for A in (float(a) for a in self.GRID):
            report = solver.solve_capacity(A)
            quadpack = checks.quadpack_information(A, *report.input.as_arrays())
            self._reference[A] = (report.k, report.capacity_nats, quadpack)
        with tempfile.TemporaryDirectory(dir=self.out_dir) as workdir:
            self._scan(1, workdir, Timer())

    def run(self, inputs, seconds, timer):
        _, order = inputs
        samples = []
        deadline = time.perf_counter() + seconds
        with tempfile.TemporaryDirectory(dir=self.out_dir) as workdir, timer.running():
            for n in itertools.cycle(order):
                if time.perf_counter() >= deadline and len(samples) >= timer.min_each * len(order):
                    break
                samples.append(self._scan(n, workdir, timer))
        return timer.finish(samples)

    def metrics(self, inputs, samples):
        med = {n: _median_of(samples, f"rows{n}") for n in self.SIZES}
        slots = {"small_ref": med[5], "mid_ref": med[10], "large_ref": med[20]}
        detail = {}
        for n in self.SIZES:
            cnt = sum(s.kind == f"rows{n}" for s in samples)
            name = "scan_s" if n == max(self.SIZES) else f"scan_s.rows{n}"
            detail[name] = (_median_of(samples, f"rows{n}", "seconds"), "s",
                            f"wall, {n}-row scan, median of {cnt}")
        return slots, detail


# --------------------------------------------------------------- certify-batch


class CertifyBatch:
    """certificate_report(pi, measure_tv=True) and kkt_residual(pi) per stored input.

    Batches of 64 inputs are drawn from the seed and the batch index.  Half
    are random (A log-uniform in [1, 40], K spread over 1..1.3A, uniform
    atoms, Dirichlet weights), half near-uniform (about 1.2A jittered
    equispaced atoms, edge-heavy weights).  A, and K as a fraction of 1.3A,
    are stratified within each half so every batch spans both ranges.
    Inputs go through their JSON form, as stored inputs do.

    A run certifies a fixed number of batches, so the inputs that are timed
    and checked depend on the seed and ``--seconds`` only, never on how fast
    the program is.
    """

    BATCH = 64
    A_MAX = 40.0
    # Batches per requested second: about what the seed commit certifies and
    # checks per second on a 2-core 2.1 GHz virtual machine.  A 30 s run has 18.
    BATCHES_PER_SECOND = 0.6

    def inputs(self, seed):
        return seed

    def batch(self, seed, index):
        DiscreteInput = _mod("inputs").DiscreteInput
        rng = np.random.default_rng([seed, index])
        half = self.BATCH // 2
        out = []
        for near_uniform in (False, True):
            for a_stratum, k_stratum in zip(rng.permutation(half), rng.permutation(half)):
                A = math.exp(math.log(self.A_MAX) * (a_stratum + rng.random()) / half)
                if near_uniform:
                    K = max(2, round(1.2 * A))
                    jitter = rng.uniform(-0.25, 0.25, K) * (2.0 * A / (K - 1))
                    x = np.clip(np.linspace(-A, A, K) + jitter, -A, A)
                    w = 1.0 + 3.0 * np.linspace(-1.0, 1.0, K) ** 4
                else:
                    K = math.ceil(1.3 * A * (k_stratum + rng.random()) / half)
                    x = rng.uniform(-A, A, K)
                    w = rng.dirichlet(np.ones(K))
                pi = DiscreteInput.normalized(A, x, w / w.sum())
                out.append(DiscreteInput.from_json(pi.to_json()))
        return [out[i] for i in rng.permutation(self.BATCH)]

    @staticmethod
    def _certify(pi):
        report = _mod("certificates").certificate_report(pi, measure_tv=True)
        return report, _mod("inputs").kkt_residual(pi)

    def warmup(self, seed):
        self._certify(self.batch(seed, 0)[0])

    @staticmethod
    def _check(pi, output):
        report, kkt = output
        tv = checks.exact_tv(pi.A, *pi.as_arrays())
        return [[f"A={pi.A} K={pi.k}: {m}" for m in checks.check_certify(pi, report, kkt, tv)]]

    def run(self, seed, seconds, timer):
        samples = []
        with timer.running():
            for index in range(max(1, round(seconds * self.BATCHES_PER_SECOND))):
                for position, pi in enumerate(self.batch(seed, index)):
                    samples.append(timer.timed("input", (index, position),
                                               lambda: self._certify(pi),
                                               lambda out: self._check(pi, out)))
        return timer.finish(samples)

    def metrics(self, seed, samples):
        batches = {}
        for s in samples:
            batches[s.arg[0]] = batches.get(s.arg[0], 0.0) + s.ref
        slots = {"small_ref": statistics.median(s.ref for s in samples),
                 "mid_ref": tail(s.ref for s in samples)[0],
                 "large_ref": statistics.median(batches.values())}
        wall_ms = [1e3 * s.seconds for s in samples]
        tail_ms, pct, n = tail(wall_ms)
        detail = {
            "certify_items_per_s": (n / (1e-3 * sum(wall_ms)), "1/s", f"wall, {n} inputs"),
            "certify_ms.p50": (statistics.median(wall_ms), "ms", f"wall, n={n}"),
            "certify_ms.tail": (tail_ms, "ms", f"wall, p{pct:.2f}: 10 samples beyond, n={n}"),
        }
        return slots, detail


def make(name, out_dir):
    return {
        "solve-ladder": SolveLadder,
        "scan-sweep": lambda: ScanSweep(out_dir),
        "certify-batch": CertifyBatch,
    }[name]()

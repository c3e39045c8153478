"""The benchmark's four workloads and their correctness gates.

Every workload is a closed loop with a single client and ``jobs=1``: the
next call starts when the previous one has returned.  It runs whole
cycles of a fixed call mix until ``seconds`` have passed, so the mix of
a run does not depend on where the clock stops.  Every input, suite seed
and CLI document is derived from the workload seed.

Times are reported in reference seconds.  On a shared host the speed of
a core drifts (by up to 1.7x within a minute on a shared 2-core Xeon VM),
and that drift would swamp any change to the program.  So each timed call is bracketed by the
fixed pure-Python probe of ``probe.py`` and its time is scaled by
``PROBE_REF_S`` over the mean of the two adjacent probe times.  The probe
runs no zeroreg code, so a change to the program cannot move it.  Raw,
unscaled figures go to the stamp line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import zeroreg.cli as cli
from zeroreg import harness, jsonio
from zeroreg.harness import GeneratorSpec
from zeroreg.projection import RationalCurve
from zeroreg.scheme import FiniteScheme, LinearSubspace, ProjPoint, reduced_germ

from probe import PROBE_REF_S, probe
from tracer import Tracer

DEFAULT_SEED = 0
FP_PRIME = 2**31 - 1
P5_MAX_DEGREE = 14
MIN_CLI_CALLS = 100
SETUP_REPS = 9

# (suite, trials per run_suite call, calls per cycle).  Each mix gives
# its suites the trial shares of their Tier-1 acceptance runs, so a
# suite weighs in a run about as much as in the acceptance suite:
# prop1_2 : cor1_3a : cor1_3b : invariance = 1000 : 600 : 300 : 200, and
# lemma2_6 : fiber_cases : each curve suite = 4000 : 1300 : 100.
# hilbert_shape has no acceptance run; it gets one trial in 22.  Suites
# that cycle through cases by trial index get whole periods (cor1_3a 2,
# lemma2_6 8, fiber_cases 13).  All but the shortest calls of a mix take
# about as long, since a median call that falls between suites of unlike
# lengths jumps from seed to seed.  Over F_p run_suite re-runs trial 0 of
# every call over Q as its cross-check, so verify-fp uses long calls: one
# trial in 15 is Q work.
VERIFY_MIXES = {
    "verify-hilbert": (None, (("prop1_2", 5, 4), ("cor1_3a", 6, 2), ("cor1_3b", 3, 2),
                              ("invariance", 4, 1), ("hilbert_shape", 2, 1))),
    "verify-projection": (None, (("lemma2_6", 8, 5), ("fiber_cases", 13, 1),
                                 ("flatness", 1, 1), ("lemma3_1", 1, 1),
                                 ("mather_consistency", 1, 1))),
    "verify-fp": (FP_PRIME, (("prop1_2", 20, 2), ("cor1_3a", 24, 1), ("cor1_3b", 6, 2))),
}

CLI_LABELS = ("hilbert", "regularity", "normality", "invariant-t", "secant", "separate",
              "project", "classify-fiber", "curve-fiber", "curve-section", "lemma26",
              "bounds", "verify", "hilbert_p5")

clock = time.perf_counter


def derive(seed: int, *labels) -> int:
    """A 63-bit seed for one input, fixed by the workload seed and labels."""
    digest = hashlib.sha256(repr((seed,) + labels).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def digest(text: str) -> str:
    """First 16 hex digits of the SHA-256 of a text."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _report_json(report) -> str:
    return json.dumps(report.to_jsonable(), sort_keys=True, separators=(",", ":"))


def load_expected(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class ScaledTimer:
    """Times calls, each bracketed by probes; keeps raw and scaled times."""

    def __init__(self):
        self.raw = []
        self.scaled = []
        self._last = probe()

    def add(self, seconds):
        now = probe()
        self.raw.append(seconds)
        self.scaled.append(seconds * 2 * PROBE_REF_S / (self._last + now))
        self._last = now

    def call(self, fn, *args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        self.add(clock() - start)
        return result


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


_IMPORT = ("import sys, time; t = time.perf_counter(); import zeroreg.cli; "
           "t = time.perf_counter() - t; sys.path.insert(0, %r); from probe import probe; "
           "print(t, probe())" % str(Path(__file__).resolve().parent))


def measure_setup(env):
    """Median time a fresh interpreter spends in ``import zeroreg.cli``, as
    (reference seconds, raw seconds).  The child probes right after its
    import, on the same core.  One untimed import comes first, so
    byte-code compilation is not counted."""
    scaled, raw = [], []
    for i in range(SETUP_REPS + 1):
        out = subprocess.run([sys.executable, "-c", _IMPORT], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout
        seconds, probe_s = map(float, out.split())
        if i:
            raw.append(seconds)
            scaled.append(seconds * PROBE_REF_S / probe_s)
    return statistics.median(scaled), statistics.median(raw)


def _rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def _latency_metrics(call_s, trials, failed, attempted):
    """Throughput over all calls of the run, so every slow input counts;
    the median call latency."""
    busy_s = sum(call_s)
    return {
        "trials_per_s": _metric(trials / busy_s, "1/s"),
        "calls_per_s": _metric(len(call_s) / busy_s, "1/s"),
        "call_p50_ms": _metric(statistics.median(call_s) * 1e3, "ms"),
        "success_ratio": _metric(1.0 - failed / attempted, "ratio"),
    }


def _trace_metrics(tracer, loop, untraced_s, traced, redraws, trials, cmd_ms):
    """Per-layer metrics.  ``untraced_s`` is the scaled time of the calls
    that ``traced`` times again with the shims; ``loop`` is the run's
    untraced loop."""
    out = {name: _metric(value, unit) for name, (value, unit) in tracer.metrics().items()}
    # not an end-to-end metric: a verify-fp run has about five calls
    # beyond it, and the heavy tail of trial costs sets its spread
    out["untraced.call_p90_ms"] = _metric(_percentile(loop.scaled, 90) * 1e3, "ms")
    out["harness.redraw_ratio"] = _metric(
        redraws / (trials + redraws) if trials else 0.0, "ratio")
    for label in CLI_LABELS:
        out["cli.cmd_ms." + label] = _metric(cmd_ms.get(label, 0.0), "ms")
    wall = sum(traced.raw)
    out["trace_overhead_ratio"] = _metric(sum(traced.scaled) / untraced_s, "ratio")
    out["trace_coverage_ratio"] = _metric(_layer_total(tracer) / wall, "ratio")
    # the root spans' own time holds whatever no listed layer claims
    roots = tracer.stats["harness.run_suite"].self + tracer.stats["cli.main"].self
    out["trace_attributed_ratio"] = _metric((_layer_total(tracer) - roots) / wall, "ratio")
    return out


def _layer_total(tracer):
    return sum(tracer.layer_self_s().values())


def _coverage_ok(tracer, traced) -> bool:
    """Layer self times must add up to the traced call time.  Every call
    runs inside a root span, so this holds by construction; it fails only
    when the shims spend time outside their spans."""
    wall = sum(traced.raw)
    return 0.9 * wall <= _layer_total(tracer) <= wall * (1 + 1e-9)


# ---------------------------------------------------------------------------
# verify workloads


def cycle_calls(mix, seed, cycle):
    """The (suite, trials, suite seed) calls of one cycle of a verify mix."""
    return [(suite, trials, derive(seed, suite, cycle, j))
            for suite, trials, count in mix for j in range(count)]


def _verify_cycles(mix, prime, seed, seconds, timer):
    """Runs whole cycles; returns one list of (call, report) per cycle."""
    cycles = []
    start = clock()
    while True:
        cycles.append([(call, timer.call(harness.run_suite, *call, prime=prime))
                       for call in cycle_calls(mix, seed, len(cycles))])
        if clock() - start >= seconds:
            return cycles


def cycle_digest(reports) -> str:
    return digest("\n".join(_report_json(r) for r in reports))


def _cycle_failures(cycle, want):
    """Failed trials in one cycle.  A report with the wrong trial count, or
    a cycle whose digest is not the recorded one, fails as a whole."""
    trials = sum(call[1] for call, _ in cycle)
    if any(report.trials != call[1] for call, report in cycle):
        return trials
    if want is not None and cycle_digest([r for _, r in cycle]) != want:
        return trials
    return sum(min(call[1], len(report.failures)) for call, report in cycle)


def run_verify(workload, seed, seconds, trace, expected):
    prime, mix = VERIFY_MIXES[workload]
    recorded = expected["verify"][workload] if seed == DEFAULT_SEED else []
    timer = ScaledTimer()
    cycles = _verify_cycles(mix, prime, seed, seconds, timer)
    calls = [call for cycle in cycles for call, _ in cycle]
    reports = [report for cycle in cycles for _, report in cycle]
    trials = sum(call[1] for call in calls)
    failed = sum(_cycle_failures(cycle, recorded[i] if i < len(recorded) else None)
                 for i, cycle in enumerate(cycles))
    if prime is not None:
        # F_p reports must be byte-identical to Q reports of the same calls
        for call, report in cycles[0]:
            if _report_json(harness.run_suite(*call)) != _report_json(report):
                failed += call[1]
    if not trace:
        metrics = _latency_metrics(timer.scaled, trials, failed, trials)
        raw = _latency_metrics(timer.raw, trials, failed, trials)
        metrics["peak_rss_mb"] = _metric(_rss_mb(resource.RUSAGE_SELF), "MiB")
        return metrics, raw, trials, failed, True
    # the traced replay repeats the first half of the cycles, which keeps
    # a traced run under twice the length of an untraced one
    replayed = sum(len(cycle) for cycle in cycles[:(len(cycles) + 1) // 2])
    replay = ScaledTimer()
    with Tracer() as tracer:
        traced = [replay.call(harness.run_suite, *call, prime=prime)
                  for call in calls[:replayed]]
    failed += sum(a.trials for a, b in zip(reports, traced) if _report_json(a) != _report_json(b))
    redraws = sum(r.redraws for r in reports)
    metrics = _trace_metrics(tracer, timer, sum(timer.scaled[:replayed]), replay,
                             redraws, trials, {})
    return metrics, {}, trials, failed, _coverage_ok(tracer, replay)


# ---------------------------------------------------------------------------
# CLI workload


class Call:
    __slots__ = ("label", "argv", "code", "stdout")

    def __init__(self, label, argv, code, stdout):
        self.label, self.argv, self.code, self.stdout = label, argv, code, stdout


def _run_inprocess(argv):
    """``cli.main(argv)`` with standard output captured: (code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects usage errors this way
            code = exc.code
    return code, out.getvalue()


class _MixInputs:
    """Draws CLI inputs from the seed.  Each candidate runs in-process
    once; it is kept only if the command finishes with an accepted exit
    code, and that run is the reference for the subprocess calls."""

    def __init__(self, seed, workdir):
        self.rng = random.Random(derive(seed, "cli"))
        self.workdir = workdir
        self.calls = []
        self._files = 0

    def write(self, doc) -> str:
        self._files += 1
        path = os.path.join(self.workdir, "in%02d.json" % self._files)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(jsonio.canonical_json(doc))
        return path

    def scheme(self, spec_args, **spec_kw):
        spec = GeneratorSpec(*spec_args, box=(-8, 8), seed=self.rng.getrandbits(63), **spec_kw)
        x = harness.gen_scheme(spec)
        return x, self.write(jsonio.scheme_to_jsonable(x))

    def add(self, label, draw, codes=(0,)):
        for _ in range(50):
            try:
                argv = draw()
                code, out = _run_inprocess(argv)
            except Exception:  # noqa: BLE001 - an input that cannot be built
                continue       # (dependent rows) or run is redrawn
            if code in codes:
                self.calls.append(Call(label, argv, code, out))
                return
        raise RuntimeError("no usable input for %s" % label)

    def coords(self, n, box=5):
        while True:
            c = [self.rng.randint(-box, box) for _ in range(n)]
            if any(c):
                return c

    def subspace(self, ambient, forms):
        rows = [self.coords(ambient + 1) for _ in range(forms)]
        return self.write(jsonio.subspace_to_jsonable(LinearSubspace(ambient, rows)))

    def curve(self, ambient):
        while True:
            forms = [[self.rng.randint(-6, 6) for _ in range(ambient + 2)]
                     for _ in range(ambient + 1)]
            try:
                curve = RationalCurve(forms)
            except ValueError:
                continue
            if curve.is_nondegenerate():
                return curve, self.write(jsonio.curve_to_jsonable(curve))


def build_cli_mix(seed, workdir):
    """One cycle of the CLI mix: two inputs for every command plus the
    three-point P^5 Hilbert function, whose answer is known exactly."""
    b = _MixInputs(seed, workdir)
    rng = b.rng
    for spec_args, spec_kw in (((3,), {"degree": 8, "max_germ_length": 2}),
                               ((2,), {"degree": 6, "max_germ_length": 3, "collinear": 4})):
        x, path = b.scheme(spec_args, **spec_kw)
        d, n = x.degree, x.ambient
        b.add("hilbert", lambda: ["hilbert", "--scheme", path, "--max-degree", str(d - 1)])
        b.add("regularity", lambda: ["regularity", "--scheme", path])
        b.add("normality", lambda: ["normality", "--scheme", path,
                                    "--degree", str(rng.randint(1, d - 2))], (0, 1))
        b.add("invariant-t", lambda: ["invariant-t", "--scheme", path])
        b.add("secant", lambda: ["secant", "--scheme", path], (0, 1))
        b.add("separate", lambda: ["separate", "--scheme", path,
                                   "--degree", str(rng.randint(2, d - 1))], (0, 1))
        b.add("project", lambda: ["project", "--scheme", path,
                                  "--center", b.subspace(n, 2)])
    for n, d in ((5, 5), (6, 6)):
        b.add("classify-fiber", lambda: ["classify-fiber", "--n", str(n), "--scheme", b.scheme(
            (2,), degree=d, max_germ_length=2, collinear=rng.randint(3, d))[1]])
    for ambient in (3, 4):
        curve, path = b.curve(ambient)
        b.add("curve-fiber", lambda: ["curve-fiber", "--curve", path,
                                      "--center", b.subspace(ambient, 2),
                                      "--y", "1:%d" % rng.randint(-9, 9)])
        b.add("curve-section", lambda: ["curve-section", "--curve", path, "--subspace",
                                        b.subspace(ambient, rng.randint(1, ambient - 1))],
              (0, 1))
    for case in (1, 2):
        b.add("lemma26", lambda: _lemma26_argv(rng, case))
    for _ in range(2):
        b.add("bounds", lambda: ["bounds", "--dim", str(rng.randint(1, 6)),
                                 "--degree", str(rng.randint(3, 30)),
                                 "--codim", str(rng.randint(1, 5))])
    # light suites, so verify calls cost about what the other commands do
    for suite, trials in (("lemma3_1", 20), ("fiber_cases", 13)):
        b.add("verify", lambda: ["verify", "--suite", suite, "--trials", str(trials),
                                 "--seed", str(rng.getrandbits(32))])
    b.calls.append(Call("hilbert_p5", ["hilbert", "--scheme", _p5_scheme(b), "--max-degree",
                                       str(P5_MAX_DEGREE)],
                        0, '{"phi":[1%s]}\n' % (",3" * P5_MAX_DEGREE)))
    return b.calls


def _p5_scheme(b):
    """Three reduced points in P^5 whose Hilbert function is 3 from degree 1
    on.  Two are coordinate points, one of them e_5, so in graded-lex order
    the last monomial x_5^k is the first to reach them and every degree
    evaluates all C(k + 5, 5) monomials: the known slow input."""
    a = b.rng.randint(1, 4)
    third = [b.rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(6)]
    germs = [reduced_germ(ProjPoint(tuple(int(i == j) for i in range(6)))) for j in (a, 5)]
    germs.append(reduced_germ(ProjPoint(tuple(third))))
    return b.write(jsonio.scheme_to_jsonable(FiniteScheme(germs)))


def _lemma26_argv(rng, case):
    n = rng.randint(3, 6)
    aligned = rng.sample([u for u in range(-9, 10) if u], n + 1 if case == 1 else n)
    a, b = (rng.choice([u for u in range(-5, 6) if u]) for _ in range(2))
    # the "=" form keeps argparse from reading "-3,..." as an option
    argv = ["lemma26", "--aligned=" + ",".join(map(str, aligned)), "--a", str(a), "--b", str(b)]
    for _ in range(2 if case == 1 else 3):
        argv.append("--off=%d:%d:%d" % (rng.choice([u for u in range(-9, 10) if u]),
                                        rng.randint(-9, 9), rng.randint(-9, 9)))
    return argv


def _cli_loop(mix, env, seconds, timer):
    results = []
    start = clock()
    while True:
        for i, call in enumerate(mix):
            proc = timer.call(subprocess.run, [sys.executable, "-m", "zeroreg"] + call.argv,
                              env=env, capture_output=True, timeout=170)
            results.append((i, proc.returncode, proc.stdout))
        if clock() - start >= seconds and len(results) >= MIN_CLI_CALLS:
            return results


def _call_ok(call, code, stdout, want):
    if code != call.code or stdout != call.stdout:
        return False
    return want is None or want == [code, digest(stdout)]


def mix_key(i, call):
    return "%02d.%s" % (i, call.label)


def run_cli(seed, seconds, trace, expected, workdir, env):
    mix = build_cli_mix(seed, workdir)
    recorded = expected["cli"] if seed == DEFAULT_SEED else {}
    timer = ScaledTimer()
    results = _cli_loop(mix, env, seconds, timer)
    failed = sum(1 for i, code, stdout in results
                 if not _call_ok(mix[i], code, stdout.decode("utf-8", "replace"),
                                 recorded.get(mix_key(i, mix[i]))))
    if seed == DEFAULT_SEED and len(recorded) != len(mix):
        failed += len(mix)
    attempted = len(results)
    if not trace:
        metrics = _latency_metrics(timer.scaled, attempted, failed, attempted)
        raw = _latency_metrics(timer.raw, attempted, failed, attempted)
        metrics["peak_rss_mb"] = _metric(_rss_mb(resource.RUSAGE_CHILDREN), "MiB")
        return metrics, raw, attempted, failed, True
    by_label = {}
    for (i, _, _), call_s in zip(results, timer.scaled):
        by_label.setdefault(mix[i].label, []).append(call_s * 1e3)
    cmd_ms = {label: statistics.median(v) for label, v in by_label.items()}
    plain = ScaledTimer()
    for call in mix:
        plain.call(_run_inprocess, call.argv)
    replay = ScaledTimer()
    with Tracer() as tracer:
        traced = [replay.call(_run_inprocess, call.argv) for call in mix]
    failed += sum(1 for call, got in zip(mix, traced) if got != (call.code, call.stdout))
    redraws = trials = 0
    for call in mix:
        if call.label == "verify":
            doc = json.loads(call.stdout)
            redraws += doc["redraws"]
            trials += doc["trials"]
    metrics = _trace_metrics(tracer, timer, sum(plain.scaled), replay, redraws, trials, cmd_ms)
    return metrics, {}, attempted, failed, _coverage_ok(tracer, replay)

"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload fig6a_paper --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: it imports the library from ``src/``.
``BENCHMARK.json`` at the root names the workloads and the metrics. The
runner

1. clears every ``REPRO_*`` knob, pins the serial backend and one BLAS
   thread, and keeps every temp file in a scratch dir under ``.bench_tmp/``
   that it removes on exit;
2. sets the workload up three times and reports ``setup_s`` as the time
   from start to the end of the imports plus the median set-up;
3. resets the peak-RSS watermark and runs untraced timed units until the
   next one would overrun ``--seconds`` (at least one), reporting their
   median ``wall_s``;
4. with ``--trace 1`` alternates untraced and traced units instead (at
   least one pair), the latter with every layer boundary wrapped
   (``spans.py``), and reports the per-layer metrics (median over traced
   units), the span table sorted by self time and the tracing overhead;
   end-to-end numbers always come from untraced units;
5. checks the outputs: each result's paper shape, the workload's own
   checks, and agreement of every run of the same inputs and library
   source — in this run and, through ``.bench_state/``, earlier runs in the
   same checkout.

A :class:`hostspeed.SpeedProbe` samples the host's speed during set-up and
every unit, and ``setup_s``, ``wall_s`` and the tracing overhead are
reported at the reference speed (``hostspeed.py`` says how). The measured
seconds and the slowdown are printed beside them, and every other
per-layer time is left as measured.

The last line on stdout is one JSON object ``{correct, attempted, failed,
metrics}``. The exit code is 0 only when every check passed.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def _pin_environment(scratch: Path) -> None:
    """Make the measurement independent of the caller's shell."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_BACKEND"] = "serial"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)


def _reset_peak_rss() -> bool:
    """Reset the kernel's RSS high-water mark, so set-up is not charged."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def _peak_rss_mb() -> float:
    """The RSS high-water mark (VmHWM; ru_maxrss where /proc lacks it)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _count_retries(counter: Counter) -> None:
    """Count the execution layer's retries in every run.

    ``RetryPolicy.delay`` runs once per retry and never on the success
    path, so the count costs nothing while nothing fails.
    """
    from repro.core.resilience import RetryPolicy

    delay = RetryPolicy.delay

    def counted(self, attempt, unit=0):
        counter["retries"] += 1
        return delay(self, attempt, unit)

    RetryPolicy.delay = counted


def _repeat(seconds: float, step) -> None:
    """Call *step* until the next call would overrun *seconds* (at least once)."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def _run_unit(workload, retries: Counter, probe):
    """One timed unit, with the warnings and retries it caused counted.

    ``wall_s`` is adjusted to the reference speed by *probe*; the measured
    seconds move to ``raw_wall_s``.
    """
    from repro.errors import ResilienceWarning, StoreWarning

    retried = retries["retries"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        probe.reset()
        with probe:
            unit = workload.unit()
    raw = unit.samples["wall_s"]
    unit.samples.update(
        raw_wall_s=raw,
        wall_s=[probe.adjust(v) for v in raw],
        slowdown=[probe.slowdown()],
    )
    unit.failures["warnings"] += sum(
        issubclass(w.category, (ResilienceWarning, StoreWarning)) for w in caught
    )
    unit.failures["retries"] += retries["retries"] - retried
    return unit


def _run_traced(workload, retries: Counter, probe) -> tuple:
    """One unit with every layer boundary wrapped, and its tracer."""
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return _run_unit(workload, retries, probe), tracer
    finally:
        tracer.restore()


def _median(units, name: str) -> float:
    values = [v for u in units for v in u.samples.get(name, ())]
    return statistics.median(values) if values else 0.0


def _per_layer(spec, workload, untraced, traced, tracers) -> dict[str, float]:
    """Every per-layer metric: spans and counts from the traced units, the
    workload's own samples and the failure breakdown from the untraced."""
    names = [m["name"] for m in spec["per_layer"]]
    metrics = dict.fromkeys(names, 0.0)
    layers = [spans.layer_metrics(t, workload.n_series) for t in tracers]
    metrics.update({k: statistics.median(m[k] for m in layers) for k in layers[0]})
    for name in names:
        if any(name in u.samples for u in untraced):
            metrics[name] = _median(untraced, name)
    failures = sum((u.failures for u in untraced), Counter())
    attempted = sum(u.attempted for u in untraced)
    metrics["fail.sweep_cells"] = failures["sweep_cells"]
    metrics["fail.rejected_windows"] = failures["rejected_windows"]
    metrics["fail.warnings"] = failures["warnings"]
    metrics["executor.degraded_units"] = failures["degraded_units"]
    metrics["resilience.retries"] = failures["retries"]
    metrics["failed_frac"] = sum(failures.values()) / attempted
    metrics["trace.overhead_s"] = _median(traced, "wall_s") - _median(
        untraced, "wall_s"
    )
    unknown = set(metrics) - set(names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return metrics


def _output_problems(workload) -> list[str]:
    """The workload's failed checks plus disagreements between runs."""
    from checks import Ledger

    problems = list(workload.problems)
    ledger = Ledger(ROOT / ".bench_state" / "fingerprints.json", ROOT / "src")
    for key, prints in sorted(workload.fingerprints.items()):
        if len(prints) > 1:
            problems.append(f"{key}: runs in this invocation disagree")
            continue
        mismatch = ledger.agree(key, next(iter(prints)))
        if mismatch:
            problems.append(mismatch)
    return problems


def _measure(args, spec: dict, scratch: Path) -> int:
    # Imported here, not at the top: it loads the library (and numpy), which
    # must see the environment _pin_environment set.
    import workloads
    from hostspeed import SpeedProbe

    workload = workloads.WORKLOADS[args.workload](args.seed, str(scratch))
    import_s = time.perf_counter() - _START
    probe = SpeedProbe()
    setups = []
    with probe:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)
    print(f"set-up: {setup_s:.6f} s measured, host slowdown {probe.slowdown():.4f}")
    setup_s = probe.adjust(setup_s)

    retries: Counter = Counter()
    _count_retries(retries)
    watermark_reset = _reset_peak_rss()
    untraced, traced, tracers = [], [], []
    if args.trace:
        # Pairs, so a change in the host's speed during the run lands on
        # both sides of the tracing overhead.
        def pair() -> None:
            untraced.append(_run_unit(workload, retries, probe))
            unit, tracer = _run_traced(workload, retries, probe)
            traced.append(unit)
            tracers.append(tracer)

        _repeat(args.seconds, pair)
    else:
        _repeat(
            args.seconds,
            lambda: untraced.append(_run_unit(workload, retries, probe)),
        )
    peak_mb = _peak_rss_mb()
    workload.after()
    problems = _output_problems(workload)

    failures = sum((u.failures for u in untraced), Counter())
    attempted = sum(u.attempted for u in untraced)
    if args.trace:
        values = _per_layer(spec, workload, untraced, traced, tracers)
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": _median(untraced, "wall_s"),
            "peak_rss_mb": peak_mb,
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(
        f"{workload.name}: seed {args.seed}, {len(untraced)} untraced unit(s)"
        f"{f', {len(traced)} traced' if args.trace else ''}, {attempted} operations, "
        f"{sum(failures.values())} failed"
    )
    if not watermark_reset:
        print("  (peak RSS covers set-up: the watermark could not be reset)")
    for name, metric in metrics.items():
        print(f"  {name:<30} {metric['value']:>16.6f} {metric['unit']}")
    extras = sorted({k for u in untraced for k in u.samples} - set(metrics))
    for name in extras:
        print(f"  {name:<30} {_median(untraced, name):>16.6f} (median of units)")
    if tracers:
        print("spans of the first traced unit, by self time:")
        print(tracers[0].table())
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no library at {ROOT / 'src' / 'repro'}; run from the "
            "root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    base = ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        _pin_environment(scratch)
        sys.path.insert(0, str(ROOT / "src"))
        return _measure(args, spec, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

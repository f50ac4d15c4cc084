"""evifuse benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is imported from ``src``.
One caller drives the library as a closed loop: each call starts when the
previous one has returned. Every timed operation's output is checked, and
a failed check counts in ``failed``. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: protocol
runs and set-ups alternate for ``--seconds``; protocol time is their mean,
set-up time their median. ``--trace 1`` makes one traced pass instead,
with wrappers on evifuse's public functions, and reports the per-layer
metrics; spans go to ``.bench_work/trace-<workload>-seed<seed>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import (
    IN_PROCESS,
    ROOT,
    WORK_DIR,
    WORKLOADS,
    cap_blas_threads,
    child_env,
    dataset_digest,
    file_digest,
    scenario,
    scenario_seed,
    use_checkout_src,
)

BENCH_DIR = Path(__file__).resolve().parent
# Single timings are not steady on a shared machine (four back-to-back
# paper_default runs took 7.6, 7.6, 9.7 and 11.2 s, and its speed drifts in
# phases of seconds to a minute), so protocol runs and set-ups alternate for
# the whole window; protocol times are averaged over it, set-up times are a
# median.
MIN_REPS = 3
SETUPS_PER_REP = 3
CHILD_TIMEOUT_S = 170


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def operation(self, label: str):
        """Record one operation; yields a list the caller appends problems to."""
        problems: list[str] = []
        try:
            yield problems
        except Exception:  # noqa: BLE001 - a failed operation must not stop the run
            problems.append(traceback.format_exc(limit=3).strip().replace("\n", " | "))
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(problems[:5])}", file=sys.stderr)


class Context:
    """One run: workload, seed, scenario and the files it works on."""

    def __init__(self, workload: str, seed: int) -> None:
        from check import load_reference

        self.workload = workload
        self.seed = seed
        self.config = scenario(workload, seed)
        self.ref_commit, self.ref = load_reference(workload, seed)
        self.work = WORK_DIR / f"{workload}-seed{seed}"
        self.scenario_path = self.work / "scenario.json"
        self.csv_path = self.work / "data.csv"
        self.report_path = self.work / "report.json"

    @property
    def decisions(self) -> int:
        """Fusion decisions per protocol run: test samples x trials x methods."""
        from evifuse.experiment import METHODS

        return (self.config.n_samples // 3) * self.config.n_trials * len(METHODS)

    def cli_args(self, command: str) -> list[str]:
        from evifuse.experiment import METHODS

        if command == "simulate":
            return ["simulate", "--config", str(self.scenario_path),
                    "--out", str(self.csv_path)]
        return ["eval", "--dataset", str(self.csv_path), "--methods", ",".join(METHODS),
                "--config", str(self.scenario_path), "--out", str(self.report_path)]


def cli_subprocess(ctx: Context, command: str) -> tuple[float, list[str]]:
    """Run one ``evifuse`` CLI command in a child; wall seconds and problems."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "evifuse.cli", *ctx.cli_args(command)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    seconds = perf_counter() - start
    if proc.returncode != 0:
        return seconds, [f"evifuse {command} exited {proc.returncode}: {proc.stderr[-500:]}"]
    return seconds, []


def cli_in_process(ctx: Context, command: str, tracer=None) -> None:
    """Run one CLI command through ``main(..., standalone_mode=False)``."""
    from evifuse.cli import main

    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(io.StringIO()), span:
        try:
            main(ctx.cli_args(command), standalone_mode=False)
        except SystemExit as exc:
            if exc.code:
                raise RuntimeError(f"evifuse {command} exited {exc.code}") from None


def check_csv(ctx: Context, problems: list[str]) -> None:
    if file_digest(ctx.csv_path) != ctx.ref["dataset_sha256"]:
        problems.append("dataset CSV differs from the reference")


def check_report(ctx: Context, data: bytes, first: bytes | None, problems: list[str]) -> None:
    """Byte-identical to the run's first report, which must match the reference."""
    from check import report_mismatches

    if first is None:
        problems.extend(report_mismatches(json.loads(data), ctx.ref["report"]))
    elif data != first:
        problems.append("report bytes differ from the first repeat of this seed")


# ---------------------------------------------------------------------------
# end-to-end run (--trace 0)


def setup_once(ctx: Context, tally: Tally, label: str) -> float | None:
    """One set-up: import plus simulate in a fresh interpreter, or, on
    csv_pipeline, the ``evifuse simulate`` command writing the dataset CSV.

    Returns its seconds, or None when it failed."""
    with tally.operation(label) as problems:
        if ctx.workload != "csv_pipeline":
            return setup_probe(ctx, problems)
        seconds, failures = cli_subprocess(ctx, "simulate")
        problems.extend(failures)
        if not failures:
            check_csv(ctx, problems)
        return seconds
    return None


def setup_probe(ctx: Context, problems: list[str]) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), ctx.workload, str(ctx.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr[-500:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if out["digest"] != ctx.ref["dataset_sha256"]:
        problems.append("simulated dataset differs from the reference")
    return out["seconds"]


def protocol_once(ctx: Context) -> tuple[float, bytes]:
    """One full protocol run through the workload's entry point."""
    import evifuse as ev
    from evifuse.experiment import METHODS

    ctx.report_path.unlink(missing_ok=True)
    if ctx.workload in IN_PROCESS:
        start = perf_counter()
        report = ev.run_experiment(ctx.config, METHODS)
        seconds = perf_counter() - start
        ev.save_report(report, str(ctx.report_path))
    else:
        seconds, problems = cli_subprocess(ctx, "eval")
        if problems:
            raise RuntimeError(problems[0])
    return seconds, ctx.report_path.read_bytes()


def end_to_end(ctx: Context, seconds: float, tally: Tally) -> dict[str, float]:
    # csv_pipeline's protocol reads the CSV that a set-up writes.
    setup = [setup_once(ctx, tally, "setup 1")]
    times: list[float] = []
    first: bytes | None = None
    start, reps = perf_counter(), 0
    # Start another round while it should end no later than half a round
    # past the window, so that rounds fill the window on average. Set-ups
    # run between protocol runs, so that both sample the whole window.
    while reps < MIN_REPS or (perf_counter() - start) * (1 + 0.5 / reps) <= seconds:
        reps += 1
        with tally.operation(f"protocol {reps}") as problems:
            elapsed, data = protocol_once(ctx)
            times.append(elapsed)
            check_report(ctx, data, first, problems)
            first = data if first is None else first
        for _ in range(SETUPS_PER_REP):
            setup.append(setup_once(ctx, tally, f"setup {len(setup) + 1}"))
    setup = [t for t in setup if t is not None]
    if not times or not setup:
        sys.exit("error: every protocol run or every set-up failed")
    print(json.dumps({"samples": {"protocol_s": times, "setup_s": setup}}))
    # The mean over the window, not the median of a few long runs: the
    # machine's slow and fast phases then average out within a run.
    protocol_s = statistics.fmean(times)
    usage = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    peak_kib = max(resource.getrusage(who).ru_maxrss for who in usage)
    return {
        "setup_s": statistics.median(setup),
        "protocol_s": protocol_s,
        "decisions_per_s": ctx.decisions / protocol_s,
        "peak_rss_mb": peak_kib / 1024.0,
    }


# ---------------------------------------------------------------------------
# traced run (--trace 1)


def protocol_step(ctx: Context, tracer=None) -> tuple[float, bytes]:
    """The traced run's protocol step: in-process, CLI included on csv_pipeline."""
    import evifuse as ev
    from evifuse.experiment import METHODS

    ctx.report_path.unlink(missing_ok=True)
    start = perf_counter()
    if ctx.workload in IN_PROCESS:
        ev.save_report(ev.run_experiment(ctx.config, METHODS), str(ctx.report_path))
    else:
        cli_in_process(ctx, "eval", tracer)
    return perf_counter() - start, ctx.report_path.read_bytes()


def repeat_pattern_share(ds, n_trials: int, seed: int) -> float:
    """Mean over trials of 1 - distinct label rows / test rows.

    Mirrors evaluate_dataset's split: the test rows are the last third of
    each trial's permutation.
    """
    import numpy as np
    from evifuse.simulate import trial_stream

    third = ds.n_samples // 3
    shares = []
    for trial in range(n_trials):
        test = trial_stream(seed, trial).permutation(ds.n_samples)[2 * third : 3 * third]
        shares.append(1.0 - len(np.unique(ds.labels[test], axis=0)) / test.shape[0])
    return float(np.mean(shares))


def per_method(ctx: Context, ds, full: dict, tally: Tally) -> dict[str, float]:
    """Untraced evaluate_dataset([m]) per method; each must equal its part of
    the full report."""
    import evifuse as ev
    from evifuse.experiment import METHODS
    from evifuse.io import report_to_dict

    cfg = ctx.config
    times = {}
    for name in METHODS:
        with tally.operation(f"method {name}") as problems:
            start = perf_counter()
            report = ev.evaluate_dataset(
                ds, [name], settings=cfg.fusion, n_trials=cfg.n_trials, seed=cfg.seed
            )
            times[f"experiment.method_s.{name}"] = perf_counter() - start
            got = report_to_dict(report)
            if got["methods"][name] != full["methods"][name]:
                problems.append(f"{name} alone differs from the full protocol report")
            if got["source_accuracy"] != full["source_accuracy"]:
                problems.append("source accuracies differ from the full protocol report")
    return times


def check_round_trip(ctx: Context, ds, loaded, problems: list[str]) -> None:
    """The CSV written by ``evifuse simulate`` loads back to the dataset and
    re-saves byte for byte."""
    import evifuse as ev
    import numpy as np

    if dataset_digest(ds) != ctx.ref["dataset_sha256"]:
        problems.append("simulated dataset differs from the reference")
    if not (np.array_equal(loaded.truth, ds.truth) and np.array_equal(loaded.labels, ds.labels)):
        problems.append("loaded labels differ from the simulated dataset")
    if np.max(np.abs(loaded.scores - ds.scores)) > 5e-10:
        problems.append("loaded scores differ from the simulated dataset")
    resaved = ctx.work / "resaved.csv"
    ev.save_dataset(loaded, str(resaved))
    if resaved.read_bytes() != ctx.csv_path.read_bytes():
        problems.append("re-saving the loaded dataset changed the CSV")


def traced(ctx: Context, tally: Tally) -> dict[str, float]:
    import evifuse as ev
    import evifuse.cli  # noqa: F401 - imported before any step is timed
    from spans import Tracer

    ds = ev.simulate(ctx.config)
    if ctx.workload == "csv_pipeline":
        ev.save_dataset(ds, str(ctx.csv_path))

    untraced_s, untraced_report = protocol_step(ctx)
    with tally.operation("untraced protocol") as problems:
        check_report(ctx, untraced_report, None, problems)

    tracer = Tracer()
    tracer.install()
    try:
        start = perf_counter()
        with tracer.span("bench.traced"):
            cli_in_process(ctx, "simulate", tracer)
            if ctx.workload in IN_PROCESS:
                loaded = ev.load_dataset(str(ctx.csv_path))
            traced_s, traced_report = protocol_step(ctx, tracer)
        wall = perf_counter() - start
    finally:
        tracer.uninstall()

    # The traced step is bracketed by two untraced ones, so that its overhead
    # is measured against the machine's speed on both sides of it.
    after_s, after_report = protocol_step(ctx)
    with tally.operation("traced pass") as problems:
        if ctx.workload in IN_PROCESS:
            check_round_trip(ctx, ds, loaded, problems)
        else:
            check_csv(ctx, problems)
        check_report(ctx, traced_report, untraced_report, problems)
        check_report(ctx, after_report, untraced_report, problems)
        if (msg := tracer.check_self_times(wall)) is not None:
            problems.append(msg)

    data = ds if ctx.workload in IN_PROCESS else ev.load_dataset(str(ctx.csv_path))
    metrics = per_method(ctx, data, json.loads(untraced_report), tally)
    metrics["experiment.repeat_pattern_share"] = repeat_pattern_share(
        data, ctx.config.n_trials, ctx.config.seed
    )
    overhead = traced_s - (untraced_s + after_s) / 2
    tracer.write(str(WORK_DIR / f"trace-{ctx.workload}-seed{ctx.seed}.jsonl.gz"))
    return metrics | layer_metrics(tracer) | {"trace_overhead_s": overhead}


def layer_metrics(tr) -> dict[str, float]:
    def busy(prefix: str) -> float:
        return tr.busy(tr.names_with_prefix(prefix))

    c = tr.counts
    return {
        "simulate.busy_s": busy("simulate."),
        "experiment.self_s": tr.self_time("experiment."),
        "calibration.busy_s": busy("calibration."),
        "calibration.build_confusion.calls": c["calibration.build_confusion.calls"],
        "calibration.pairs_counted": c["calibration.pairs_counted"],
        "voting.busy_s": busy("voting."),
        "voting.tally.calls": c["voting.tally.calls"],
        "possibility.busy_s": busy("possibility."),
        "possibility.combine.calls": c["possibility.combine.calls"],
        "belief.combine.busy_s": tr.busy({"belief.combine_all", "belief.conjunctive_combine"}),
        "belief.combine.calls": c["belief.conjunctive_combine.calls"],
        "belief.focal_pairs": c["belief.focal_pairs"],
        "belief.appriou.busy_s": busy("belief.appriou_mass"),
        "belief.pignistic.busy_s": busy("belief.decide_pignistic"),
        "belief.knn.busy_s": tr.busy({"belief.denoeux_classify_mass", "belief.denoeux_mass"}),
        "belief.knn_distance_evals": c["belief.knn_distance_evals"],
        "belief.gamma_fit.busy_s": busy("belief.default_gamma"),
        "io.load_dataset.busy_s": busy("io.load_dataset"),
        "io.save_dataset.busy_s": busy("io.save_dataset"),
        "io.save_report.busy_s": busy("io.save_report"),
        "io.bytes_read": c["io.bytes_read"],
        "io.bytes_written": c["io.bytes_written"],
        "cli.self_s": tr.self_time("cli."),
    }


# ---------------------------------------------------------------------------


def environment(ctx: Context, blas_threads: int) -> dict:
    import platform

    import numpy as np

    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "scenario_seed": scenario_seed(ctx.seed),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "reference_commit": ctx.ref_commit,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    blas_threads = cap_blas_threads()
    use_checkout_src()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    ctx = Context(args.workload, args.seed)
    shutil.rmtree(ctx.work, ignore_errors=True)
    ctx.work.mkdir(parents=True)
    try:
        from evifuse.io import save_config

        save_config(ctx.config, str(ctx.scenario_path))
        print(json.dumps({"environment": environment(ctx, blas_threads)}))
        tally = Tally()
        if args.trace:
            values = traced(ctx, tally)
        else:
            values = end_to_end(ctx, args.seconds, tally)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    names = {m["name"] for m in wanted}
    if set(values) != names:
        sys.exit(f"error: metrics {sorted(set(values) ^ names)} do not match BENCHMARK.json")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()

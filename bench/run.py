"""finapprox benchmark: end-to-end CLI requests, output checks, and a traced layer split.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the program from ``src/``.

Workloads (see BENCHMARK.json and bench/README.md):

- ``analyze-fs1024``: ``analyze`` on ``function_space_galerkin`` at M=1024
  with the damping operator, one fresh ``python3 -m finapprox.cli`` process
  per request, repeated until S seconds have passed;
- ``galerkin-fs1024``: ``galerkin`` on the same problem, the same way;
- ``population-dense``: 120 x S seeded problem files (dimension 2 to 64),
  each analysed once, in-process, by one fresh process calling
  ``finapprox.cli.main``.

With ``--trace 0`` the last line of standard output is the result object with
the end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it carries
the per-layer metrics, from a run that also repeats the requests untraced to
show that the traced reports are byte-identical. The lines before it list every
metric with its unit and sample count, and the run metadata.

Every child process is awaited before the run ends; one still running 150 s
into the run is killed, and the requests it did not finish count as failed.
Scratch files live under ``.bench_run/`` in the working directory and are
removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import population
from tracing import layer_metrics, root_durations, span_problems

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()

M = 1024
FS_ARGS = [
    "--scenario", "function_space_galerkin",
    "--param", f"M={M}", "--param", "operator=damping",
    "--format", "json",
]
LARGE = {"analyze-fs1024": ["analyze", *FS_ARGS], "galerkin-fs1024": ["galerkin", *FS_ARGS]}
POPULATION = "population-dense"
POPULATION_PER_SECOND = 120
SCHEDULE_COUNT = 8
SETUP_REPEATS = 5  # before the requests, and again after them
# A request process still running this many seconds after the run started is
# killed, so that a run whose program got too slow still prints its result:
# the requests the killed process did not finish count as failed. The last
# set-up probes get the reserve after it.
RUN_DEADLINE_S = 150
PROBE_RESERVE_S = 15

# Bounds of the acceptance gate: criterion 1 (exact constraint identity),
# criterion 6 (residual bounded by indicator) and criterion 7 (Galerkin decay).
IDENTITY_BOUND = 1e-9
FINAL_RESIDUAL_BOUND = 1e-3

VERDICTS = ("SOLVABLE", "NOT_SOLVABLE", "SINGULAR", "INCONCLUSIVE")
# Counts a traced request must repeat exactly, run after run.
EXACT_SUFFIXES = (".calls", ".cubic_work", ".singular_reports", ".inconclusive")


class BenchError(RuntimeError):
    """The benchmark itself cannot run here (no program, broken set-up)."""


class _Deadline(Exception):
    pass


def _alarm(_signum, _frame):
    raise _Deadline


def _kill(pid):
    """Kill and reap a child; its resource usage, or None if it was already reaped."""
    try:
        os.kill(pid, signal.SIGKILL)
        return os.wait4(pid, 0)[2]
    except (ProcessLookupError, ChildProcessError):
        return None


def spawn(argv, env, stdout_path, stderr_path, timeout):
    """Run one child: (exit code, wall seconds, peak RSS in MB).

    A child still running after ``timeout`` seconds is killed and awaited;
    its exit code is then None.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
        code = os.waitstatus_to_exitcode(status)
    except _Deadline:
        usage = _kill(pid)
        code = None
    except BaseException:
        _kill(pid)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    return code, wall, usage.ru_maxrss / 1024.0 if usage else 0.0


class Runner:
    """Spawns child processes with the program on the path and pinned BLAS threads."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.nproc)
        self._count = 0

    def run(self, argv, reserve=0.0):
        """(exit code, wall seconds, peak RSS MB, stdout text) of one child.

        The exit code is None when the child was killed at the run's
        deadline plus ``reserve`` seconds.
        """
        self._count += 1
        out = self.workdir / f"child{self._count}.out"
        err = self.workdir / f"child{self._count}.err"
        timeout = self.deadline + reserve - time.perf_counter()
        code, wall, rss = spawn([sys.executable, *argv], self.env, out, err, timeout)
        return code, wall, rss, out.read_text()

    def setup_seconds(self, warm_up: bool) -> tuple[list[float], list[float]]:
        """Import times of finapprox.cli in fresh interpreters, and those processes' wall times."""
        probe = (
            "import time; t = time.perf_counter(); import finapprox.cli; "
            "print(repr(time.perf_counter() - t))"
        )
        samples, walls = [], []
        for attempt in range(SETUP_REPEATS + warm_up):
            code, wall, _rss, out = self.run(["-c", probe], reserve=PROBE_RESERVE_S)
            if code != 0:
                raise BenchError(f"`import finapprox.cli` exited {code}")
            samples.append(float(out))
            walls.append(wall)
        return samples[warm_up:], walls[warm_up:]

    def cli(self, argv):
        return self.run(["-m", "finapprox.cli", *argv])

    def child(self, requests, tag, traced):
        """Run ``requests`` in one process via bench/child.py: (code, wall, rss, results, spans)."""
        request_path = self.workdir / f"{tag}.requests.json"
        result_path = self.workdir / f"{tag}.results.jsonl"
        span_path = self.workdir / f"{tag}.spans.json"
        request_path.write_text(json.dumps(requests))
        argv = [str(BENCH_DIR / "child.py"), str(request_path), str(result_path)]
        if traced:
            argv += ["--spans", str(span_path)]
        code, wall, rss, _out = self.run(argv)
        if code != 0:
            return code, wall, rss, None, None
        lines = [json.loads(line) for line in result_path.read_text().splitlines()]
        results = {"requests": lines[:-1], "loop_seconds": lines[-1]["loop_seconds"]}
        spans = json.loads(span_path.read_text()) if traced else None
        return code, wall, rss, results, spans


# ---------------------------------------------------------------- checks


class Tally:
    """Request outcomes: operational failures and verdict/identity counts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.contradictions: list[str] = []  # wrong verdicts that are only counted
        self.wrong_verdicts = 0
        self.inconclusive_verdicts = 0
        self.oracle_errors = 0
        self.identity_violations = 0
        self.worst_identity_ratio = 0.0

    def fail(self, reason: str) -> None:
        self.failures.append(reason)


def _parse(text: str, command: str):
    """The JSON report, or None when it does not parse or lacks its records."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return None
    if not isinstance(report, dict) or report.get("command") != command:
        return None
    records = report.get("records")
    if not isinstance(records, list) or len(records) != SCHEDULE_COUNT:
        return None
    return report


def _identity_ratio(records, rhs_norm: float) -> float:
    """Worst ratio of a record's criterion 1 / criterion 6 defect to its bound (> 1 breaks it)."""
    worst = 0.0
    for r in records:
        if r["singular"]:
            continue
        worst = max(worst, r["norm_constraint_residual"] / (IDENTITY_BOUND * rhs_norm))
        excess = r["norm_residual"] - r["norm_indicator"]
        if excess > 0:
            worst = max(worst, excess / (IDENTITY_BOUND * r["norm_indicator"]))
    return worst


def check_analyze(tally: Tally, code: int, text: str, truth: dict) -> None:
    """Check one analyze request against its ground truth.

    A request fails when its report does not parse, its exit code is not the
    one its own verdict calls for (3 for SINGULAR, else 0), or the oracle
    contradicts the truth. A wrong verdict (a definite one that contradicts
    the truth, or any other answer to a SINGULAR truth) fails it where
    ``truth["verdict_held"]``, and is listed elsewhere. INCONCLUSIVE answers
    to other truths and breaks of the criterion 1 / 6 identity bounds fail it
    where ``truth["strict"]``. All of them are counted.
    """
    tally.attempted += 1
    report = _parse(text, "analyze")
    if report is None or report.get("verdict") not in VERDICTS:
        tally.fail(f"{truth['label']}: unparsable report (exit {code})")
        return
    verdict = report["verdict"]
    expected_code = 3 if verdict == "SINGULAR" else 0
    if code != expected_code:
        tally.fail(f"{truth['label']}: exit {code} with verdict {verdict}")
        return
    wrong, counted = [], []
    if verdict == "INCONCLUSIVE":
        tally.inconclusive_verdicts += 1
    if verdict != truth["verdict"]:
        note = f"verdict {verdict}, truth {truth['verdict']}"
        if verdict != "INCONCLUSIVE":
            tally.wrong_verdicts += 1
        if verdict == "INCONCLUSIVE" and truth["verdict"] != "SINGULAR":
            counted.append(note)
        elif truth["verdict_held"]:
            wrong.append(note)
        else:
            tally.contradictions.append(f"{truth['label']}: {note}")
    oracle = report.get("oracle")
    if oracle is not None and oracle["constrained_solvable"] != truth["solvable"]:
        tally.oracle_errors += 1
        wrong.append(f"oracle constrained_solvable {oracle['constrained_solvable']}, truth {truth['solvable']}")
    if truth["projector"]:
        ratio = _identity_ratio(report["records"], truth["rhs_norm"])
        tally.worst_identity_ratio = max(tally.worst_identity_ratio, ratio)
        if ratio > 1.0:
            tally.identity_violations += 1
            counted.append(f"identity bound exceeded {ratio:.3g} times")
    if truth["strict"]:
        wrong += counted
    if wrong:
        tally.fail(f"{truth['label']}: " + "; ".join(wrong))


def check_galerkin(tally: Tally, code: int, text: str, rhs_norm: float) -> None:
    """Every step matches its level constraint (criterion 1), final residual within criterion 7."""
    tally.attempted += 1
    report = _parse(text, "galerkin")
    if report is None or code != 0:
        tally.fail(f"galerkin: exit {code}, report parses: {report is not None}")
        return
    records = report["records"]
    if any(r["singular"] for r in records):
        tally.fail("galerkin: a singular step")
        return
    worst = max(r["constraint_residual_n"] for r in records)
    if worst > IDENTITY_BOUND * rhs_norm:
        tally.identity_violations += 1
        tally.fail(f"galerkin: constraint residual {worst!r} over {IDENTITY_BOUND} * ||h||")
    if records[-1]["residual"] > FINAL_RESIDUAL_BOUND:
        tally.fail(f"galerkin: final residual {records[-1]['residual']!r} over {FINAL_RESIDUAL_BOUND}")


def fs_truth() -> dict:
    """Ground truth of function_space_galerkin: full-rank diagonal operator, rhs the samples of x."""
    x = (np.arange(M) + 0.5) / M
    return {
        "label": "function_space_galerkin",
        "verdict": "SOLVABLE",
        "solvable": True,
        "projector": True,
        "rhs_norm": float(np.linalg.norm(x / math.sqrt(M))),
        "verdict_held": True,
        "strict": True,
    }


def check_request(workload: str, tally: Tally, code: int, text: str, truth) -> None:
    if workload == "galerkin-fs1024":
        check_galerkin(tally, code, text, truth["rhs_norm"])
    else:
        check_analyze(tally, code, text, truth)


# ---------------------------------------------------------------- workloads


def _population(runner: Runner, seed: int, seconds: int):
    directory = runner.workdir / "problems"
    directory.mkdir()
    manifest = population.generate(seed, POPULATION_PER_SECOND * seconds, directory)
    truths, requests = [], []
    for entry in manifest:
        path = os.path.relpath(entry["path"], ROOT)
        label = (
            f"seed {seed} {Path(path).stem} ({entry['kind']}, "
            f"{'ill' if entry['ill_conditioned'] else 'well'}-conditioned, scale {entry['scale']:.3g}"
            f"{', Gram only' if entry['gram_only'] else ''})"
        )
        held = {"verdict_held": population.verdict_held(entry), "strict": population.held_to_every_check(entry)}
        truths.append(dict(entry, label=label, **held))
        requests.append(["analyze", "--input", path, "--format", "json"])
    return truths, requests


def _population_pass(runner: Runner, truths, requests, tag: str, traced: bool, tally: Tally):
    """One process analysing the whole population; every report is checked. None if it crashed."""
    code, _wall, rss, results, spans = runner.child(requests, tag, traced)
    if results is None:
        tally.attempted += len(requests)
        tally.failures += [f"{tag} population process exited {code}"] * len(requests)
        return None
    for truth, result in zip(truths, results["requests"]):
        check_request(POPULATION, tally, result["code"], result["report"], truth)
    return rss, results, spans


def run_large(runner: Runner, workload: str, seconds: int, tally: Tally):
    """Fresh-process requests until ``seconds`` have passed (at least one)."""
    truth = fs_truth()
    walls, rss = [], []
    start = time.perf_counter()
    while not walls or min(start + seconds, runner.deadline) > time.perf_counter():
        code, wall, peak, out = runner.cli(LARGE[workload])
        check_request(workload, tally, code, out, truth)
        walls.append(wall)
        rss.append(peak)
    elapsed = time.perf_counter() - start
    metrics = {
        "request_s": (statistics.median(walls), "s", len(walls)),
        "problems_per_s": (len(walls) / elapsed, "1/s", len(walls)),
        "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
    }
    return metrics


def run_population(runner: Runner, seed: int, seconds: int, tally: Tally):
    truths, requests = _population(runner, seed, seconds)
    done = _population_pass(runner, truths, requests, "untraced", False, tally)
    if done is None:
        return {}
    rss, results, _spans = done
    seconds_each = [r["seconds"] for r in results["requests"]]
    n = len(seconds_each)
    return {
        "request_s": (statistics.median(seconds_each), "s", n),
        "request_p99_s": (statistics.quantiles(seconds_each, n=100, method="inclusive")[98], "s", n),
        "problems_per_s": (n / results["loop_seconds"], "1/s", n),
        "peak_rss_mb": (rss, "MB", 1),
    }


def check_spans(tally: Tally, spans: list, loop_seconds: float) -> None:
    """The span tree is sound and its root spans fit in the request loop that holds them."""
    for problem in span_problems(spans)[:5]:
        tally.fail(f"spans: {problem}")
    rooted = math.fsum(root_durations(spans))
    if rooted > loop_seconds + 1e-9:
        tally.fail(f"spans: root spans take {rooted!r} s of a {loop_seconds!r} s request loop")


def check_unattributed(tally: Tally, layers: dict, bound: float) -> None:
    """Large workloads: time outside the root spans is start-up and exit, plus tracing overhead.

    A traced request process spends the time its root spans miss on what a
    set-up probe process also does: interpreter start, ``import finapprox.cli``
    and exit (``trace.startup_s``, the probes' median wall time). That time may
    drift by the benchmark's own timing bound; more than that means spans lost
    time.
    """
    allowed = max(layers["trace.overhead_s"], 0.0) + layers["trace.startup_s"] * (1.0 + bound)
    if layers["trace.unattributed_s"] > allowed:
        tally.fail(
            f"spans miss {layers['trace.unattributed_s']!r} s of the traced request, "
            f"more than the {allowed!r} s of start-up, exit and tracing overhead"
        )


def _exact_counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if k.endswith(EXACT_SUFFIXES)}


def _merge_layers(passes: list[dict], tally: Tally) -> dict:
    """Median over traced passes; counts must agree exactly."""
    counts = [_exact_counts(p) for p in passes]
    for other in counts[1:]:
        if other != counts[0]:
            diff = sorted(k for k in counts[0] if counts[0][k] != other.get(k))
            tally.fail(f"traced runs disagree on counts {diff}")
    merged = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    merged.update(counts[0])
    return merged


def trace_large(runner: Runner, workload: str, tally: Tally):
    """Untraced and traced requests, alternating, two each; every report must match the first."""
    truth = fs_truth()
    reference = None
    passes, untraced, traced, attributed = [], [], [], []
    for i in range(2):
        code, wall, _rss, out = runner.cli(LARGE[workload])
        check_request(workload, tally, code, out, truth)
        if code is None:
            return None
        reference = out if reference is None else reference
        if out.encode() != reference.encode():
            tally.fail("two untraced reports differ")
        untraced.append(wall)
        code, wall, _rss, results, spans = runner.child([LARGE[workload]], f"traced{i}", traced=True)
        traced.append(wall)
        if results is None:
            tally.attempted += 1
            tally.fail(f"traced process exited {code}")
            return None
        result = results["requests"][0]
        check_request(workload, tally, result["code"], result["report"], truth)
        if result["report"].encode() != reference.encode():
            tally.fail("traced report differs from the untraced one")
        check_spans(tally, spans, results["loop_seconds"])
        passes.append(layer_metrics(spans))
        attributed.append(sum(root_durations(spans)))
    layers = _merge_layers(passes, tally)
    layers["trace.request_s"] = statistics.median(traced)
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    layers["trace.unattributed_s"] = statistics.median(traced) - statistics.median(attributed)
    return layers


def trace_population(runner: Runner, seed: int, seconds: int, tally: Tally):
    """The population untraced, then twice traced; every traced report must match."""
    truths, requests = _population(runner, seed, seconds)
    done = _population_pass(runner, truths, requests, "untraced", False, tally)
    if done is None:
        return None
    reference = done[1]
    passes, medians, attributed = [], [], []
    for i in range(2):
        done = _population_pass(runner, truths, requests, f"traced{i}", True, tally)
        if done is None:
            return None
        _rss, results, spans = done
        mismatched = sum(
            result["report"].encode() != ref["report"].encode() or result["code"] != ref["code"]
            for result, ref in zip(results["requests"], reference["requests"])
        )
        if mismatched:
            tally.fail(f"{mismatched} traced reports differ from the untraced ones")
        check_spans(tally, spans, results["loop_seconds"])
        passes.append(layer_metrics(spans))
        medians.append(statistics.median(r["seconds"] for r in results["requests"]))
        attributed.append(statistics.median(root_durations(spans)))
    layers = _merge_layers(passes, tally)
    traced = statistics.median(medians)
    layers["trace.request_s"] = traced
    layers["trace.overhead_s"] = traced - statistics.median(r["seconds"] for r in reference["requests"])
    layers["trace.unattributed_s"] = traced - statistics.median(attributed)
    return layers


# ---------------------------------------------------------------- reporting


def _git_commit():
    """HEAD of the git checkout at the working directory, or None outside one.

    GIT_CEILING_DIRECTORIES keeps git from finding a repository above the
    working directory, so a plain source tree reports None.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(runner: Runner, args) -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "nproc": runner.nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": deps["blas"]["name"], "version": deps["blas"]["version"]},
        "lapack": {"name": deps["lapack"]["name"], "version": deps["lapack"]["version"]},
        "blas_threads": int(runner.env["OPENBLAS_NUM_THREADS"]),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "bounds": {m["name"]: m["bound"] for m in spec["end_to_end"]},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*LARGE, POPULATION))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_DEADLINE_S
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "finapprox" / "cli.py").is_file():
        print("error: run from the repository root; src/finapprox is missing", file=sys.stderr)
        return 2
    spec = load_spec()

    run_root = ROOT / ".bench_run"
    workdir = run_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workdir, deadline)
        # Set-up is sampled before and after the requests, so the median spans
        # the run rather than one moment of a machine whose speed drifts.
        setup, setup_walls = runner.setup_seconds(warm_up=True)
        tally = Tally()
        if args.trace:
            if args.workload == POPULATION:
                layers = trace_population(runner, args.seed, args.seconds, tally)
            else:
                layers = trace_large(runner, args.workload, tally)
        elif args.workload == POPULATION:
            table = run_population(runner, args.seed, args.seconds, tally)
        else:
            table = run_large(runner, args.workload, args.seconds, tally)
        after, after_walls = runner.setup_seconds(warm_up=False)
        setup_s = (statistics.median(setup + after), "s", len(setup + after))
        if args.trace:
            table = {k: (v, spec["per_layer"].get(k, ""), 2) for k, v in (layers or {}).items()}
            if layers:
                table["trace.startup_s"] = (statistics.median(setup_walls + after_walls), "s", len(setup_walls + after_walls))
            if layers and args.workload in LARGE:
                check_unattributed(tally, {k: v for k, (v, _u, _n) in table.items()}, spec["bounds"]["setup_s"])
            table["setup_s"] = setup_s
            wanted = spec["per_layer"]
        else:
            table["setup_s"] = setup_s
            wanted = spec["end_to_end"]
        attempted = max(tally.attempted, 1)
        # checks of a whole pass (spans, counts) can add failures beyond the requests
        failed = min(len(tally.failures), attempted)
        counts = {
            "failed_frac": (failed / attempted, "share", attempted),
            "wrong_verdicts": (tally.wrong_verdicts, "count", attempted),
            "inconclusive_verdicts": (tally.inconclusive_verdicts, "count", attempted),
            "oracle_errors": (tally.oracle_errors, "count", attempted),
            "identity_violations": (tally.identity_violations, "count", attempted),
            "worst_identity_ratio": (tally.worst_identity_ratio, "ratio", attempted),
        }
        meta = metadata(runner, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run_root.rmdir()
        except OSError:
            pass

    print(f"finapprox benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("metadata " + json.dumps(meta, sort_keys=True))
    for name, (value, unit, samples) in {**table, **counts}.items():
        print(f"{name:34s} {value!r:>24} {unit:12s} n={samples}")
    for reason in tally.failures[:20]:
        print(f"FAILED {reason}")
    for note in tally.contradictions[:20]:
        print(f"COUNTED WRONG VERDICT {note}")
    missing = sorted(set(wanted) - set(table))
    correct = not tally.failures and not missing
    if missing:
        print(f"FAILED metrics not produced: {missing}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": table[name][0], "unit": unit}
            for name, unit in wanted.items()
            if name in table
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)

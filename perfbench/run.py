"""Benchmark of lastlayer's three-way comparison and self-checks.

Usage, from the root of a checkout that holds ``src/lastlayer``:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): ``compare-regression``, ``compare-classification``
and ``self-check``.  Each runs lastlayer CLI commands, every one in a fresh
process, in whole rounds until the next round would end after ``--seconds``.
Every run checks the outputs, prints the environment on one line and, as its
last line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run makes one plain round and one traced round
(perfbench/traced.py) of the same commands and reports per-layer metrics.
Scratch files go under ``.perfbench_work/`` in the checkout and are removed
at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

# A child's ru_maxrss also counts the address space it was forked from, so
# this process imports numpy, scipy and lastlayer only after every timed
# command has run; until then it stays far smaller than any command.

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("compare-regression", "compare-classification", "self-check")
SETUP_REPEATS = 7
CHECK_SEEDS_PER_ROUND = 10
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Proc:
    label: str
    wall: float
    cpu: float
    rss_mb: float
    status: int
    stdout: str


@dataclass
class Round:
    directory: str
    procs: list

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.procs)

    @property
    def cpu(self) -> float:
        return sum(p.cpu for p in self.procs)

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)


@dataclass
class Workload:
    name: str
    run_seed: int
    config: str | None  # compare workloads: bundled name or config path
    commands: list  # (label, lastlayer CLI arguments), run in a round directory
    setup_args: list  # setup_probe.py arguments

    def cfg(self):
        """The config as ``lastlayer compare`` reads it, seeds overridden."""
        from argparse import Namespace

        from lastlayer import cli

        return cli._load_config(Namespace(config=self.config, seed=self.run_seed))


def spawn(label: str, argv: list, cwd: str) -> Proc:
    """Run one process to its end; wall time, user + system CPU and peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    stdout = os.path.join(cwd, label + ".out")
    with open(stdout, "wb") as out, open(os.path.join(cwd, label + ".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(os.path.join(cwd, label + ".err"), encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(f"{label} exited with status {proc.returncode}\n{fh.read()[-2000:]}")
    return Proc(label, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode, stdout)


def make_workload(name: str, seed: int, work: str) -> Workload:
    if name == "self-check":
        first = seed * CHECK_SEEDS_PER_ROUND
        commands = [
            (f"check-{k}", ["check", "--seed", str(k), "--out", f"check-{k}.json"])
            for k in range(first, first + CHECK_SEEDS_PER_ROUND)
        ]
        commands.append(("convexity", ["check", "--convexity", "--seed", str(seed)]))
        return Workload(name, seed, None, commands, [])
    if name == "compare-regression":
        config = "synthetic"
    else:
        config = os.path.join(work, "classification.json")
        subprocess.run([sys.executable, os.path.join(HERE, "classdata.py"), str(seed), work],
                       check=True)
    commands = [("compare", ["compare", "--config", config, "--seed", str(seed), "--out", "compare"])]
    return Workload(name, seed, config, commands, [config, str(seed)])


def run_round(wl: Workload, directory: str, traced: bool = False) -> Round:
    os.makedirs(directory)
    procs = []
    for label, args in wl.commands:
        if traced:
            trace_out = os.path.join(directory, label + ".trace.json")
            argv = [sys.executable, os.path.join(HERE, "traced.py"), trace_out, *args]
        else:
            argv = [sys.executable, "-m", "lastlayer.cli", *args]
        procs.append(spawn(label, argv, directory))
    return Round(directory, procs)


def measure_setup(wl: Workload, directory: str) -> float:
    """Median wall time of fresh set-up probes, after one untimed warm-up
    that byte-compiles the package and fills the file cache."""
    os.makedirs(directory)
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), *wl.setup_args]
    probes = [spawn("setup", argv, directory) for _ in range(SETUP_REPEATS + 1)]
    if any(p.status != 0 for p in probes):
        raise RuntimeError("set-up probe failed")
    return statistics.median(p.wall for p in probes[1:])


def read_outputs(wl: Workload, rnd: Round):
    """(attempted, failed, outputs) of one round.  An operation is one
    comparison row or one self-check; the gradient self-check is one
    operation over all of the round's seeds."""
    import checks

    by_label = {p.label: p for p in rnd.procs}
    if wl.config is not None:
        expected = len(wl.cfg().checkpoints)
        path = os.path.join(rnd.directory, "compare", "comparison.csv")
        if by_label["compare"].status != 0 or not os.path.exists(path):
            return expected, expected, None
        rows = checks.read_comparison(path)
        valid = {(r["seed"], r["iterations"]) for r in rows}
        return expected, expected - min(expected, len(valid)), rows
    attempted = failed = 0
    reports = {}
    for label, _ in wl.commands[:-1]:
        path = os.path.join(rnd.directory, label + ".json")
        if by_label[label].status not in (0, 1) or not os.path.exists(path):
            attempted += 1
            failed += 1
            continue
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        report["status"] = by_label[label].status
        reports[label] = report
        counted = [c for c in report["checks"] if c["name"] != checks.GRADIENT_CHECK]
        attempted += len(counted)
        failed += sum(1 for c in counted if not c["passed"])
    # the gradient check is one operation per round, over all its seeds
    attempted += 1
    if checks.gradient_passes(reports) < checks.GRADIENT_MIN_PASSES:
        failed += 1
    convexity = None
    attempted += 1
    try:
        with open(by_label["convexity"].stdout, encoding="utf-8") as fh:
            convexity = json.load(fh)
    except ValueError:
        pass
    if convexity is None or not convexity.get("passed"):
        failed += 1
    return attempted, failed, (reports, convexity or {})


def output_files(rnd: Round) -> dict:
    """Bytes of every file a round's commands wrote, by relative path."""
    found = {}
    for base, _, names in os.walk(rnd.directory):
        for name in names:
            if name.endswith((".err", ".trace.json")):
                continue
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, rnd.directory)] = fh.read()
    return found


def program_run(wl: Workload):
    """Run the workload's comparison in this process through lastlayer's own
    ``run_experiment`` and capture what the CLI never writes out.

    Returns the CSV text of the rows and, per checkpoint, a record of the
    train and test sets, the classic network, the post-trained network and
    its metrics, and the closed-form network (None without a closed form).
    The captures are wrappers, installed where the program looks the
    functions up by name, on ``_materialize_data``, ``post_train`` and
    ``_optimal_last_layer``.
    """
    from lastlayer import experiment, posttrain, rows_to_csv
    from traced import Recorder

    cfg = wl.cfg()
    data, tuned, best = [], [], []
    rec = Recorder()
    rec.wrap(experiment, "_materialize_data", "data", lambda a, k, r, e: data.append(r))
    rec.wrap(posttrain, "post_train", "post_train", lambda a, k, r, e: tuned.append((a[0], a[1], *r)))
    rec.wrap(experiment, "_optimal_last_layer", "optimal", lambda a, k, r, e: best.append(r))
    csv_text = rows_to_csv(experiment.run_experiment(cfg))
    (_, test), = data
    best += [None] * (len(tuned) - len(best))
    records = [
        {"checkpoint": c, "train": train, "test": test, "net": net, "tuned": t, "metrics": m,
         "best": b}
        for c, (net, train, t, m), b in zip(cfg.checkpoints, tuned, best)
    ]
    return csv_text, records


def check_outputs(wl: Workload, rnd: Round, outputs) -> list:
    import checks

    if outputs is None:
        return [f"{wl.name}: the CLI wrote no output"]
    if wl.config is None:
        return checks.check_reports(*outputs)
    cfg = wl.cfg()
    csv_text, records = program_run(wl)
    failures = []
    with open(os.path.join(rnd.directory, "compare", "comparison.csv"), encoding="utf-8") as fh:
        if fh.read() != csv_text:
            failures.append(f"{wl.name}: comparison.csv differs from the in-process run's rows")
    if len(records) != len(cfg.checkpoints):
        return failures + [f"{wl.name}: captured {len(records)} checkpoints in-process"]
    if cfg.loss == "squared_error":
        return failures + checks.check_regression(cfg, wl.run_seed, outputs, records)
    return failures + checks.check_classification(cfg, wl.run_seed, outputs, records)


def check_rounds(wl: Workload, rounds: list) -> tuple:
    """(attempted, failed, failures, outputs of the first round): counts over
    all rounds; the first round's outputs are checked, and every later round
    must write the same bytes."""
    attempted = failed = 0
    first_outputs = None
    for rnd in rounds:
        a, f, outputs = read_outputs(wl, rnd)
        attempted += a
        failed += f
        if first_outputs is None:
            first_outputs = outputs
    failures = []
    try:
        failures += check_outputs(wl, rounds[0], first_outputs)
    except Exception:  # a crash in a check is a failed check, reported in full
        failures.append(traceback.format_exc())
    reference = output_files(rounds[0])
    for rnd in rounds[1:]:
        if output_files(rnd) != reference:
            failures.append(f"{rnd.directory}: outputs differ from the first round's")
    return attempted, failed, failures, first_outputs


def timed_run(wl: Workload, seconds: float, work: str):
    setup_s = measure_setup(wl, os.path.join(work, "setup"))
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(wl, os.path.join(work, f"round{len(rounds)}")))
        if time.perf_counter() - start + rounds[-1].wall > seconds:
            break
    attempted, failed, failures, _ = check_rounds(wl, rounds)
    values = {
        "wall_s": statistics.median(r.wall for r in rounds),
        "setup_s": setup_s,
        "cpu_s": statistics.median(r.cpu for r in rounds),
        "peak_rss_mb": statistics.median(r.rss_mb for r in rounds),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(f"rounds: {len(rounds)}; round wall_s: {[round(r.wall, 3) for r in rounds]}")
    return attempted, failed, failures, metrics


def traced_run(wl: Workload, work: str):
    plain = run_round(wl, os.path.join(work, "plain"))
    traced = run_round(wl, os.path.join(work, "traced"), traced=True)
    import checks
    from traced import LAYER_UNITS

    attempted, failed, failures, plain_outputs = check_rounds(wl, [plain])
    a, f, traced_outputs = read_outputs(wl, traced)
    attempted += a
    failed += f
    if plain_outputs is not None and traced_outputs is not None:
        if wl.config is not None:
            failures += checks.rows_agree(plain_outputs, traced_outputs, checks.TRACE_RTOL, "traced rows")
        else:
            failures += checks.reports_agree(plain_outputs[0], traced_outputs[0], checks.TRACE_RTOL,
                                             "traced self-check")
    totals = dict.fromkeys(LAYER_UNITS, 0)
    for label, _ in wl.commands:
        path = os.path.join(traced.directory, label + ".trace.json")
        if not os.path.exists(path):
            failures.append(f"traced {label}: no trace written")
            continue
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for key, value in doc["metrics"].items():
            totals[key] += value
        for name, entry in doc["checks"].items():
            if entry["max_error"] > entry["tolerance"]:
                failures.append(f"traced {label}: {name} max error {entry['max_error']!r} "
                                f"exceeds {entry['tolerance']!r} over {entry['samples']} samples")
    totals["trace.overhead_s"] = traced.wall - plain.wall
    metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in totals.items()}
    return attempted, failed, failures, metrics


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libraries = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libraries):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lastlayer", "__init__.py")):
        print(f"error: no lastlayer package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # on SIGTERM, unwind so that the running child is killed and scratch removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        wl = make_workload(args.workload, args.seed, work)
        if args.trace:
            attempted, failed, failures, metrics = traced_run(wl, work)
        else:
            attempted, failed, failures, metrics = timed_run(wl, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

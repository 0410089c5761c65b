"""Output bytes pinned across commits.

Each case runs CLI commands in process and compares one output file byte
for byte with a copy kept under ``tests/golden/``.  The copies were made
before the ordered ``matmul`` changed its memory layout and before
post-training's gradient began to reuse the accepted trial's output, and
the minibatch and converged post-training cases before the descent loop
moved into ``post_train``; all three changes promise the same bytes.
The two ``check`` reports were made again when the self-checks' random
instances moved from numpy's Generator onto the package's SplitMix64
stream, and when the post-training check gained its cross-entropy
instance, which added three entries and left every other byte alone.  An
intended change of output bytes regenerates them with

    PYTHONPATH=src python tests/test_golden.py

which prints each file whose bytes changed.  When none did, the machines
``environment.json`` lists stay listed; when some did, it lists this
machine alone.

The bytes also depend on the machine: numpy's exp, log and tanh kernels,
and the log1p and cos of ``Rng.normals``, may differ in the last bit
between the SIMD extensions they dispatch to, and
the synthetic data and the Cholesky solve run on BLAS.  So
``environment.json`` lists where the copies were made, first, and every
other machine where each case produced them byte for byte, and the cases
are skipped, naming the difference from the first, elsewhere.  On a new
machine

    PYTHONPATH=src python tests/test_golden.py --check

runs every case and adds the machine to that list if no byte differs.
The cases that run on ``matmul``'s numpy route also compare its bytes with
the einsum route's, on every machine where numpy's einsum passes the probe.
"""

import json
import platform
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from conftest import MATMUL_ROUTES

from lastlayer import linalg
from lastlayer.cli import main
from lastlayer.data import Dataset, gen_synthetic, save_csv

# output bytes must not depend on the number of BLAS threads
pytestmark = pytest.mark.blas_threads

GOLDEN = Path(__file__).resolve().parent / "golden"


def environment() -> dict:
    """numpy's version, the SIMD extensions it found, its BLAS build and the
    CPU model, or only the version on a numpy without ``show_config``'s
    dict form."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        return {"numpy": np.__version__}
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        models = [line for line in cpuinfo.read_text().splitlines() if line.startswith("model name")]
        cpu = models[0].split(":", 1)[1].strip() if models else cpu
    return {
        "numpy": np.__version__,
        "simd": config["SIMD Extensions"]["found"],
        "blas": config["Build Dependencies"]["blas"].get("openblas configuration"),
        "cpu": cpu,
    }


def cross_entropy_config(directory: Path, **posttrain) -> str:
    """Write a 3-class CSV and a tiny cross-entropy config that reads it;
    return the config's path.  Labels are the argmax of x0 - x3, x1 - x4
    and x2 - x5 over inputs drawn by the package's own generator.  Keys in
    ``posttrain`` replace those of the config's posttrain section."""
    x = gen_synthetic(800, seed=17).x
    labels = np.argmax(x[:, :3] - x[:, 3:6], axis=1)
    csv_path = directory / "classes.csv"
    save_csv(Dataset(x, np.eye(3)[labels]), str(csv_path))
    config = {
        "dataset": {"kind": "csv", "path": str(csv_path),
                    "feature_columns": [f"x{i}" for i in range(10)],
                    "target_columns": ["y0", "y1", "y2"], "has_header": True},
        "split": {"fraction": 0.7, "seed": 2},
        "standardize": True,
        "network": {"init_seed": 3, "layers": [
            {"input_dim": 10, "output_dim": 7, "activation": "tanh", "has_bias": True},
            {"input_dim": 7, "output_dim": 3, "activation": "softmax", "has_bias": True},
        ]},
        "loss": "cross_entropy",
        "train": {"iterations": 30, "batch_size": 20, "lr0": 0.1, "lr_decay": 1.0,
                  "dropout_keep": [1.0], "weight_decay": 0.001, "seed": 4, "eval_every": 10},
        "posttrain": {"lambda": 0.001, "iterations": 25, "mode": "full_batch_backtracking",
                      "seed": 5, **posttrain},
        "checkpoints": [10, 30],
        "metric": "classification_error",
        "seeds": [0],
    }
    config_path = directory / "classes.json"
    config_path.write_text(json.dumps(config))
    return str(config_path)


def squared_error_config(directory: Path) -> str:
    """Write a small squared-error config, the bundled synthetic one on 1000
    rows, with full-batch post-training whose ``grad_tol`` ends the run as
    converged before its 200 iterations; return the config's path."""
    doc = json.loads(resources.files("lastlayer.configs").joinpath("synthetic.json").read_text())
    doc["dataset"]["n"] = 1000
    doc["train"]["iterations"] = 100
    doc["checkpoints"] = [100]
    doc["seeds"] = [0]
    doc["posttrain"] = {"lambda": 0.001, "iterations": 200, "mode": "full_batch_backtracking",
                        "seed": 5, "grad_tol": 0.001}
    config_path = directory / "squared.json"
    config_path.write_text(json.dumps(doc))
    return str(config_path)


def compare(directory: Path, config: str, *options: str, jobs: int = 1) -> Path:
    """Output directory of ``compare --config`` ``config`` with ``options``,
    run by ``main`` with at most ``jobs`` forked workers."""
    out = directory / "compare"
    assert main(["compare", "--config", config, *options, "--out", str(out)], jobs=jobs) == 0
    return out


def synthetic_comparison(directory: Path, jobs: int = 1) -> Path:
    """``compare --config synthetic --seed 0``."""
    return compare(directory, "synthetic", "--seed", "0", jobs=jobs)


def cross_entropy_comparison(directory: Path, jobs: int = 1) -> Path:
    """``compare`` on the tiny cross-entropy config."""
    return compare(directory, cross_entropy_config(directory), jobs=jobs)


def posttrain_metrics(directory: Path, config: str) -> bytes:
    """posttrain_metrics.csv of ``post-train`` on the network that ``train``
    makes from ``config``."""
    assert main(["train", "--config", config, "--out", str(directory / "train")]) == 0
    assert main(["post-train", "--config", config,
                 "--network", str(directory / "train" / "network.json"),
                 "--out", str(directory / "pt")]) == 0
    return (directory / "pt" / "posttrain_metrics.csv").read_bytes()


def cross_entropy_posttrain_metrics(directory: Path) -> bytes:
    """Full-batch post-training on the tiny cross-entropy config."""
    return posttrain_metrics(directory, cross_entropy_config(directory))


def cross_entropy_minibatch_posttrain_metrics(directory: Path) -> bytes:
    """Minibatch post-training on the tiny cross-entropy config."""
    config = cross_entropy_config(directory, mode="minibatch", batch_size=20, lr=0.1)
    return posttrain_metrics(directory, config)


def squared_error_converged_posttrain_metrics(directory: Path) -> bytes:
    """Full-batch squared-error post-training that stops as converged, so the
    row count pins the iteration it stops at."""
    return posttrain_metrics(directory, squared_error_config(directory))


def self_check_report(seed: int):
    """Produce the ``--out`` JSON of ``check --seed`` ``seed``."""
    def produce(directory: Path) -> bytes:
        assert main(["check", "--seed", str(seed), "--out", str(directory / "check.json")]) == 0
        return (directory / "check.json").read_bytes()
    return produce


def comparison_csv(run):
    """Produce the comparison.csv of ``run``, which runs ``compare``."""
    return lambda directory: (run(directory) / "comparison.csv").read_bytes()


COMPARISONS = {
    "synthetic_seed0_comparison.csv": synthetic_comparison,
    "cross_entropy_comparison.csv": cross_entropy_comparison,
}

CASES = {
    **{name: comparison_csv(run) for name, run in COMPARISONS.items()},
    "cross_entropy_posttrain_metrics.csv": cross_entropy_posttrain_metrics,
    "cross_entropy_minibatch_posttrain_metrics.csv": cross_entropy_minibatch_posttrain_metrics,
    "squared_error_converged_posttrain_metrics.csv": squared_error_converged_posttrain_metrics,
    "check_seed0.json": self_check_report(0),
    "check_seed47.json": self_check_report(47),
}


# the synthetic and cross-entropy cases, which test_output_matches_golden_bytes
# runs on matmul's einsum route wherever the probe accepts it
NUMPY_ROUTE_CASES = [
    "synthetic_seed0_comparison.csv", "cross_entropy_comparison.csv",
    "cross_entropy_posttrain_metrics.csv", "cross_entropy_minibatch_posttrain_metrics.csv",
]


def made_here() -> bool:
    """True where ``environment.json`` lists this machine."""
    return environment() in json.loads((GOLDEN / "environment.json").read_text())


def skip_unless_made_here():
    if not made_here():
        checked = json.loads((GOLDEN / "environment.json").read_text())
        here = environment()
        made = checked[0]
        differ = sorted(key for key in made.keys() | here.keys() if made.get(key) != here.get(key))
        pytest.skip(f"golden bytes were made where {', '.join(differ)} differ from this machine's")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name, tmp_path, capsys):
    skip_unless_made_here()
    got = CASES[name](tmp_path)
    capsys.readouterr()
    assert got == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", NUMPY_ROUTE_CASES)
def test_numpy_route_gives_the_golden_bytes(name, tmp_path, capsys, monkeypatch):
    # the fallback where numpy's einsum fails matmul's probe: the einsum
    # route's bytes on every machine, and the golden bytes where they were
    # checked
    routes = {}
    for route in sorted(MATMUL_ROUTES):
        monkeypatch.setattr(linalg, "_EINSUM_ROUTE", MATMUL_ROUTES[route])
        (tmp_path / route).mkdir()
        routes[route] = CASES[name](tmp_path / route)
    capsys.readouterr()
    if made_here():
        assert routes["numpy"] == (GOLDEN / name).read_bytes()
    if "einsum" not in routes:
        pytest.skip("numpy's einsum fails matmul's probe, so there is no einsum route to compare")
    assert routes["numpy"] == routes["einsum"]


@pytest.mark.parametrize("name", sorted(COMPARISONS))
def test_compare_bytes_do_not_depend_on_the_cpus(name, tmp_path, capsys):
    # with two jobs a forked worker runs every checkpoint's branch but the
    # last, with one compare forks none; the worker count is no config key
    skip_unless_made_here()
    outs = []
    for jobs in (1, 2):
        outs.append(COMPARISONS[name](tmp_path, jobs).rename(tmp_path / f"cpus{jobs}"))
    capsys.readouterr()
    for out in outs:
        assert (out / "comparison.csv").read_bytes() == (GOLDEN / name).read_bytes()
    resolved = (outs[0] / "resolved_config.json").read_bytes()
    assert (outs[1] / "resolved_config.json").read_bytes() == resolved
    assert "jobs" not in json.loads(resolved)


def update_golden(cases: dict, golden: Path, check: bool) -> list:
    """Run every case of ``cases`` and return the names whose bytes differ
    from their copies under ``golden``, or that have none.  Unless
    ``check``, write those copies anew.  Then, unless ``check`` found a
    difference, ``environment.json`` lists this machine: after the machines
    it listed when no byte changed, and alone when some did, since the
    other machines made the old bytes."""
    listed = golden / "environment.json"
    checked = json.loads(listed.read_text()) if listed.exists() else []
    changed = []
    for name, produce in cases.items():
        with tempfile.TemporaryDirectory() as work:
            got = produce(Path(work))
        path = golden / name
        if not path.exists() or got != path.read_bytes():
            changed.append(name)
            if not check:
                path.write_bytes(got)
    if changed and check:
        return changed
    if changed:
        checked = []
    if environment() not in checked:
        checked.append(environment())
    listed.write_text(json.dumps(checked, indent=2) + "\n")
    return changed


class TestUpdateGolden:
    OTHER = {"numpy": "0", "cpu": "another machine"}

    def golden(self, tmp_path) -> Path:
        (tmp_path / "a.csv").write_bytes(b"a")
        (tmp_path / "b.csv").write_bytes(b"b")
        (tmp_path / "environment.json").write_text(json.dumps([self.OTHER]))
        return tmp_path

    @staticmethod
    def cases(b: bytes) -> dict:
        return {"a.csv": lambda directory: b"a", "b.csv": lambda directory: b}

    def listed(self, golden: Path) -> list:
        return json.loads((golden / "environment.json").read_text())

    @pytest.mark.parametrize("check", [False, True])
    def test_unchanged_bytes_keep_the_listed_machines(self, tmp_path, check):
        golden = self.golden(tmp_path)
        assert update_golden(self.cases(b"b"), golden, check) == []
        assert self.listed(golden) == [self.OTHER, environment()]

    def test_changed_bytes_list_this_machine_alone(self, tmp_path):
        golden = self.golden(tmp_path)
        assert update_golden(self.cases(b"c"), golden, check=False) == ["b.csv"]
        assert (golden / "b.csv").read_bytes() == b"c"
        assert self.listed(golden) == [environment()]

    def test_check_writes_nothing_when_a_byte_differs(self, tmp_path):
        golden = self.golden(tmp_path)
        assert update_golden(self.cases(b"c"), golden, check=True) == ["b.csv"]
        assert (golden / "b.csv").read_bytes() == b"b"
        assert self.listed(golden) == [self.OTHER]


if __name__ == "__main__":
    check = sys.argv[1:] == ["--check"]
    GOLDEN.mkdir(exist_ok=True)
    changed = update_golden(CASES, GOLDEN, check)
    for name in changed:
        print(f"{'differs' if check else 'changed'}: {GOLDEN / name}", file=sys.stderr)
    if changed and check:
        sys.exit(1)

"""End-to-end CLI coverage through main(), including byte-determinism of
the comparison output."""

import gc
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lastlayer
from lastlayer import cli, jsonio
from lastlayer.cli import main
from lastlayer.data import load_csv
from lastlayer.experiment import config_from_dict
from lastlayer.network import LayerSpec, build_network, load_network, save_network
from lastlayer.train import PostTrainingDivergedError, TrainingDivergedError
from lastlayer.workers import RemoteTraceback


TINY_CONFIG = {
    "dataset": {"kind": "synthetic", "n": 200, "seed": 1},
    "split": {"fraction": 0.7, "seed": 2},
    "standardize": True,
    "network": {
        "init_seed": 3,
        "layers": [
            {"input_dim": 10, "output_dim": 5, "activation": "tanh", "has_bias": True},
            {"input_dim": 5, "output_dim": 1, "activation": "identity", "has_bias": False},
        ],
    },
    "loss": "squared_error",
    "train": {
        "iterations": 30,
        "batch_size": 20,
        "lr0": 0.02,
        "lr_decay": 1.0,
        "dropout_keep": [1.0],
        "weight_decay": 0.001,
        "seed": 4,
        "eval_every": 10,
    },
    "posttrain": {
        "lambda": 0.001,
        "iterations": 20,
        "mode": "minibatch",
        "batch_size": 20,
        "lr": 0.05,
        "seed": 5,
    },
    "checkpoints": [10, 30],
    "metric": "rmse",
    "krr_convention": "objective_consistent",
    "seeds": [0],
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


@pytest.fixture()
def missing_csv_config(tmp_path):
    """TINY_CONFIG reading its dataset from ``absent.csv``, which is not
    there, so a command that reads the data raises FileNotFoundError."""
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["dataset"] = {"kind": "csv", "path": str(tmp_path / "absent.csv"),
                      "feature_columns": list(range(10)), "target_columns": [10]}
    path = tmp_path / "csv.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestGenData:
    def test_refuses_an_out_path_not_ending_in_csv(self, tmp_path):
        out = tmp_path / "ds.json"
        with pytest.raises(ValueError, match="CSV only"):
            main(["gen-data", "--n", "5", "--out", str(out)])
        assert not out.exists()

    def test_csv_output(self, tmp_path):
        out = tmp_path / "ds.csv"
        assert main(["gen-data", "--n", "10", "--seed", "7", "--out", str(out)]) == 0
        ds = load_csv(str(out), [f"x{i}" for i in range(10)], ["y0"])
        assert ds.n == 10


class TestTrainCommands(object):
    def test_train_post_train_krr(self, tmp_path, config_path):
        train_dir = tmp_path / "train"
        assert main(["train", "--config", config_path, "--out", str(train_dir)]) == 0
        net_path = train_dir / "network.json"
        assert net_path.exists()
        assert (train_dir / "metrics.csv").exists()
        assert (train_dir / "metrics.jsonl").exists()
        assert (train_dir / "resolved_config.json").exists()

        pt_dir = tmp_path / "pt"
        assert main([
            "post-train", "--config", config_path,
            "--network", str(net_path), "--out", str(pt_dir),
        ]) == 0
        tuned = load_network(str(pt_dir / "network_posttrained.json"))
        original = load_network(str(net_path))
        for a, b in zip(original.layers[:-1], tuned.layers[:-1]):
            assert np.array_equal(a.weights, b.weights)

        krr_dir = tmp_path / "krr"
        assert main([
            "krr", "--config", config_path,
            "--network", str(net_path), "--out", str(krr_dir),
        ]) == 0
        solution = jsonio.load(str(krr_dir / "krr_solution.json"))
        assert solution["kind"] == "krr_solution"
        assert solution["convention"] == "objective_consistent"
        optimal = load_network(str(krr_dir / "network_optimal.json"))
        assert optimal.layers[-1].spec.input_dim == 5

    @pytest.mark.parametrize("mode", ["minibatch", "full_batch_backtracking"])
    def test_post_train_reports_the_iterations_it_ran(self, tmp_path, capsys, mode):
        # full-batch descent stops as converged well before its 200
        # iterations once the gradient is below grad_tol; minibatch descent
        # takes all 200 and stops at the cap
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc["posttrain"] = {"lambda": 0.001, "iterations": 200, "mode": mode, "batch_size": 20,
                            "lr": 0.05, "seed": 5, "grad_tol": 0.001}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "train")]) == 0
        capsys.readouterr()
        assert main(["post-train", "--config", str(path), "--out", str(tmp_path / "pt"),
                     "--network", str(tmp_path / "train" / "network.json")]) == 0
        printed = capsys.readouterr().out
        rows = (tmp_path / "pt" / "posttrain_metrics.csv").read_text().splitlines()
        last = int(rows[-1].split(",")[0])
        if mode == "minibatch":
            assert last == 200
            assert printed.startswith("fine-tuned last layer for 200 iterations (iteration_cap); "
                                      "outputs in ")
        else:
            assert last < 200
            assert printed.startswith(f"fine-tuned last layer for {last} iterations (converged); ")

    def test_krr_refuses_cross_entropy_and_mispaired_networks(self, tmp_path, config_path):
        # the closed form minimises the squared-error objective only, so a
        # cross-entropy config or a softmax network must not yield a network;
        # the softmax layer is not the config's identity one
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc.update(loss="cross_entropy", metric="classification_error")
        doc["network"]["layers"][-1]["activation"] = "softmax"
        ce_path = tmp_path / "ce.json"
        ce_path.write_text(json.dumps(doc))
        softmax_net = build_network(
            [LayerSpec(10, 5, "tanh"), LayerSpec(5, 1, "softmax", has_bias=False)], 3
        )
        net_path = tmp_path / "softmax.json"
        save_network(softmax_net, str(net_path))
        out = tmp_path / "krr"
        softmax_layer = ("layer 1 is LayerSpec(input_dim=5, output_dim=1, activation='softmax', "
                         "has_bias=False), but the config's network.layers[1] is LayerSpec("
                         "input_dim=5, output_dim=1, activation='identity', has_bias=False)")
        for config, message in ((str(ce_path), "cross_entropy"),
                                (config_path, re.escape(softmax_layer))):
            with pytest.raises(ValueError, match=message):
                main(["krr", "--config", config, "--network", str(net_path), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("command", ["post-train", "krr"])
    @pytest.mark.parametrize("specs, message", [
        ([LayerSpec(10, 3, "tanh"), LayerSpec(3, 1, "identity", has_bias=False)],
         "layer 0 is LayerSpec(input_dim=10, output_dim=3, activation='tanh', has_bias=True), "
         "but the config's network.layers[0] is LayerSpec(input_dim=10, output_dim=5, "),
        ([LayerSpec(10, 5, "tanh"), LayerSpec(5, 1, "identity", has_bias=False),
          LayerSpec(1, 1, "identity", has_bias=False)],
         "layer 2 is LayerSpec(input_dim=1, output_dim=1, activation='identity', has_bias=False), "
         "but the config's network.layers[2] is absent"),
    ], ids=["narrower", "deeper"])
    def test_network_with_other_layers_is_refused_and_writes_nothing(
            self, tmp_path, config_path, missing_csv_config, command, specs, message):
        # resolved_config.json records the config's layers as the network
        # that ran; the network is refused before the data are read, so
        # before a missing dataset CSV is found
        net_path = tmp_path / "other.json"
        save_network(build_network(specs, 3), str(net_path))
        out = tmp_path / "out"
        for config in (config_path, missing_csv_config):
            with pytest.raises(ValueError, match=re.escape(message)):
                main([command, "--config", config, "--network", str(net_path), "--out", str(out)])
        assert not out.exists()

    def test_post_train_refuses_a_string_weight_and_writes_nothing(self, tmp_path, config_path):
        # the network has the config's layers, but one weight is the string
        # "1", which numpy alone would read as the number 1
        net_path = tmp_path / "net.json"
        specs = [LayerSpec(10, 5, "tanh"), LayerSpec(5, 1, "identity", has_bias=False)]
        save_network(build_network(specs, 3), str(net_path))
        doc = jsonio.load(str(net_path))
        doc["layers"][1]["weights"][0][2] = "1"
        net_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        message = "network key 'layers[1].weights[0][2]' must be a number, got '1'"
        with pytest.raises(ValueError, match=re.escape(message)):
            main(["post-train", "--config", config_path, "--network", str(net_path),
                  "--out", str(out)])
        assert not out.exists()

    def test_single_run_commands_record_the_one_seed_they_ran(self, tmp_path):
        # the bundled config lists five seeds; train, post-train and krr run
        # the first, and re-running train from its resolved config repeats it
        train = tmp_path / "train"
        assert main(["train", "--config", "synthetic", "--out", str(train)]) == 0
        for command in ("post-train", "krr"):
            assert main([command, "--config", "synthetic", "--network", str(train / "network.json"),
                         "--out", str(tmp_path / command)]) == 0
        for command in ("train", "post-train", "krr"):
            assert jsonio.load(str(tmp_path / command / "resolved_config.json"))["seeds"] == [0]
        again = tmp_path / "again"
        assert main(["train", "--config", str(train / "resolved_config.json"),
                     "--out", str(again)]) == 0
        assert (again / "network.json").read_bytes() == (train / "network.json").read_bytes()

    @pytest.mark.parametrize("command", ["train", "post-train", "krr", "compare"])
    def test_missing_dataset_csv_names_it_and_writes_nothing(
            self, tmp_path, missing_csv_config, command):
        # every config command computes before it writes, so a run that
        # fails on its data leaves no --out behind
        net_path = tmp_path / "net.json"
        specs = [LayerSpec(10, 5, "tanh"), LayerSpec(5, 1, "identity", has_bias=False)]
        save_network(build_network(specs, 3), str(net_path))
        out = tmp_path / "out"
        argv = [command, "--config", missing_csv_config, "--out", str(out)]
        if command in ("post-train", "krr"):
            argv += ["--network", str(net_path)]
        with pytest.raises(FileNotFoundError) as err:
            main(argv)
        assert str(tmp_path / "absent.csv") in str(err.value)
        assert "tabular datasets are not bundled" in str(err.value)
        assert not out.exists()

    def test_compare_byte_identical_across_runs(self, tmp_path, config_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert main(["compare", "--config", config_path, "--out", str(dir_a)]) == 0
        assert main(["compare", "--config", config_path, "--out", str(dir_b)]) == 0
        csv_a = (dir_a / "comparison.csv").read_bytes()
        csv_b = (dir_b / "comparison.csv").read_bytes()
        assert csv_a == csv_b
        header = csv_a.decode().splitlines()[0]
        assert header == "iterations,classic,posttrain,optimal,seed"

    def test_seed_flag_overrides_seeds(self, tmp_path, config_path):
        out = tmp_path / "seeded"
        assert main([
            "compare", "--config", config_path, "--seed", "9", "--out", str(out),
        ]) == 0
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        assert all(line.endswith(",9") for line in rows)

    def test_frozen_config_written(self, tmp_path, config_path):
        out = tmp_path / "frozen"
        main(["compare", "--config", config_path, "--out", str(out)])
        frozen = jsonio.load(str(out / "resolved_config.json"))
        assert frozen["train"]["lr0"] == 0.02
        assert frozen["checkpoints"] == [10, 30]

    def test_one_layer_config_round_trips_its_empty_dropout_list(self, tmp_path):
        # a network with no hidden layer takes no keep probability
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc["network"]["layers"] = [
            {"input_dim": 10, "output_dim": 1, "activation": "identity", "has_bias": True}
        ]
        doc["train"]["dropout_keep"] = []
        path = tmp_path / "linear.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "linear"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        text = (out / "resolved_config.json").read_text()
        assert '"dropout_keep": [],' in text
        assert config_from_dict(jsonio.loads(text)) == config_from_dict(doc)


# compare forks its workers from a process whose OpenBLAS may hold a thread
# pool
@pytest.mark.blas_threads
class TestCompareWorkers:
    """The process forks as many compare workers as the CPUs it may use;
    ``main`` is given ``jobs`` here to run with one worker and with two."""

    def test_diverging_post_training_raises_the_same_error_for_any_cpus(self, tmp_path):
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc["posttrain"]["lr"] = 1e8
        path = tmp_path / "diverging.json"
        path.write_text(json.dumps(doc))
        errors = []
        for jobs in (1, 2):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(TrainingDivergedError) as err:
                    main(["compare", "--config", str(path), "--out", str(tmp_path / str(jobs))],
                         jobs=jobs)
            errors.append((err.value.iteration, str(err.value)))
        # the first checkpoint's branch, the one a worker ran with two CPUs
        assert isinstance(err.value.__cause__, RemoteTraceback)
        assert type(err.value) is PostTrainingDivergedError
        assert errors[0] == errors[1]
        assert 0 < errors[0][0] < doc["posttrain"]["iterations"]
        assert errors[0][1].endswith(f"at iteration {errors[0][0]} (seed 0, checkpoint 10)")

    def test_no_worker_outlives_the_command(self, tmp_path, config_path):
        assert main(["compare", "--config", config_path, "--out", str(tmp_path / "ok")],
                    jobs=2) == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc["posttrain"]["lr"] = 1e8
        (tmp_path / "diverging.json").write_text(json.dumps(doc))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError):
                main(["compare", "--config", str(tmp_path / "diverging.json"),
                      "--out", str(tmp_path / "diverged")], jobs=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_cpus_are_those_this_process_may_use(self):
        assert cli._cpus() == len(os.sched_getaffinity(0))

    def test_without_fork_compare_runs_serially(self, tmp_path, config_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert main(["compare", "--config", config_path, "--out", str(tmp_path / "serial")],
                    jobs=2) == 0
        assert len((tmp_path / "serial" / "comparison.csv").read_text().splitlines()) == 3


def _child_env():
    """A copy of this process's environment under which a child process
    imports this checkout's lastlayer package."""
    env = dict(os.environ)
    package_root = str(Path(lastlayer.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def _compare_bytes(out, blas_threads):
    """comparison.csv bytes of ``compare --config synthetic --seed 0`` run in
    a child process with OPENBLAS_NUM_THREADS set to ``blas_threads``, or
    unset when it is None; this process's environment is left alone."""
    env = _child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    subprocess.run(
        [sys.executable, "-m", "lastlayer.cli", "compare", "--config", "synthetic",
         "--seed", "0", "--out", str(out)],
        env=env, check=True, capture_output=True, timeout=600,
    )
    return (out / "comparison.csv").read_bytes()


class TestBlasThreads:
    def test_compare_bytes_independent_of_blas_threads(self, tmp_path):
        # unset loads one thread through lastlayer's default, so 2 spans a
        # second real thread count
        single = _compare_bytes(tmp_path / "one", "1")
        assert single.count(b"\n") == 4
        assert _compare_bytes(tmp_path / "two", "2") == single
        assert _compare_bytes(tmp_path / "default", None) == single


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Imports what argv names, then prints the thread count of the OpenBLAS that
# numpy loaded (null when none is mapped) and whether the imports left
# os.environ as they found it.
_BLAS_PROBE = """
import ctypes, importlib, json, os, sys

before = dict(os.environ)
for name in sys.argv[1:]:
    importlib.import_module(name)

def blas_threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libraries = {line.split()[-1] for line in fh
                         if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
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

print(json.dumps({"threads": blas_threads(), "environ_unchanged": dict(os.environ) == before}))
"""


def _blas_probe(modules, **variables):
    """BLAS thread count of a fresh interpreter that imports ``modules`` in
    order with only ``variables`` of the three thread-count variables set;
    skips when no OpenBLAS library is mapped."""
    env = _child_env()
    for name in _BLAS_THREAD_VARIABLES:
        env.pop(name, None)
    env.update(variables)
    child = subprocess.run([sys.executable, "-c", _BLAS_PROBE, *modules], env=env, check=True,
                           capture_output=True, text=True, timeout=120)
    probe = json.loads(child.stdout)
    if probe["threads"] is None:
        pytest.skip("no OpenBLAS library is mapped")
    assert probe["environ_unchanged"]
    return probe["threads"]


# numpy's bundled OpenBLAS must load with the one thread `import lastlayer`
# asks for and honour a thread count the caller set
@pytest.mark.numpy_floor
class TestBlasThreadDefault:
    def test_import_loads_one_blas_thread(self):
        assert _blas_probe(["lastlayer"]) == 1

    @pytest.mark.parametrize("variable", _BLAS_THREAD_VARIABLES)
    def test_caller_thread_count_wins(self, variable):
        assert _blas_probe(["lastlayer"], **{variable: "2"}) == min(2, len(os.sched_getaffinity(0)))

    def test_numpy_loaded_first_keeps_its_threads(self):
        assert _blas_probe(["numpy", "lastlayer"]) == _blas_probe(["numpy"])


def _loaded_by_cli_import(*packages):
    """Modules of ``packages`` that a fresh ``import lastlayer.cli`` loads."""
    prefixes = tuple(p + "." for p in packages)
    code = (
        "import sys, lastlayer.cli; "
        f"print(sorted(m for m in sys.modules if m in {packages!r} or m.startswith({prefixes!r})))"
    )
    child = subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True,
                           capture_output=True, text=True, timeout=120)
    return child.stdout.strip()


class TestImports:
    def test_cli_imports_no_scipy(self):
        assert _loaded_by_cli_import("scipy") == "[]"

    def test_cli_imports_no_process_pool(self):
        # compare forks its workers with os.fork alone: these two would cost
        # every command about 25 ms and 1 MB
        assert _loaded_by_cli_import("multiprocessing", "concurrent.futures") == "[]"


class TestCheckCommand:
    def test_check_passes(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["check", "--seed", "0", "--out", str(report_path)]) == 0
        captured = capsys.readouterr()
        assert "overall: PASS" in captured.out
        report = jsonio.load(str(report_path))
        assert report["passed"] is True

    def test_check_convexity(self, capsys):
        assert main(["check", "--convexity", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["passed"] is True

    def test_check_convexity_writes_its_stdout_to_out(self, tmp_path, capsys):
        path = tmp_path / "convexity.json"
        assert main(["check", "--convexity", "--seed", "1", "--out", str(path)]) == 0
        assert path.read_bytes() == capsys.readouterr().out.encode("utf-8")


class TestBundledConfigs:
    def test_bundled_configs_parse(self):
        from importlib import resources

        for name in ("synthetic", "parkinson"):
            text = resources.files("lastlayer.configs").joinpath(f"{name}.json").read_text()
            cfg = config_from_dict(jsonio.loads(text))
            assert cfg.checkpoints == [250, 500, 750]
            assert cfg.posttrain.lam == 1e-3
            assert cfg.train.batch_size == 50
            assert cfg.posttrain.iterations == 200
            assert cfg.split_fraction == 0.7


class TestProcessEntryPoint:
    def run_module(self, *args, cwd):
        return subprocess.run([sys.executable, "-m", "lastlayer.cli", *args], cwd=cwd,
                              env=_child_env(), capture_output=True, text=True, timeout=300)

    def test_check_writes_the_in_process_report(self, tmp_path):
        from test_golden import GOLDEN, skip_unless_made_here

        child = self.run_module("check", "--seed", "0", "--out", "r.json", cwd=tmp_path)
        assert child.returncode == 0, child.stderr
        assert "overall: PASS" in child.stdout
        got = (tmp_path / "r.json").read_bytes()
        assert main(["check", "--seed", "0", "--out", str(tmp_path / "in_process.json")]) == 0
        assert got == (tmp_path / "in_process.json").read_bytes()
        skip_unless_made_here()
        assert got == (GOLDEN / "check_seed0.json").read_bytes()

    def assert_never_imports(self, packages, args, cwd, flags=(), env=None):
        """No module of ``packages`` is imported by ``python *flags -m
        lastlayer.cli *args`` in a child; a package that such a child
        importing numpy alone imports is not checked."""
        def imports(*argv):
            child = subprocess.run([sys.executable, *flags, "-X", "importtime", *argv], cwd=cwd,
                                   env=env or _child_env(), capture_output=True, text=True,
                                   timeout=300)
            assert child.returncode == 0, child.stderr
            names = {line.rpartition("|")[2].strip() for line in child.stderr.splitlines()}
            return {p for p in packages if any(n == p or n.startswith(p + ".") for n in names)}

        checked = set(packages) - imports("-c", "import numpy")
        if not checked:
            pytest.skip(f"this numpy imports {packages} itself")
        assert imports("-m", "lastlayer.cli", *args) & checked == set()

    @pytest.mark.parametrize("args", [["check", "--seed", "0", "--out", "r.json"],
                                      ["check", "--convexity"]])
    def test_check_never_loads_numpy_random(self, tmp_path, args):
        # every draw comes from lastlayer.rng; importing numpy.random would
        # raise each check process's peak memory by about 5.6 MB, and
        # numpy.ma, which np.median imports, by about 0.8 MB
        self.assert_never_imports(("numpy.random", "numpy.ma"), args, tmp_path)

    @pytest.mark.parametrize("args", [["train", "--config", "synthetic", "--out", "out"],
                                      ["check", "--convexity"]])
    def test_no_command_loads_importlib_resources(self, tmp_path, args):
        # bundled configs are read through jsonio.load; importlib.resources
        # would bring about 25 stdlib modules into the process.  Run without
        # the site module, whose .pth hooks may import it first, and with
        # this process's module path spelt out.
        env = _child_env()
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [env["PYTHONPATH"], *sys.path]))
        self.assert_never_imports(("importlib.resources",), args, tmp_path, ("-S",), env)

    def test_failing_command_exits_non_zero_with_its_error(self, tmp_path):
        child = self.run_module("compare", "--config", "missing.json", "--out", "out", cwd=tmp_path)
        assert child.returncode != 0
        assert "FileNotFoundError" in child.stderr
        assert "missing.json" in child.stderr

    def test_refused_config_prints_one_line_and_writes_nothing(self, tmp_path):
        bundled = Path(lastlayer.__file__).parent / "configs" / "synthetic.json"
        doc = json.loads(bundled.read_text())
        doc["dataset"]["n"] = 60  # 42 training rows, fewer than train.batch_size
        (tmp_path / "small_n.json").write_text(json.dumps(doc))
        child = self.run_module("compare", "--config", "small_n.json", "--out", "out",
                                cwd=tmp_path)
        assert child.returncode != 0
        assert "config key 'train'" in child.stderr
        assert "Traceback" not in child.stderr
        assert not (tmp_path / "out").exists()
        with pytest.raises(ValueError, match="config key 'train'"):
            main(["compare", "--config", str(tmp_path / "small_n.json"),
                  "--out", str(tmp_path / "in_process")])
        assert not (tmp_path / "in_process").exists()

    def assert_diverges_in_one_line(self, argv, tmp_path, error, line):
        """``argv``, whose last two words are ``--out out``, exits 1 in a
        child process with the one stderr line ``line`` and no ``--out``;
        in process it raises ``error`` and no numpy warning."""
        child = self.run_module(*argv, cwd=tmp_path)
        assert child.returncode == 1
        assert child.stderr.splitlines() == [line]
        assert not (tmp_path / "out").exists()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as err:
                main([*argv[:-1], str(tmp_path / "in_process")])
        assert type(err.value) is error
        assert line.endswith(str(err.value))
        assert not (tmp_path / "in_process").exists()

    def test_diverging_post_training_prints_one_line_and_writes_nothing(self, tmp_path):
        bundled = Path(lastlayer.__file__).parent / "configs" / "synthetic.json"
        cfg = config_from_dict(json.loads(bundled.read_text()))
        net = build_network(cfg.layer_specs, 0)
        net.layers[1].weights[:] = 1e306  # relu features near 1e306 overflow the objective
        save_network(net, str(tmp_path / "huge.json"))
        argv = ["post-train", "--config", "synthetic", "--network", str(tmp_path / "huge.json"),
                "--out", "out"]
        self.assert_diverges_in_one_line(
            argv, tmp_path, PostTrainingDivergedError,
            "lastlayer: PostTrainingDivergedError: post-training diverged: "
            "non-finite objective at iteration 0")

    def test_diverging_training_prints_one_line_and_writes_nothing(self, tmp_path):
        bundled = Path(lastlayer.__file__).parent / "configs" / "synthetic.json"
        doc = json.loads(bundled.read_text())
        doc["train"]["lr0"] = 1e6  # SGD overflows at its fourth step
        doc["dataset"]["n"] = 2000
        (tmp_path / "lr.json").write_text(json.dumps(doc))
        argv = ["compare", "--config", str(tmp_path / "lr.json"), "--out", "out"]
        self.assert_diverges_in_one_line(
            argv, tmp_path, TrainingDivergedError,
            "lastlayer: TrainingDivergedError: training diverged: non-finite loss at iteration 3 "
            "(seed 0)")

    def test_run_freezes_after_main_returns(self):
        code = ("import gc, sys; from lastlayer import cli; "
                "sys.argv = ['lastlayer', 'check', '--convexity', '--seed', '1']; "
                "status = cli.run(); print(status, gc.get_freeze_count() > 0)")
        child = subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True,
                               capture_output=True, text=True, timeout=120)
        assert child.stdout.splitlines()[-1] == "0 True"

    def test_run_gives_main_the_cpus_of_this_process(self, monkeypatch):
        # only the process entry point forks compare's branches; an
        # in-process main() runs them here unless given jobs
        calls = []

        def fake_main(argv=None, *, jobs=1):
            calls.append((sys.argv[1:] if argv is None else argv, jobs))
            return 0

        argv = ["compare", "--config", "synthetic", "--out", "unused"]
        monkeypatch.setattr(sys, "argv", ["lastlayer", *argv])
        monkeypatch.setattr(cli, "main", fake_main)
        monkeypatch.setattr(cli, "_cpus", lambda: 3)
        monkeypatch.setattr(cli.gc, "freeze", lambda: None)  # not in the test process
        assert cli.run() == 0
        assert calls == [(argv, 3)]

    def test_in_process_main_freezes_nothing(self, capsys):
        assert main(["check", "--convexity", "--seed", "1"]) == 0
        capsys.readouterr()
        assert gc.get_freeze_count() == 0

    def test_console_script_is_the_process_entry_point(self):
        pyproject = Path(lastlayer.__file__).resolve().parents[2] / "pyproject.toml"
        if not pyproject.is_file():
            pytest.skip("no pyproject.toml beside the package's src directory")
        assert 'lastlayer = "lastlayer.cli:run"' in pyproject.read_text()

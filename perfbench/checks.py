"""Output checks that do not rely on the program's own numerics.

Each check compares what the CLI wrote with a computation made here in
numpy/scipy, or with a property the method must have.  None compares with a
stored copy of earlier output.  Every check returns a list of failure
messages; an empty list means the check passed.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.optimize

# relative agreement of two solves of the same ridge system
RIDGE_RTOL = 1e-8
# relative agreement of a metric recomputed here in numpy (BLAS summation
# order) with the program's ordered-accumulation value
RECOMPUTE_RTOL = 1e-10
# slack for comparisons of objective values that must be ordered
ORDER_RTOL = 1e-12
# traced CLI output against untraced CLI output of the same seed
TRACE_RTOL = 1e-12
# smallest eigenvalue from the program's Jacobi routine against LAPACK
EIG_ATOL = 1e-10
# The self-check whose central differences (step 1e-5) straddle a relu kink
# on a few seeds (47 and 137 of 0-199).  It must pass on at least this many
# of a round's ten check seeds; a broken backward pass fails on all of them.
GRADIENT_CHECK = "gradient_vs_finite_differences"
GRADIENT_MIN_PASSES = 8


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def read_comparison(path: str) -> list:
    """Rows of comparison.csv as dicts; ``optimal`` is None for NA."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "iterations,classic,posttrain,optimal,seed":
        raise ValueError(f"{path}: unexpected header {lines[:1]}")
    rows = []
    for line in lines[1:]:
        it, classic, post, optimal, seed = line.split(",")
        rows.append({
            "iterations": int(it),
            "classic": float(classic),
            "posttrain": float(post),
            "optimal": None if optimal == "NA" else float(optimal),
            "seed": int(seed),
        })
    return rows


def rows_agree(expected: list, actual: list, rtol: float, what: str) -> list:
    if len(expected) != len(actual):
        return [f"{what}: {len(actual)} rows, expected {len(expected)}"]
    failures = []
    for a, b in zip(expected, actual):
        for key, va in a.items():
            vb = b[key]
            if (va is None) != (vb is None) or (va is not None and rel_diff(va, vb) > rtol):
                failures.append(f"{what}: row {a['seed']}/{a['iterations']} {key} {vb!r} != {va!r}")
    return failures


def lower_layers_identical(a, b) -> bool:
    """True when every layer below the last has bit-identical parameters."""
    if len(a.layers) != len(b.layers):
        return False
    for la, lb in zip(a.layers[:-1], b.layers[:-1]):
        if la.weights.tobytes() != lb.weights.tobytes():
            return False
        if (la.bias is None) != (lb.bias is None):
            return False
        if la.bias is not None and la.bias.tobytes() != lb.bias.tobytes():
            return False
    return True


def features(net, x) -> np.ndarray:
    """Last-layer inputs computed here with numpy, bias column folded in."""
    h = np.asarray(x, dtype=np.float64)
    for layer in net.layers[:-1]:
        z = h @ layer.weights.T
        if layer.bias is not None:
            z = z + layer.bias
        kind = layer.spec.activation
        if kind == "tanh":
            h = np.tanh(z)
        elif kind == "relu":
            h = np.maximum(z, 0.0)
        elif kind == "identity":
            h = z
        else:
            raise ValueError(f"hidden activation {kind!r} not supported by the checks")
    if net.layers[-1].bias is not None:
        h = np.hstack([h, np.ones((h.shape[0], 1))])
    return h


def last_weights(net) -> np.ndarray:
    last = net.layers[-1]
    if last.bias is None:
        return last.weights
    return np.hstack([last.weights, last.bias[:, None]])


def ridge_lstsq(feats: np.ndarray, targets: np.ndarray, shift: float) -> np.ndarray:
    """Ridge weights (d_feat x d_out) from one least-squares solve of
    [F; sqrt(shift) I] W = [Y; 0]."""
    d = feats.shape[1]
    a = np.vstack([feats, math.sqrt(shift) * np.eye(d)])
    b = np.vstack([targets, np.zeros((d, targets.shape[1]))])
    return np.linalg.lstsq(a, b, rcond=None)[0]


def squared_objective(feats, targets, w, lam) -> float:
    """mean_i |f_i W^T - y_i|^2 + lam |W|^2, with W output-major."""
    resid = feats @ w.T - targets
    return float(np.sum(resid * resid)) / feats.shape[0] + lam * float(np.sum(w * w))


def _log_softmax(z):
    z = z - np.max(z, axis=1, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))


def softmax_objective(w_flat, feats, targets, lam):
    """Mean cross-entropy plus lam |W|^2 and its gradient; W is (classes x d)."""
    w = w_flat.reshape(targets.shape[1], feats.shape[1])
    logp = _log_softmax(feats @ w.T)
    n = feats.shape[0]
    value = -float(np.sum(targets * logp)) / n + lam * float(np.sum(w * w))
    grad = (np.exp(logp) - targets).T @ feats / n + 2.0 * lam * w
    return value, grad.reshape(-1)


def rmse(pred, targets) -> float:
    diff = pred - targets
    return math.sqrt(float(np.sum(diff * diff)) / pred.shape[0])


def error_rate(pred, targets) -> float:
    return float(np.mean(np.argmax(pred, axis=1) != np.argmax(targets, axis=1)))


def _rows_cover(cfg, run_seed: int, rows: list):
    """Rows keyed by checkpoint, or None when they are not exactly one per
    checkpoint of ``run_seed``."""
    by_iteration = {r["iterations"]: r for r in rows if r["seed"] == run_seed}
    if len(rows) != len(cfg.checkpoints) or set(by_iteration) != set(cfg.checkpoints):
        return None
    return by_iteration


def check_regression(cfg, run_seed: int, rows: list, records: list) -> list:
    """Squared-error comparison: rows, the program's closed form against
    lstsq, objective order, frozen lower layers, at every checkpoint.
    ``records`` hold, per checkpoint, the networks and data of the
    program's own run (see run.py, ``program_run``)."""
    by_iteration = _rows_cover(cfg, run_seed, rows)
    if by_iteration is None:
        return [f"regression: rows {[(r['seed'], r['iterations']) for r in rows]} do not "
                f"cover seed {run_seed} at checkpoints {cfg.checkpoints}"]
    failures = []
    lam = cfg.posttrain.lam
    for rec in records:
        row = by_iteration[rec["checkpoint"]]
        where = f"regression seed {run_seed} checkpoint {rec['checkpoint']}"
        values = [row["classic"], row["posttrain"], row["optimal"]]
        if any(v is None or not math.isfinite(v) or v <= 0.0 for v in values):
            failures.append(f"{where}: values not finite and positive: {values}")
            continue
        train, test = rec["train"], rec["test"]
        net, tuned, best = rec["net"], rec["tuned"], rec["best"]
        f_train, f_test = features(net, train.x), features(net, test.x)
        shift = train.n * lam if cfg.krr_convention == "objective_consistent" else lam
        w_lstsq = ridge_lstsq(f_train, train.y, shift).T
        w_best = last_weights(best)
        error = float(np.max(np.abs(w_best - w_lstsq))) / max(float(np.max(np.abs(w_lstsq))), 1e-300)
        if error > RIDGE_RTOL:
            failures.append(f"{where}: closed-form last layer differs from lstsq by {error!r} relative")
        recomputed = {
            "classic": (rmse(f_test @ last_weights(net).T, test.y), RECOMPUTE_RTOL),
            "posttrain": (rmse(f_test @ last_weights(tuned).T, test.y), RECOMPUTE_RTOL),
            "optimal": (rmse(f_test @ w_lstsq.T, test.y), RIDGE_RTOL),
        }
        for key, (value, tol) in recomputed.items():
            if rel_diff(row[key], value) > tol:
                failures.append(f"{where}: {key} {row[key]!r} but numpy gives {value!r}")
        j_best = squared_objective(f_train, train.y, w_best, lam)
        for name, other in (("classic", net), ("posttrain", tuned)):
            j_other = squared_objective(f_train, train.y, last_weights(other), lam)
            if j_best > j_other * (1.0 + ORDER_RTOL):
                failures.append(f"{where}: closed-form objective {j_best!r} above {name} {j_other!r}")
        for name, other in (("post-trained", tuned), ("closed-form", best)):
            if not lower_layers_identical(net, other):
                failures.append(f"{where}: {name} lower layers differ from classic")
    return failures


def check_classification(cfg, run_seed: int, rows: list, records: list) -> list:
    """Cross-entropy comparison: NA closed form, error grid, Armijo series,
    certified lower bound, frozen lower layers, at every checkpoint."""
    from lastlayer import forward

    by_iteration = _rows_cover(cfg, run_seed, rows)
    if by_iteration is None:
        return [f"classification: rows {[(r['seed'], r['iterations']) for r in rows]} do not "
                f"cover seed {run_seed} at checkpoints {cfg.checkpoints}"]
    failures = []
    lam = cfg.posttrain.lam
    for rec in records:
        row = by_iteration[rec["checkpoint"]]
        where = f"classification seed {run_seed} checkpoint {rec['checkpoint']}"
        train, test, net, tuned = rec["train"], rec["test"], rec["net"], rec["tuned"]
        if row["optimal"] is not None or rec["best"] is not None:
            failures.append(f"{where}: optimal is {row['optimal']!r}, expected NA and no closed form")
        for key, model in (("classic", net), ("posttrain", tuned)):
            value = row[key]
            count = value * test.n
            if not (0.0 <= value <= 1.0 and abs(count - round(count)) <= 1e-9 * test.n):
                failures.append(f"{where}: {key} {value!r} is not a multiple of 1/{test.n} in [0, 1]")
            # same forward code as the CLI, so the error count must match exactly
            if value != error_rate(forward(model, test.x).output, test.y):
                failures.append(f"{where}: {key} {value!r} differs from the captured network")

        series = rec["metrics"].train_losses()
        rises = [i for i in range(1, len(series)) if series[i] > series[i - 1]]
        if rises:
            failures.append(f"{where}: post-train objective rises at iterations {rises[:5]}")
        f_train = features(net, train.x)
        j_classic, _ = softmax_objective(last_weights(net).reshape(-1), f_train, train.y, lam)
        if rel_diff(series[0], j_classic) > RECOMPUTE_RTOL:
            failures.append(f"{where}: series starts at {series[0]!r}, numpy objective {j_classic!r}")
        if series[-1] > j_classic * (1.0 + ORDER_RTOL):
            failures.append(f"{where}: series ends at {series[-1]!r} above classic {j_classic!r}")
        w_end = last_weights(tuned).reshape(-1)
        best = scipy.optimize.minimize(
            softmax_objective, w_end, args=(f_train, train.y, lam), jac=True,
            method="L-BFGS-B", options={"maxiter": 1000, "gtol": 1e-12, "ftol": 0.0},
        )
        value, grad = softmax_objective(best.x, f_train, train.y, lam)
        bound = value - float(grad @ grad) / (4.0 * lam)  # 2*lam-strong convexity
        if series[-1] < bound - ORDER_RTOL * abs(bound):
            failures.append(f"{where}: series ends at {series[-1]!r} below the certified bound {bound!r}")
        if not lower_layers_identical(net, tuned):
            failures.append(f"{where}: post-trained lower layers differ from classic")
    return failures


def gradient_passes(reports: dict) -> int:
    """How many reports pass the finite-difference gradient check."""
    return sum(1 for report in reports.values() for c in report["checks"]
               if c["name"] == GRADIENT_CHECK and c["passed"])


def check_reports(reports: dict, convexity: dict) -> list:
    """Self-check: every check of every report passes, except that the
    finite-difference gradient check need pass on only GRADIENT_MIN_PASSES
    of the reports; the convexity statistics pass.  A command may exit 1
    only through a failing gradient check."""
    failures = []
    for name, report in reports.items():
        bad = [c["name"] for c in report["checks"] if not c["passed"]]
        others = [b for b in bad if b != GRADIENT_CHECK]
        if others or len(report["checks"]) < 2 or report["status"] != (1 if bad else 0):
            failures.append(f"{name}: failing checks {bad} (exit status {report['status']})")
    passes = gradient_passes(reports)
    if passes < GRADIENT_MIN_PASSES:
        failures.append(f"{GRADIENT_CHECK} passes on {passes} of {len(reports)} seeds, "
                        f"fewer than {GRADIENT_MIN_PASSES}")
    if not convexity.get("passed") or convexity["min"] < convexity["all_above"]:
        failures.append(f"convexity statistics failed: {convexity}")
    return failures


def reports_agree(expected: dict, actual: dict, rtol: float, what: str) -> list:
    failures = []
    for name, report in expected.items():
        other = actual.get(name)
        pairs = list(zip(report["checks"], other["checks"])) if other else []
        if len(pairs) != len(report["checks"]) or any(
            a["name"] != b["name"] or a["passed"] != b["passed"]
            or rel_diff(a["max_error"], b["max_error"]) > rtol
            for a, b in pairs
        ):
            failures.append(f"{what}: report {name} differs from the untraced one")
    return failures

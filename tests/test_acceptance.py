"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity and its pinned tolerance.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  The comparison-protocol criterion regenerates the full synthetic
experiment and takes several seconds; everything else is seconds too.
"""

import statistics
import time
from dataclasses import replace as dc_replace

import numpy as np
from conftest import forward_objective, lower_layer_passes, networks_bit_identical

from lastlayer.convexity import SoftmaxInstance, ce_hessian, ce_value, p_matrix
from lastlayer.data import Dataset, gen_synthetic
from lastlayer.experiment import (
    config_from_dict,
    rows_to_csv,
    run_experiment,
)
from lastlayer.kernel import krr_solve, ridge_solve, rkhs_norm_bound
from lastlayer.linalg import matmul, min_eigenvalue_symmetric, sq_frobenius
from lastlayer.network import (
    LayerSpec,
    build_network,
    forward,
    loss_and_gradients,
    loss_eval,
    replace_last_layer,
)
from lastlayer.posttrain import (
    PostTrainConfig,
    _CachedProblem,
    effective_features,
    post_train,
)
from lastlayer.train import TrainConfig, sgd_train


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")


# --------------------------------------------------------------------------
# criterion 1: gradient correctness
# --------------------------------------------------------------------------

def fd_gradient_arrays(net, x, y, loss, step=1e-5):
    grads = []
    for layer in net.layers:
        arrays = [layer.weights] + ([layer.bias] if layer.bias is not None else [])
        for array in arrays:
            g = np.zeros_like(array)
            flat = array.reshape(-1)
            gf = g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = loss_eval(loss, forward(net, x).output, y)
                flat[i] = orig - step
                down = loss_eval(loss, forward(net, x).output, y)
                flat[i] = orig
                gf[i] = (up - down) / (2 * step)
            grads.append(g)
    return grads


def test_criterion_1_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for trial in range(20):
        loss = "squared_error" if trial % 2 == 0 else "cross_entropy"
        depth = int(rng.integers(1, 4))
        widths = [int(rng.integers(2, 9)) for _ in range(depth + 1)]
        specs = []
        for i in range(depth):
            last = i == depth - 1
            act = ("softmax" if loss == "cross_entropy" else "identity") if last else (
                "tanh" if rng.integers(2) else "relu"
            )
            specs.append(LayerSpec(widths[i], widths[i + 1], act, has_bias=not last))
        net = build_network(specs, int(rng.integers(0, 2**31)))
        for layer in net.layers:
            layer.weights += rng.normal(scale=0.2, size=layer.weights.shape)
            if layer.bias is not None:
                layer.bias += rng.normal(scale=0.3, size=layer.bias.shape)
        batch = int(rng.integers(1, 17))
        x = rng.normal(size=(batch, net.input_dim))
        if loss == "squared_error":
            y = rng.normal(size=(batch, net.output_dim))
        else:
            y = np.zeros((batch, net.output_dim))
            y[np.arange(batch), rng.integers(0, net.output_dim, size=batch)] = 1.0
        _, grads = loss_and_gradients(net, x, y, loss)
        ordered = []
        for i, layer in enumerate(net.layers):
            ordered.append(grads.weights[i])
            if layer.bias is not None:
                ordered.append(grads.biases[i])
        reference = fd_gradient_arrays(net, x, y, loss)
        scale = max(1.0, max(float(np.max(np.abs(r))) for r in reference))
        err = max(float(np.max(np.abs(a - b))) for a, b in zip(ordered, reference)) / scale
        worst = max(worst, err)
    elapsed = time.time() - start
    passed = worst <= 1e-5 and elapsed <= 10.0
    report(
        "criterion 1",
        passed,
        f"20 networks, max relative gradient error {worst:.3e} (tol 1e-5), {elapsed:.1f}s (limit 10s)",
    )
    assert worst <= 1e-5
    assert elapsed <= 10.0


# --------------------------------------------------------------------------
# criterion 2: softmax/cross-entropy curvature structure
# --------------------------------------------------------------------------

def fd_hessian_flat(fun, w0, step=1e-4):
    size = w0.size
    hess = np.zeros((size, size))
    for i in range(size):
        for j in range(i, size):
            pp = w0.copy(); pp[i] += step; pp[j] += step
            pm = w0.copy(); pm[i] += step; pm[j] -= step
            mp = w0.copy(); mp[i] -= step; mp[j] += step
            mm = w0.copy(); mm[i] -= step; mm[j] -= step
            hess[i, j] = (fun(pp) - fun(pm) - fun(mp) + fun(mm)) / (4 * step * step)
            hess[j, i] = hess[i, j]
    return hess


def test_criterion_2_hessian_identity_and_psd():
    start = time.time()
    rng = np.random.default_rng(1002)
    worst_fd = 0.0
    worst_eig = 0.0
    worst_dom = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 9))
        inst = SoftmaxInstance(rng.normal(size=(m, n)), rng.normal(size=n), int(rng.integers(0, m)))
        hess = ce_hessian(inst)

        def fun(flat, inst=inst, m=m, n=n):
            return ce_value(SoftmaxInstance(flat.reshape(m, n), inst.x, inst.true_class))

        reference = fd_hessian_flat(fun, inst.w.reshape(-1).copy())
        scale = max(1.0, float(np.max(np.abs(reference))))
        worst_fd = max(worst_fd, float(np.max(np.abs(hess - reference))) / scale)
        worst_eig = max(worst_eig, -min_eigenvalue_symmetric(hess))
        coupling = p_matrix(inst)
        off = np.sum(np.abs(coupling), axis=1) - np.abs(np.diag(coupling))
        worst_dom = max(worst_dom, float(np.max(np.abs(off - np.diag(coupling)))))
    elapsed = time.time() - start
    passed = worst_fd <= 1e-4 and worst_eig <= 1e-10 and worst_dom <= 1e-12 and elapsed <= 30
    report(
        "criterion 2",
        passed,
        f"100 instances: fd-relative {worst_fd:.3e} (tol 1e-4), min-eig deficit "
        f"{worst_eig:.3e} (tol 1e-10), dominance residual {worst_dom:.3e} (tol 1e-12), "
        f"{elapsed:.1f}s (limit 30s)",
    )
    assert worst_fd <= 1e-4
    assert worst_eig <= 1e-10
    assert worst_dom <= 1e-12
    assert elapsed <= 30.0


# --------------------------------------------------------------------------
# criterion 3: iterative fine-tuning reaches the closed form
# --------------------------------------------------------------------------

def test_criterion_3_closed_form_equivalence():
    start = time.time()
    ds = gen_synthetic(1000, seed=1003)
    specs = [
        LayerSpec(10, 16, "tanh"),
        LayerSpec(16, 12, "relu"),
        LayerSpec(12, 1, "identity", has_bias=False),
    ]
    net = build_network(specs, 77)
    net, _ = sgd_train(
        net, ds, TrainConfig(iterations=300, batch_size=50, lr0=0.05, seed=78, eval_every=300),
        "squared_error",
    )
    lam = 1e-3
    # |g| <= 1e-7 * (1 + |W|) bounds the objective gap by |g|^2 / (4 lam),
    # orders of magnitude inside the 1e-6 relative requirement
    tuned, metrics = post_train(
        net, ds, PostTrainConfig(lam=lam, iterations=100000, grad_tol=1e-7), "squared_error"
    )
    feats = effective_features(net, ds.x)
    solution = krr_solve(feats, ds.y, lam, "objective_consistent")
    best = replace_last_layer(net, solution.weights.T)
    obj_opt = forward_objective(best, ds, lam, "squared_error")
    obj_tuned = forward_objective(tuned, ds, lam, "squared_error")
    rel_gap = (obj_tuned - obj_opt) / abs(obj_opt)

    w_star = solution.weights.T
    grad = (2.0 / ds.n) * matmul((matmul(feats, w_star.T) - ds.y).T, feats) + 2.0 * lam * w_star
    grad_norm = float(np.sqrt(sq_frobenius(grad)))
    grad_bound = 1e-8 * (1.0 + float(np.sqrt(sq_frobenius(w_star))))
    elapsed = time.time() - start
    passed = rel_gap <= 1e-6 and grad_norm <= grad_bound and elapsed <= 60
    report(
        "criterion 3",
        passed,
        f"objective gap {rel_gap:.3e} (tol 1e-6) after {metrics.points[-1].iteration} "
        f"iterations ({metrics.termination}), closed-form gradient {grad_norm:.3e} "
        f"(bound {grad_bound:.3e}), {elapsed:.1f}s (limit 60s)",
    )
    assert rel_gap <= 1e-6
    assert grad_norm <= grad_bound
    assert elapsed <= 60.0


# --------------------------------------------------------------------------
# criterion 4: push-through identity
# --------------------------------------------------------------------------

def test_criterion_4_push_through():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 201))
        d = int(rng.integers(1, 21))
        m = int(rng.integers(1, 4))
        feats = rng.standard_normal((n, d))
        y = rng.standard_normal((n, m))
        lam = float(10.0 ** rng.uniform(-4, 0))
        dual = krr_solve(feats, y, lam, "paper_literal")
        primal = ridge_solve(feats, y, lam, "paper_literal").weights
        scale = max(1.0, float(np.max(np.abs(primal))))
        worst = max(worst, float(np.max(np.abs(dual.weights - primal))) / scale)
    passed = worst <= 1e-8
    report("criterion 4", passed, f"50 systems, max primal/dual deviation {worst:.3e} (tol 1e-8)")
    assert worst <= 1e-8


# --------------------------------------------------------------------------
# criterion 5: comparison-table protocol at desk scale
# --------------------------------------------------------------------------

def test_criterion_5_comparison_protocol():
    start = time.time()
    from importlib import resources

    from lastlayer import jsonio

    doc = jsonio.loads(resources.files("lastlayer.configs").joinpath("synthetic.json").read_text())
    cfg = config_from_dict(doc)
    assert cfg.dataset.n == 10000
    assert cfg.checkpoints == [250, 500, 750]
    assert cfg.train.batch_size == 50
    assert cfg.posttrain.lam == 1e-3
    assert cfg.posttrain.iterations == 200
    assert len(cfg.seeds) >= 5

    rows = run_experiment(cfg)
    medians = {}
    for checkpoint in cfg.checkpoints:
        at = [r for r in rows if r.iterations == checkpoint]
        medians[checkpoint] = (
            statistics.median(r.classic for r in at),
            statistics.median(r.posttrained for r in at),
            statistics.median(r.optimal for r in at),
        )
    ordering_ok = all(
        opt <= post <= classic for classic, post, opt in medians.values()
    )
    gap_250 = medians[250][0] - medians[250][1]
    gap_750 = medians[750][0] - medians[750][1]
    narrowing_ok = gap_250 > gap_750
    elapsed = time.time() - start
    passed = ordering_ok and narrowing_ok and elapsed <= 600
    lines = ", ".join(
        f"{cp}: {c:.4f}/{p:.4f}/{o:.4f}" for cp, (c, p, o) in sorted(medians.items())
    )
    report(
        "criterion 5",
        passed,
        f"median RMSE classic/post/optimal {lines}; gap 250 {gap_250:.4f} > gap 750 "
        f"{gap_750:.4f}: {narrowing_ok}; {elapsed:.0f}s (limit 600s)",
    )
    assert ordering_ok, medians
    assert narrowing_ok, (gap_250, gap_750)
    assert elapsed <= 600


# --------------------------------------------------------------------------
# criterion 6: frozen layers and dropout independence
# --------------------------------------------------------------------------

def test_criterion_6_frozen_layers_and_dropout():
    ds = gen_synthetic(200, seed=1006)
    specs = [
        LayerSpec(10, 8, "tanh"),
        LayerSpec(8, 6, "relu"),
        LayerSpec(6, 1, "identity", has_bias=False),
    ]
    net0 = build_network(specs, 91)
    # train the same starting network under two dropout configurations
    cfg_drop = TrainConfig(iterations=40, batch_size=20, lr0=0.02, dropout_keep=[0.7, 0.9], seed=92)
    cfg_plain = dc_replace(cfg_drop, dropout_keep=[1.0, 1.0])
    net_drop, _ = sgd_train(net0, ds, cfg_drop, "squared_error")
    net_plain, _ = sgd_train(net0, ds, cfg_plain, "squared_error")

    pt = PostTrainConfig(lam=1e-3, iterations=30)
    frozen_ok = True
    for trained in (net_drop, net_plain):
        tuned, _ = post_train(trained, ds, pt, "squared_error")
        for before, after in zip(trained.layers[:-1], tuned.layers[:-1]):
            frozen_ok &= bool(np.array_equal(before.weights, after.weights))
            if before.bias is not None:
                frozen_ok &= bool(np.array_equal(before.bias, after.bias))

    # fine-tuning is a pure function of the frozen network: identical inputs
    # give identical outputs regardless of how training was configured
    tuned_a, _ = post_train(net_drop, ds, pt, "squared_error")
    tuned_b, _ = post_train(net_drop, ds, pt, "squared_error")
    pure_ok = networks_bit_identical(tuned_a, tuned_b)
    # and the fine-tuning configuration has no dropout surface at all
    no_dropout_knob = not any("dropout" in f for f in PostTrainConfig.__dataclass_fields__)
    passed = frozen_ok and pure_ok and no_dropout_knob
    report(
        "criterion 6",
        passed,
        f"frozen layers bit-identical: {frozen_ok}; fine-tune purity: {pure_ok}; "
        f"no dropout knob in fine-tuning config: {no_dropout_knob}",
    )
    assert passed


# --------------------------------------------------------------------------
# criterion 7: monotone objective and midpoint convexity
# --------------------------------------------------------------------------

def test_criterion_7_monotonicity_and_convexity():
    rng = np.random.default_rng(1007)
    worst_increase = -np.inf
    for seed in (1, 2, 3):
        ds = Dataset(rng.uniform(-1, 1, size=(60, 6)), rng.normal(size=(60, 2)))
        specs = [
            LayerSpec(6, 7, "tanh"),
            LayerSpec(7, 5, "relu"),
            LayerSpec(5, 2, "identity", has_bias=False),
        ]
        net = build_network(specs, seed)
        _, metrics = post_train(net, ds, PostTrainConfig(lam=1e-3, iterations=50), "squared_error")
        losses = metrics.train_losses()
        worst_increase = max(worst_increase, max(b - a for a, b in zip(losses, losses[1:])))

    # classification pairing
    x = rng.normal(size=(50, 4))
    y = np.zeros((50, 3))
    y[np.arange(50), rng.integers(0, 3, size=50)] = 1.0
    ds_cls = Dataset(x, y)
    specs_cls = [LayerSpec(4, 6, "tanh"), LayerSpec(6, 3, "softmax", has_bias=False)]
    net_cls = build_network(specs_cls, 4)
    _, metrics_cls = post_train(net_cls, ds_cls, PostTrainConfig(lam=1e-3, iterations=50), "cross_entropy")
    losses_cls = metrics_cls.train_losses()
    worst_increase = max(worst_increase, max(b - a for a, b in zip(losses_cls, losses_cls[1:])))

    worst_midpoint = -np.inf
    ds_reg = Dataset(rng.uniform(-1, 1, size=(40, 6)), rng.normal(size=(40, 2)))
    net_reg = build_network(
        [LayerSpec(6, 7, "tanh"), LayerSpec(7, 5, "relu"), LayerSpec(5, 2, "identity", has_bias=False)], 5
    )
    for net, ds, loss, shape in ((net_reg, ds_reg, "squared_error", (2, 5)),
                                 (net_cls, ds_cls, "cross_entropy", (3, 6))):
        objective = _CachedProblem(net, ds, 1e-3, loss).objective
        for _ in range(100):
            wa = rng.normal(size=shape)
            wb = rng.normal(size=shape)
            mid = objective((wa + wb) / 2)[0]
            avg = (objective(wa)[0] + objective(wb)[0]) / 2
            worst_midpoint = max(worst_midpoint, mid - avg)

    passed = worst_increase <= 0.0 and worst_midpoint <= 1e-10
    report(
        "criterion 7",
        passed,
        f"max objective increase {worst_increase:.3e} (must be <= 0); max midpoint-convexity "
        f"violation {worst_midpoint:.3e} (tol 1e-10) over 200 segments",
    )
    assert worst_increase <= 0.0
    assert worst_midpoint <= 1e-10


# --------------------------------------------------------------------------
# criterion 8: span-projection norm bound
# --------------------------------------------------------------------------

def test_criterion_8_norm_bound():
    rng = np.random.default_rng(1008)
    worst_excess = -np.inf
    worst_equality = -np.inf
    for _ in range(100):
        d = int(rng.integers(2, 12))
        n = int(rng.integers(1, 25))
        feats = rng.standard_normal((n, d))
        if rng.integers(2):
            rank = max(1, min(n, d) // 2)
            feats = feats[:, :rank] @ rng.standard_normal((rank, d))
        w = rng.standard_normal(d)
        proj, full = rkhs_norm_bound(w, feats)
        worst_excess = max(worst_excess, proj - full)
        if n >= d and np.linalg.matrix_rank(feats) == d:
            worst_equality = max(worst_equality, abs(proj - full))
    passed = worst_excess <= 1e-10 and worst_equality <= 1e-8
    report(
        "criterion 8",
        passed,
        f"100 pairs: max excess {worst_excess:.3e} (tol 1e-10), max full-rank equality "
        f"violation {worst_equality:.3e} (tol 1e-8)",
    )
    assert worst_excess <= 1e-10
    assert worst_equality <= 1e-8


# --------------------------------------------------------------------------
# criterion 9: determinism of the comparison protocol and resumption
# --------------------------------------------------------------------------

def test_criterion_9_determinism():
    doc = {
        "dataset": {"kind": "synthetic", "n": 400, "seed": 7},
        "split": {"fraction": 0.7, "seed": 8},
        "standardize": True,
        "network": {
            "init_seed": 9,
            "layers": [
                {"input_dim": 10, "output_dim": 6, "activation": "tanh", "has_bias": True},
                {"input_dim": 6, "output_dim": 1, "activation": "identity", "has_bias": False},
            ],
        },
        "loss": "squared_error",
        "train": {
            "iterations": 60, "batch_size": 20, "lr0": 0.02, "lr_decay": 1.0,
            "dropout_keep": [0.9], "weight_decay": 0.001, "seed": 10, "eval_every": 30,
        },
        "posttrain": {
            "lambda": 0.001, "iterations": 30, "mode": "minibatch",
            "batch_size": 20, "lr": 0.05, "seed": 11,
        },
        "checkpoints": [30, 60],
        "metric": "rmse",
        "seeds": [0, 1],
    }
    cfg = config_from_dict(doc)
    csv_a = rows_to_csv(run_experiment(cfg))
    csv_b = rows_to_csv(run_experiment(cfg))
    csv_identical = csv_a.encode() == csv_b.encode()

    ds = gen_synthetic(120, seed=12)
    specs = [LayerSpec(10, 5, "tanh"), LayerSpec(5, 1, "identity", has_bias=False)]
    net = build_network(specs, 13)
    kw = dict(batch_size=16, lr0=0.03, dropout_keep=[0.8], weight_decay=1e-3, seed=14)
    straight, _ = sgd_train(net, ds, TrainConfig(iterations=50, **kw), "squared_error")
    half, _ = sgd_train(net, ds, TrainConfig(iterations=23, **kw), "squared_error")
    resumed, _ = sgd_train(
        half, ds, TrainConfig(iterations=27, **kw), "squared_error", start_iteration=23
    )
    resumption_ok = networks_bit_identical(straight, resumed)
    passed = csv_identical and resumption_ok
    report(
        "criterion 9",
        passed,
        f"comparison CSV byte-identical: {csv_identical}; checkpoint resumption "
        f"bit-identical: {resumption_ok}",
    )
    assert csv_identical
    assert resumption_ok


# --------------------------------------------------------------------------
# criterion 10: fine-tuning iterations do no lower-layer work
# --------------------------------------------------------------------------

def test_criterion_10_iteration_cost_structure():
    ds = gen_synthetic(150, seed=1010)
    specs = [
        LayerSpec(10, 8, "tanh"),
        LayerSpec(8, 6, "relu"),
        LayerSpec(6, 1, "identity", has_bias=False),
    ]
    net = build_network(specs, 15)
    counts = {}
    for iters in (1, 5, 50):
        with lower_layer_passes(net) as passes:
            post_train(net, ds, PostTrainConfig(lam=1e-3, iterations=iters), "squared_error")
        counts[iters] = passes.count
    constant_cost = counts[1] == counts[5] == counts[50]
    cache_only = counts[1] == net.depth - 1
    passed = constant_cost and cache_only
    report(
        "criterion 10",
        passed,
        f"lower-layer passes by iteration count {counts} (constant: {constant_cost}, "
        f"equals one embedding pass: {cache_only})",
    )
    assert constant_cost
    assert cache_only

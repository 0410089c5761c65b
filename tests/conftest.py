"""Shared test helpers."""

from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from lastlayer import linalg, network, posttrain

# linalg.matmul's routes by the value of linalg._EINSUM_ROUTE: the numpy
# route everywhere, and the einsum route where numpy's einsum passed the
# import-time probe
MATMUL_ROUTES = {"numpy": False, **({"einsum": True} if linalg._EINSUM_ROUTE else {})}


@pytest.fixture(params=sorted(MATMUL_ROUTES))
def matmul_route(request, monkeypatch):
    """Run the test once on each of ``matmul``'s routes; the value is the
    route's name."""
    monkeypatch.setattr(linalg, "_EINSUM_ROUTE", MATMUL_ROUTES[request.param])
    return request.param


def networks_bit_identical(a, b) -> bool:
    """True when two networks have identical structure and bit-equal arrays."""
    if a.depth != b.depth:
        return False
    for la, lb in zip(a.layers, b.layers):
        if la.spec != lb.spec:
            return False
        if not np.array_equal(la.weights, lb.weights):
            return False
        if (la.bias is None) != (lb.bias is None):
            return False
        if la.bias is not None and not np.array_equal(la.bias, lb.bias):
            return False
    return True


def forward_objective(net, data, lam, loss) -> float:
    """The post-training objective at ``net``'s last layer, from the whole
    network's ``forward`` and ``loss_eval``: arithmetic that shares no code
    with ``posttrain._CachedProblem.objective``, the objective that
    ``post_train`` minimises."""
    return (network.loss_eval(loss, network.forward(net, data.x).output, data.y)
            + lam * linalg.sq_frobenius(posttrain.effective_last_weights(net)))


def cached_objective(net, data, lam, loss) -> float:
    """``posttrain._CachedProblem.objective``, the objective that
    ``post_train`` minimises, at ``net``'s last layer."""
    problem = posttrain._CachedProblem(net, data, lam, loss)
    return problem.objective(posttrain.effective_last_weights(net))[0]


@contextmanager
def lower_layer_passes(net):
    """Count, in the ``count`` of the value yielded, the passes made inside
    the ``with`` block through the layers below ``net``'s last or through
    their copies: ``network.forward`` and ``network.feature_map`` run every
    layer through ``network._layer_passes``, and a copy of a layer keeps its
    spec object, by which the layer is known."""
    lower = {id(layer.spec) for layer in net.layers[:-1]}
    passes = SimpleNamespace(count=0)
    layer_passes = network._layer_passes

    def counted(layers, x, masks=()):
        for layer, pair in zip(layers, layer_passes(layers, x, masks)):
            passes.count += id(layer.spec) in lower
            yield pair

    network._layer_passes = counted
    try:
        yield passes
    finally:
        network._layer_passes = layer_passes

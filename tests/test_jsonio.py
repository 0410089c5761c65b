"""Deterministic serialization: every double must round-trip bit-exactly."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import lastlayer
from lastlayer.jsonio import dumps, format_float, load, loads
from lastlayer.network import LayerSpec, build_network, network_from_dict, network_to_dict


def test_format_float_round_trips_exactly():
    rng = np.random.default_rng(0)
    values = list(rng.standard_normal(1000)) + [0.1, 1e-300, 1e300, -0.0, 2.0**-1074]
    for v in values:
        assert float(format_float(float(v))) == float(v)
        # as JSON, too, where "-0" would read back as the integer 0
        assert np.float64(loads(format_float(float(v)))).tobytes() == np.float64(v).tobytes()


def test_network_keeps_the_sign_of_a_zero_weight():
    net = build_network([LayerSpec(2, 2, "tanh"), LayerSpec(2, 1, "identity", has_bias=False)],
                        seed=0)
    net.layers[0].weights[0, 1] = -0.0
    net.layers[0].bias[1] = -0.0
    again = network_from_dict(loads(dumps(network_to_dict(net))))
    assert again.layers[0].weights.tobytes() == net.layers[0].weights.tobytes()
    # the other bias entry starts at +0.0
    assert again.layers[0].bias.tobytes() == net.layers[0].bias.tobytes()


def test_format_float_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            format_float(bad)


def test_dumps_nested_structures():
    doc = {"a": [1, 2.5, None, True, False], "b": {"c": "text"}}
    assert loads(dumps(doc)) == doc


def test_dumps_is_valid_json_with_indent():
    doc = {"x": [[1.0, 2.0], [3.0, 4.0]], "y": "s"}
    text = dumps(doc, indent=2)
    assert json.loads(text) == doc
    assert "\n" in text


def test_dumps_deterministic():
    doc = {"m": [0.1] * 3, "n": 7}
    assert dumps(doc) == dumps(doc)


def test_rejects_unserializable():
    with pytest.raises(TypeError):
        dumps({"x": object()})
    with pytest.raises(TypeError):
        dumps({1: "non-string key"})


def test_dumps_renders_empty_containers():
    doc = {"list": [], "object": {}}
    assert dumps(doc) == '{"list": [],"object": {}}'
    assert dumps(doc, indent=2) == '{\n  "list": [],\n  "object": {}\n}'
    assert loads(dumps(doc, indent=2)) == doc


@pytest.mark.parametrize("text", ['{"a": 1, "a": 2}', '{"outer": [{"b": 1, "c": 2, "b": 3}]}'])
def test_loads_refuses_a_repeated_key(text):
    with pytest.raises(ValueError, match="repeated key '[ab]'"):
        loads(text)


def test_load_refuses_a_config_that_sets_a_key_twice(tmp_path):
    # json alone would keep the last value and read checkpoints [250, 500, 750]
    bundled = Path(lastlayer.__file__).parent / "configs" / "synthetic.json"
    text = bundled.read_text(encoding="utf-8")
    assert text.count('"checkpoints":') == 1
    path = tmp_path / "twice.json"
    path.write_text(text.replace('"checkpoints":', '"checkpoints": [10, 20],\n  "checkpoints":'))
    with pytest.raises(ValueError, match="repeated key 'checkpoints'"):
        load(str(path))

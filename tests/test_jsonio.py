"""Deterministic serialization: every double must round-trip bit-exactly."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import lastlayer
from lastlayer.experiment import config_from_dict, config_to_dict
from lastlayer.jsonio import dumps, format_float, load, loads
from lastlayer.network import (LayerSpec, build_network, network_from_dict, network_to_dict,
                               save_network)


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


@pytest.mark.parametrize("text, error", [
    ('{"a": 1\n "b": 2}', "Expecting ',' delimiter: line 2 column 2"),
    ('{"a": 1, "a": 2}', "repeated key 'a' in a JSON object"),
])
def test_load_names_the_file_that_is_not_valid_json(tmp_path, text, error):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(error)}"):
        load(str(path))


@pytest.mark.parametrize("read, what", [(config_from_dict, "config"), (network_from_dict, "network")])
@pytest.mark.parametrize("doc", [[1], None, "net", 3])
def test_a_document_that_is_not_an_object_raises_value_error(read, what, doc):
    with pytest.raises(ValueError, match=re.escape(f"{what} document must be an object, got {doc!r}")):
        read(doc)


# ---------------------------------------------------------------------------
# every leaf of both documents, respelt
# ---------------------------------------------------------------------------

_ABSENT = object()
_VARIANTS = (_ABSENT, None, "x", True, 2.5, [], {})


def _dotted(path: tuple) -> str:
    """A path of keys and indices as the readers' messages spell it: network.layers[0].input_dim."""
    text = ""
    for step in path:
        text += f"[{step}]" if isinstance(step, int) else f".{step}" if text else step
    return text


def _nodes(doc, path=()):
    """(path, value) of every member and entry of ``doc``, parents before children."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _respelt(doc, path: tuple, value):
    """A copy of ``doc`` with the member or entry at ``path`` set to ``value``, or removed."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if value is _ABSENT:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _spelling_of_the_kind(valid, variant) -> bool:
    """Whether the kind of a leaf spelt ``valid`` also takes ``variant``: a
    boolean takes booleans, an integer integral numbers, a number numbers
    and a string strings."""
    if isinstance(valid, bool) or isinstance(valid, str):
        return type(variant) is type(valid)
    if isinstance(variant, bool) or not isinstance(variant, (int, float)):
        return False
    return isinstance(valid, float) or float(variant).is_integer()


def _outcome(read, write, doc):
    """The document that ``doc`` reads back as, or the message of the ValueError it raises."""
    try:
        return ("loads", dumps(write(read(doc))))
    except ValueError as err:
        return ("refused", str(err))


def _config_document(tmp_path):
    text = (Path(lastlayer.__file__).parent / "configs" / "synthetic.json").read_text()
    return loads(text), config_from_dict, config_to_dict


def _network_document(tmp_path):
    specs = [LayerSpec(3, 4, "tanh"), LayerSpec(4, 3, "relu"), LayerSpec(3, 2, "identity")]
    net = build_network(specs, seed=5)
    for index, layer in enumerate(net.layers):
        layer.bias += 0.25 * (index + 1)
    save_network(net, str(tmp_path / "net.json"))
    return load(str(tmp_path / "net.json")), network_from_dict, network_to_dict


# posttrain.lambda respelt as 2.5 warns that it is out of the usual range
@pytest.mark.filterwarnings("ignore:lam = 2.5 is outside the recommended range:UserWarning")
@pytest.mark.parametrize("document", [_config_document, _network_document])
def test_every_leaf_respelt_loads_as_spelt_or_is_refused_naming_its_path(tmp_path, document):
    """Each leaf of the document is respelt as absent, null, "x", true, 2.5,
    [] and {}, and each object gets a key that no field reads.  A variant
    that the leaf's kind does not take must be refused with a ValueError
    naming the leaf's path, except that an absent key may take its default
    and null may read as the absent key does.  A variant the kind takes
    must read back as itself, or be refused by the dataclass that holds
    it, with any ValueError."""
    doc, read, write = document(tmp_path)
    failures = []
    for path, valid in _nodes(doc):
        where = _dotted(path)
        if isinstance(valid, dict):
            unknown = path + ("unknown_key",)
            outcome = _outcome(read, write, _respelt(doc, unknown, 1))
            if outcome[0] != "refused" or _dotted(unknown) not in outcome[1]:
                failures.append((_dotted(unknown), 1, outcome))
        if isinstance(valid, (dict, list)):
            continue
        absent = _outcome(read, write, _respelt(doc, path, _ABSENT)) if isinstance(path[-1], str) else None
        for variant in _VARIANTS:
            if variant is _ABSENT and absent is None:
                continue  # a list entry has no absent spelling
            outcome = absent if variant is _ABSENT else _outcome(read, write, _respelt(doc, path, variant))
            if outcome[0] == "refused":
                ok = where in outcome[1] or _spelling_of_the_kind(valid, variant)
            elif variant is _ABSENT:
                ok = True
            elif variant is None:
                ok = absent == outcome
            else:
                written = loads(outcome[1])
                for step in path:
                    written = written[step]
                ok = _spelling_of_the_kind(valid, variant) and dumps(written) == dumps(variant)
            if not ok:
                failures.append((where, variant, outcome))
    assert not failures, "\n".join(map(repr, failures))

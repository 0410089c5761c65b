"""The package's public names: ``__all__`` is derived from what
``lastlayer/__init__.py`` imports, so these tests pin what that derivation
must give, and the README's library example runs on them as written."""

import math
import re
import types
from pathlib import Path

import lastlayer


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from lastlayer import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(lastlayer.__all__)


def test_all_is_sorted_public_unique_and_resolves():
    names = lastlayer.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for name in names:
        assert not name.startswith("_")
        assert not isinstance(getattr(lastlayer, name), types.ModuleType)


def test_the_readme_library_example_runs(capsys):
    # the example is the README's one python block; run as written, it
    # must use only the public API and print one finite test RMSE per arm
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == ["classic", "fine-tuned", "optimal"]
    assert all(math.isfinite(float(line.rsplit(" ", 1)[1])) for line in lines)

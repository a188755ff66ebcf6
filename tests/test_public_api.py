import inspect
import os
import re

import chmopt

README = os.path.join(os.path.dirname(__file__), "..", "README.md")
ENTRY_POINTS = {"ChmConfig", "chm_run", "get_benchmark", "make_synthetic_dataset",
                "replay_record", "run_method"}


def test_top_level_names_are_the_entry_points():
    names = {name for name, value in vars(chmopt).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert names == ENTRY_POINTS
    assert set(chmopt.__all__) == ENTRY_POINTS
    assert chmopt.__version__


def test_readme_imports_resolve():
    """Every README import resolves, and every README python block runs."""
    with open(README) as fh:
        text = fh.read()
    imports = re.findall(r"from chmopt[\w.]* import [\w, ]+", text)
    assert len(imports) >= 2
    for statement in imports:
        exec(statement, {})
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) >= 2
    for block in blocks:
        exec(block, {})


def test_readme_names_every_entry_point():
    with open(README) as fh:
        text = fh.read()
    for name in ENTRY_POINTS:
        assert re.search(rf"\b{name}\b", text), name

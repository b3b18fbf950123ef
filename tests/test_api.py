"""The public surface: the package export list and the README quick start."""

import contextlib
import io
import re
from pathlib import Path

import padiclab
from padiclab import field_model, operators, qspecial, seminorms, spectrum_zeta, tree

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = (field_model, tree, operators, qspecial, spectrum_zeta, seminorms)


def test_all_is_the_union_of_module_lists():
    names = padiclab.__all__
    assert len(names) == len(set(names))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(padiclab, name) is getattr(module, name), (module.__name__, name)
    assert set(names) == {name for module in MODULES for name in module.__all__}


def test_readme_quick_start_runs():
    """The README's python block, as written, in this process."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(blocks[0], str(README), "exec"), namespace)
    assert out.getvalue()
    assert namespace["table"].n_max == 5
    assert namespace["report"].passed

"""The README's library quick start runs as written, without warnings."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(block, str(README), "exec"), {})
    assert float(capsys.readouterr().out) >= 0.0

"""The README's Python examples run as written, against the package they import."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    # the blocks share one namespace, as a reader running them in turn does:
    # the second example uses the model the first one made
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.MULTILINE | re.DOTALL)
    assert blocks
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)

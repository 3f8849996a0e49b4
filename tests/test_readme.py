"""README's "Library example" must run against the current API."""
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})

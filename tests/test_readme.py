import contextlib
import io
import re
from pathlib import Path

from monowave import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    # the tour is the documented public core: it must run as printed
    text = README.read_text()
    tour = text[text.index("## Library tour") :]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    count, density = out.getvalue().split()
    assert int(count) > 0
    assert float(density) > 0


def test_cli_section_lists_each_commands_required_keys():
    # one "- `command`: `key`, `key`" line per command, in the command table's order
    text = README.read_text()
    section = text[text.index("## CLI") : text.index("## Tests")]
    listed = {}
    for name, keys in re.findall(r"^- `([a-z0-9-]+)`: (.+)$", section, re.M):
        listed[name] = () if keys == "none" else tuple(re.findall(r"`([^`]+)`", keys))
    table = {name: keys for name, (_, keys) in cli._RUNNERS.items()}
    assert list(listed.items()) == list(table.items())

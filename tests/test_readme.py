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
    # one "- `command` (input): requires `key`, ...; optional `key`, ..." line per
    # command, in the command table's order
    text = README.read_text()
    section = text[text.index("## CLI") : text.index("## Tests")]

    def keys(listed):
        return () if listed == "none" else tuple(re.findall(r"`([^`]+)`", listed))

    listed = [(name, source, keys(required), keys(optional)) for name, source, required, optional
              in re.findall(r"^- `([a-z0-9-]+)` \((\w+)\): requires (.+); optional (.+)$",
                            section, re.M)]
    table = [(name, source, required, optional)
             for name, (_, source, required, optional) in cli._RUNNERS.items()]
    assert listed == table


def test_cli_example_config_is_accepted():
    # the example sets only keys that its command reads
    text = README.read_text()
    example = re.search(r"```\n(# exp\.cfg\n.*?)```", text, re.S).group(1)
    cfg = cli.config_from_mapping(cli.parse_config_text(example))
    assert cfg.command == "ns-estimate"

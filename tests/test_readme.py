import contextlib
import io
import re
from pathlib import Path

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

import re
from pathlib import Path

from dedekindsym import eichler

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    # the one Python block under "## Library example", run as written
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {"__name__": "readme_example"}
    try:
        exec(compile(code, str(README), "exec"), ns)
    finally:
        eichler.clear_caches()
    factors, info = capsys.readouterr().out.splitlines()
    assert factors == repr(ns["dec"].factors(3, 2)) and ns["dec"].residual(3, 2) <= 1e-9
    assert info.startswith("{'series': ")

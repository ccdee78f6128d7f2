"""README's quick-start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_recovers_its_support(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    assert scope["zhat"].support() == [300, 1500]
    assert "[300, 1500]" in capsys.readouterr().out

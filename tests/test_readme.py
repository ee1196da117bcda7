import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs_as_written(capsys):
    """The first python block of README.md runs unchanged and prints the
    best fitness and one trace entry per generation plus the initial one."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert block is not None, "README.md has no python block"
    exec(compile(block.group(1), f"{README}:quick tour", "exec"), {})
    fitness, generations = capsys.readouterr().out.split()
    assert 0.0 <= float(fitness) <= 1.0 + 1e-9
    assert generations == "101"

"""The line counter of ``tools/code_lines.py``, on a small sample module."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment alone


class Box:
    """A class docstring."""

    size = 3

    def area(self):
        """A function docstring
        that runs on."""
        return math.prod(
            [self.size,
             self.size],
        )


TEXT = """a string that is
no docstring"""
'''


def test_a_sample_module_counts_its_code_lines_only():
    # import, class, size, def, the four lines of the call and both lines of TEXT
    assert code_lines.code_lines(SAMPLE) == 10


def test_the_package_total_is_printed_last(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["10", "a.py"], ["1", "b.py"], ["11", "total"]]

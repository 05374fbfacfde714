"""No line of the package source is longer than 100 characters."""

from pathlib import Path

import tricarl

PACKAGE = Path(tricarl.__file__).resolve().parent
MAX_LINE = 100


def test_package_lines_fit_in_100_characters():
    long_lines = [
        f"{path.name}:{number} ({len(line)} characters)"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []

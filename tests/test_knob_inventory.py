"""The environment knobs under ``src/repro`` are exactly the documented set.

``docs/PERFORMANCE.md`` keeps one table of every surviving ``REPRO_*``
variable with its operational reason.  A new knob has to earn a row,
and a retired one has to leave the table.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
KNOB = re.compile(r"REPRO_[A-Z_]+")


def source_knobs():
    return {
        name
        for path in (ROOT / "src" / "repro").rglob("*.py")
        for name in KNOB.findall(path.read_text(encoding="utf-8"))
    }


def documented_knobs():
    text = (ROOT / "docs" / "PERFORMANCE.md").read_text(encoding="utf-8")
    section = text.split("## Environment knobs", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.M))


def test_source_knobs_equal_the_documented_table():
    assert source_knobs() == documented_knobs()


def test_ten_knobs_survive():
    assert len(documented_knobs()) == 10

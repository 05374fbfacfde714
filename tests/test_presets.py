"""Golden preset definitions: every curve label and sweep of each preset.

``golden_presets.json`` holds, for every figure preset, its description and
the ``(label, spec.to_dict())`` list of its curves, recorded from the
hand-written preset builders that the preset table replaced.  It pins the
labels, grids, fixed parameters and outputs, which the row layouts of
``golden_rows.json`` do not.  To record it again after an intended change
of a preset:

    PYTHONPATH=src python tests/test_presets.py
"""

import json
from pathlib import Path

import pytest

from tricarl import figure_preset
from tricarl.presets import PRESETS

GOLDEN = Path(__file__).with_name("golden_presets.json")
PRESET_IDS = ("fig1", "fig1a", "fig1b", "fig2", "fig2a", "fig2b") + tuple(
    f"fig{k}" for k in range(3, 16)
)


def definition(preset_id):
    preset = figure_preset(preset_id)
    assert preset.id == preset_id
    curves = [[label, spec.to_dict()] for label, spec in preset.curves]
    return {"description": preset.description, "curves": curves}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_the_table_holds_exactly_the_golden_presets(golden):
    assert sorted(PRESETS) == sorted(golden) == sorted(PRESET_IDS)


@pytest.mark.parametrize("preset_id", PRESET_IDS)
def test_preset_definition_matches_golden(golden, preset_id):
    # compared as JSON text, so that an int in place of a float shows
    assert json.dumps(definition(preset_id)) == json.dumps(golden[preset_id])


if __name__ == "__main__":
    lines = [f"{json.dumps(pid)}: {json.dumps(definition(pid))}" for pid in PRESET_IDS]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")

"""The shipped scenarios' comparison.json, byte for byte against tests/golden/.

A change that alters behaviour on purpose regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and states the diff in
CHANGES.md.
"""

from pathlib import Path

import pytest

from conftest import SUITE_NAMES
from gpnav.episode import compare, comparison_json
from gpnav.scenario import load_scenario, resolve_scenario

GOLDEN = Path(__file__).parent / "golden"
VARIANTS = ["dlgp", "dlgp-no-dhdt", "gp-linear"]


def shipped_comparison(name: str) -> str:
    cfg = load_scenario(resolve_scenario(name))
    return comparison_json(compare(cfg, VARIANTS))


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_shipped_comparison_json_matches_golden(name):
    golden = GOLDEN / f"{name}.comparison.json"
    assert shipped_comparison(name).encode() == golden.read_bytes(), (
        f"{name}: comparison.json differs from {golden}. If the change alters "
        "behaviour on purpose, regenerate it with `PYTHONPATH=src python "
        "tests/test_golden.py` and state the diff in CHANGES.md.")


if __name__ == "__main__":
    for suite_name in SUITE_NAMES:
        (GOLDEN / f"{suite_name}.comparison.json").write_text(
            shipped_comparison(suite_name))

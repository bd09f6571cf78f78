"""Byte-for-byte regressions against tests/golden/.

The shipped scenarios' comparison.json, and the sha256 of each file that
``gpnav run head_on --out-dir D --dump-field --dump-perception`` writes,
with its wall-clock timing columns and keys left out. A change that alters
behaviour on purpose regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and states the diff in
CHANGES.md.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from conftest import SUITE_NAMES
from gpnav.cli import main
from gpnav.episode import compare, comparison_json
from gpnav.scenario import load_scenario, resolve_scenario

GOLDEN = Path(__file__).parent / "golden"
VARIANTS = ["dlgp", "dlgp-no-dhdt", "gp-linear"]
RUN_FILES = GOLDEN / "head_on.run_files.json"
TIMING_COLUMNS = {"barrier_time_ms", "qp_time_ms"}
TIMING_KEYS = {"mean_barrier_time_ms"}


def shipped_comparison(name: str) -> str:
    cfg = load_scenario(resolve_scenario(name))
    return comparison_json(compare(cfg, VARIANTS))


def timing_free(name: str, data: bytes) -> bytes:
    """A run file without its wall-clock columns (CSV) or keys (JSON lines)."""
    lines = data.decode().splitlines(keepends=True)
    if name == "trajectory.csv":
        header = lines[0].rstrip("\n").split(",")
        keep = [i for i, column in enumerate(header)
                if column not in TIMING_COLUMNS]
        lines = [",".join(cells[i] for i in keep) + "\n"
                 for cells in (line.rstrip("\n").split(",") for line in lines)]
    elif name == "metrics.json":
        lines = [line for line in lines
                 if line.strip().split(":")[0].strip('"') not in TIMING_KEYS]
    return "".join(lines).encode()


def run_file_digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as out:
        code = main(["run", "head_on", "--out-dir", out, "--dump-field",
                     "--dump-perception"])
        assert code == 0
        return {path.name: hashlib.sha256(
                    timing_free(path.name, path.read_bytes())).hexdigest()
                for path in sorted(Path(out).iterdir())}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_shipped_comparison_json_matches_golden(name):
    golden = GOLDEN / f"{name}.comparison.json"
    assert shipped_comparison(name).encode() == golden.read_bytes(), (
        f"{name}: comparison.json differs from {golden}. If the change alters "
        "behaviour on purpose, regenerate it with `PYTHONPATH=src python "
        "tests/test_golden.py` and state the diff in CHANGES.md.")


def test_run_out_dir_matches_golden(capsys):
    assert run_file_digests() == json.loads(RUN_FILES.read_text()), (
        f"gpnav run head_on --out-dir files differ from {RUN_FILES}. If the "
        "change alters behaviour on purpose, regenerate it with "
        "`PYTHONPATH=src python tests/test_golden.py` and state the diff in "
        "CHANGES.md.")


if __name__ == "__main__":
    for suite_name in SUITE_NAMES:
        (GOLDEN / f"{suite_name}.comparison.json").write_text(
            shipped_comparison(suite_name))
    RUN_FILES.write_text(json.dumps(run_file_digests(), indent=2,
                                    sort_keys=True) + "\n")

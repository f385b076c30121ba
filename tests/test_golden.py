"""Byte-for-byte output of every shipped scenario.

For each file in scenarios/ the `run` report text and every CSV written to
--out-dir must match the files under tests/golden/.  The solve time and the
output directory are masked, since neither is part of the decision.

After a deliberate output change, regenerate the files from the tests
directory with

    PYTHONPATH=../src python -c "import test_golden; test_golden.write_golden()"

and review the diff before committing it.
"""

import os
import re
import tempfile

import pytest

from vnfscale import scenario

HERE = os.path.dirname(os.path.abspath(__file__))
SCEN_DIR = os.path.join(HERE, "..", "scenarios")
GOLDEN_DIR = os.path.join(HERE, "golden")
NAMES = sorted(f[:-4] for f in os.listdir(SCEN_DIR) if f.endswith(".scn"))

SOLVE_TIME = re.compile(r"solve \d+\.\d+ s")


def render(name, out_dir):
    """{golden file name: content} for one scenario run into out_dir."""
    report = scenario.run_scenario(os.path.join(SCEN_DIR, name + ".scn"),
                                   out_dir=out_dir)
    text = SOLVE_TIME.sub("solve <t> s", report.text())
    files = {name + ".txt": text.replace(out_dir, "<out>")}
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname)) as fh:
            files[fname] = fh.read()
    return files


def write_golden():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in NAMES:
        with tempfile.TemporaryDirectory() as out_dir:
            for fname, content in render(name, out_dir).items():
                with open(os.path.join(GOLDEN_DIR, fname), "w") as fh:
                    fh.write(content)


@pytest.mark.parametrize("name", NAMES)
def test_run_output_matches_golden(name, tmp_path):
    got = render(name, str(tmp_path))
    want = sorted(f for f in os.listdir(GOLDEN_DIR)
                  if f == name + ".txt" or re.fullmatch(
                      re.escape(name) + r"_(decisions|flows|trace)\.csv", f))
    assert sorted(got) == want
    for fname in want:
        with open(os.path.join(GOLDEN_DIR, fname)) as fh:
            assert got[fname] == fh.read(), fname

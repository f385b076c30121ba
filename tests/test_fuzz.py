"""Fuzz of the scenario loader and runner through the CLI.

Each example takes a shipped scenario, replaces one value (or one field of
a [vms] row) with a token from a fixed list and runs it in process.  Every
input must end with a documented exit code: 1 only together with failed
expectations, and no exception may escape.  The list holds no large even
integer, so a mutated k can never build a big tree.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings, strategies as st

from vnfscale.cli import main as cli_main

SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
NAMES = sorted(f for f in os.listdir(SCEN_DIR) if f.endswith(".scn"))
TOKENS = ["-1", "0", "2", "nan", "inf", "1e308", "1e309", "abc", "", "P0",
          "P999", "P3-P1", "cpu:nan"]


def _sites(lines):
    """(line, field) of every replaceable value: field None is the value
    of a "key = value" line, an integer a field of a [vms] row."""
    sites, section = [], None
    for i, raw in enumerate(lines):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line:
            sites.append((i, None))
        elif section == "vms":
            sites.extend((i, j) for j in range(len(line.split())))
    return sites


def _mutate(lines, site, token):
    i, j = site
    out = list(lines)
    if j is None:
        key = out[i].split("=", 1)[0]
        out[i] = "%s= %s" % (key, token)
    else:
        fields = out[i].split("#", 1)[0].split()
        fields[j] = token
        out[i] = " ".join(fields)
    return out


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_mutated_scenarios_end_with_a_documented_exit_code(data):
    name = data.draw(st.sampled_from(NAMES), label="scenario")
    with open(os.path.join(SCEN_DIR, name)) as fh:
        lines = fh.read().splitlines()
    site = data.draw(st.sampled_from(_sites(lines)), label="site")
    token = data.draw(st.sampled_from(TOKENS), label="token")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w") as fh:
            fh.write("\n".join(_mutate(lines, site, token)) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["run", path])
    assert code in (0, 1, 2, 3, 4), (code, err.getvalue())
    if code == 1:
        assert "EXPECT FAILED" in out.getvalue()
    assert "Traceback" not in out.getvalue() + err.getvalue()

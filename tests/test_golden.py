"""Golden reports: recorded CLI commands must give the same bytes again.

Each command in ``golden/commands.json`` runs as ``python -m amalgsep
--out report.json <argv>`` in a fresh directory holding a copy of
``golden/inputs``. Its report, stdout, stderr and exit code must equal the
recorded ``golden/<name>.report``, ``.stdout``, ``.stderr`` and the
manifest's ``exit_code``, byte for byte.

``golden/sweep-digests.json`` holds one entry per query of the finite and
free sweeps of ``test_scans`` at seeds 5 and 6: the sha256 of the report's
JSON with sorted keys, or the ``InputError`` text when g = 1. Every
report of those sweeps must hash the same again.

``python tests/test_golden.py [name ...]`` records the named commands, or
the sweep digests under the name ``sweep-digests`` (everything when none is
named), again with the amalgsep found on ``PYTHONPATH``; do that only for
a new command or an intended change of output, and say why in the change
description.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import amalgsep
from amalgsep import engine
from amalgsep.errors import InputError

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())
SWEEP = GOLDEN / "sweep-digests.json"
SWEEP_SEEDS = (5, 6)
SRC = str(Path(amalgsep.__file__).resolve().parent.parent)


def run_command(argv: list[str], workdir: Path, src: str,
                hash_seed: str = "0") -> dict[str, object]:
    """Run one command in ``workdir`` under ``PYTHONHASHSEED=hash_seed``;
    its outputs as bytes and its exit code."""
    shutil.copytree(GOLDEN / "inputs", workdir, dirs_exist_ok=True)
    proc = subprocess.run([sys.executable, "-m", "amalgsep", "--out", "report.json", *argv],
                          cwd=workdir, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed))
    report = workdir / "report.json"
    return {"report": report.read_bytes() if report.exists() else b"",
            "stdout": proc.stdout, "stderr": proc.stderr, "exit_code": proc.returncode}


def check_golden(cmd, got) -> None:
    assert got["exit_code"] == cmd["exit_code"]
    for part in ("report", "stdout", "stderr"):
        want = (GOLDEN / f"{cmd['name']}.{part}").read_bytes()
        assert got[part] == want, f"{cmd['name']}: {part} differs from the golden copy"


@pytest.mark.parametrize("cmd", COMMANDS, ids=[c["name"] for c in COMMANDS])
def test_golden_output(cmd, tmp_path):
    check_golden(cmd, run_command(cmd["argv"], tmp_path, SRC))


# The lattice and chain searches iterate over sets of frozensets, and the
# leader scans over orbits; no report may depend on the hash seed.
@pytest.mark.parametrize("cmd", COMMANDS, ids=[c["name"] for c in COMMANDS])
def test_golden_output_under_another_hash_seed(cmd, tmp_path):
    check_golden(cmd, run_command(cmd["argv"], tmp_path, SRC, hash_seed="1"))


def sweep_digests(seed: int) -> list[str]:
    """The digest of every report of ``test_scans``' finite and free sweeps
    at the seed, in query order; the error text for a query with g = 1."""
    from test_scans import _finite_queries, _free_queries

    rng = random.Random(seed)
    out = []
    for query in [*_finite_queries(rng), *_free_queries(rng)]:
        try:
            doc = engine.separate_from_cyclic(*query).to_json()
        except InputError as exc:
            out.append(str(exc))
            continue
        out.append(hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest())
    return out


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_sweep_report_digests(seed):
    assert sweep_digests(seed) == json.loads(SWEEP.read_text())[str(seed)]


if __name__ == "__main__":
    import tempfile

    names = set(sys.argv[1:])
    if not names or "sweep-digests" in names:
        digests = {str(seed): sweep_digests(seed) for seed in SWEEP_SEEDS}
        SWEEP.write_text(json.dumps(digests, indent=1) + "\n")
        print(f"sweep-digests: {sum(map(len, digests.values()))} queries")
    for cmd in COMMANDS:
        if names and cmd["name"] not in names:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            got = run_command(cmd["argv"], Path(tmp), SRC)
        for part in ("report", "stdout", "stderr"):
            (GOLDEN / f"{cmd['name']}.{part}").write_bytes(got[part])
        cmd["exit_code"] = got["exit_code"]
        print(f"{cmd['name']}: exit {got['exit_code']}")
    (GOLDEN / "commands.json").write_text(json.dumps(COMMANDS, indent=2) + "\n")

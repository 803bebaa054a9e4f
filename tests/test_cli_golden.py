"""Byte-identity of the command line against recorded goldens.

A fixed matrix of commands runs through ``main`` from a scratch directory
holding copies of ``tests/golden/inputs``. For each command the exit
code, stdout, stderr and every file it writes under ``out/`` must equal
``tests/golden/<case>.json`` byte for byte. The matrix covers every
subcommand: text and ``--json`` reports, ``--out`` files, verdicts that
exit 0 and 1, infeasible and malformed input that exits 2, and an
argparse error.

After a deliberate change of output, rewrite the goldens with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of ``tests/golden/``.
"""

import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from stealthguard.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

CASES = {
    # analyze
    "analyze-dense": "analyze --topology dense.txt --attack x1,y2",
    "analyze-dense-json": "analyze --topology dense.txt --attack x1,x2 --json",
    "analyze-dense-overloaded": "analyze --topology dense.txt --attack x1,x2,x3,x4",
    "analyze-empty": "analyze --topology dense.txt",
    "analyze-out": "analyze --topology dense.txt --attack x3 --out out/analyze.txt",
    "analyze-unknown-target": "analyze --topology dense.txt --attack q9",
    "analyze-rand20-json": "analyze --topology rand20.json --attack x1,x5,y2 --json",
    "analyze-plat30": "analyze --topology plat30.txt --attack x1,x2 --json",
    "analyze-cut-deficient": "analyze --topology cut.txt --attack x2,x4",
    # certify
    "certify-dense-xy": "certify --topology dense.txt",
    "certify-dense-x-json": "certify --topology dense.txt --class x --json",
    "certify-cut-xy": "certify --topology cut.txt",
    "certify-cut-json-out": "certify --topology cut.txt --json --out out/cut.json",
    "certify-plat30-x": "certify --topology plat30.txt --class x",
    "certify-plat30-xy-json": "certify --topology plat30.txt --class xy --json",
    "certify-rand20-p1": "certify --topology rand20.json --p 1",
    "certify-rand20-x-json": "certify --topology rand20.json --class x --json",
    "certify-pair-infeasible": "certify --topology pair.txt --p 2",
    "certify-pair-p0": "certify --topology pair.txt --p 0",
    # synthesize and platoon
    "synthesize-stdout": "synthesize --n 7 --m 3 --p 2",
    "synthesize-out": "synthesize --n 12 --m 4 --p 3 --out out/syn.txt",
    "synthesize-x-json-out": "synthesize --n 10 --m 3 --p 2 --class x --json --out out/syn_x.txt",
    "synthesize-infeasible": "synthesize --n 4 --m 1 --p 2",
    "platoon-stdout": "platoon --n 10 --m 2 --p 2",
    "platoon-xy-json-out": "platoon --n 9 --m 3 --p 2 --class xy --json --out out/plat.txt",
    "platoon-infeasible": "platoon --n 4 --m 4 --p 2",
    # sensors
    "sensors": "sensors --n 5 --p 2 --k1 1 --k2 2",
    "sensors-x-json": "sensors --n 30 --p 3 --k1 2 --k2 1 --class x --json",
    "sensors-nan-cost": "sensors --n 5 --p 2 --k1 1 --k2 nan",
    # simulate
    "simulate-dense-out": "simulate --topology dense.txt --attack x2 --horizon 40 --out out/sim.tsv",
    "simulate-dense-json-seed": "simulate --topology dense.txt --horizon 30 --seed 7 --json",
    "simulate-rand20-json-out": ("simulate --topology rand20.json --attack y1 --horizon 25 "
                                 "--json --out out/sim20.tsv"),
    "simulate-negative-eta": "simulate --topology pair.txt --eta -1",
    # attack
    "attack-pair-out": "attack --topology pair.txt --attack x1,x2 --out out/attack.tsv",
    "attack-pair-json-horizon": "attack --topology pair.txt --attack x1,x2 --horizon 6 --json",
    "attack-pair-wide-out": "attack --topology pair.txt --attack x1,x2,y1 --out out/wide.tsv",
    "attack-cut-deficient-out": ("attack --topology cut.txt --attack x2,x4 --horizon 20 "
                                 "--out out/cut.tsv"),
    "attack-dense-none": "attack --topology dense.txt --attack x4",
    "attack-plat30-none": "attack --topology plat30.txt --attack x1,x2 --seed 0 --out out/none.tsv",
    "attack-no-targets": "attack --topology pair.txt --attack ,",
    # input errors
    "missing-file": "certify --topology missing.txt",
    "parse-error-line": "certify --topology bad_line.txt",
    "bad-json": "analyze --topology bad.json --attack x1",
    "argparse-missing-required": "synthesize --n 4",
}


def run_case(argv, workdir: Path) -> dict:
    """Run one command in ``workdir``; returns what a golden records."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    files = {p.name: p.read_text() for p in sorted((workdir / "out").iterdir())}
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": files}


def prepare(workdir: Path, monkeypatch) -> None:
    for src in INPUTS.iterdir():
        shutil.copy(src, workdir / src.name)
    (workdir / "out").mkdir()
    monkeypatch.chdir(workdir)
    monkeypatch.delenv("STEALTHGUARD_SEED", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path, monkeypatch):
    prepare(tmp_path, monkeypatch)
    got = run_case(CASES[case].split(), tmp_path)
    want = json.loads((GOLDEN / f"{case}.json").read_text())
    assert got == want


def record_goldens() -> None:
    """Rewrite every golden from the current program."""
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            prepare(Path(tmp), mp)
            doc = run_case(CASES[case].split(), Path(tmp))
        (GOLDEN / f"{case}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"{case}: exit {doc['exit']}")


if __name__ == "__main__":
    record_goldens()

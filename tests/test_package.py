"""The package surface, and which layers a program loads.

The graph layer and the graph-only CLI commands, and a numeric command
refused for a bad --eta or --seed or an empty attack set, must run on the
standard library alone, without the dataclasses machinery (``dataclasses``
and the ``inspect`` it imports); numpy loads with the first numeric name,
and scipy never does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stealthguard
from stealthguard import simulation

ROOT = Path(__file__).resolve().parent.parent

GRAPH_ONLY_RUN = r"""
import json, sys
import stealthguard
from stealthguard.cli import main

with open("bad.json", "w") as fh:
    fh.write('{"n": 2, "m": 1')
runs = [
    ["synthesize", "--n", "8", "--m", "3", "--p", "2", "--out", "dense.txt"],
    ["certify", "--topology", "dense.txt"],
    ["analyze", "--topology", "dense.txt", "--attack", "x1,y2"],
    ["platoon", "--n", "8", "--m", "2", "--p", "2"],
    ["sensors", "--n", "30", "--p", "2", "--k1", "1", "--k2", "2"],
    ["certify", "--topology", "bad.json"],
    ["simulate", "--topology", "dense.txt", "--eta", "-1"],
    ["attack", "--topology", "dense.txt", "--attack", "x1", "--seed", "-5"],
    ["attack", "--topology", "dense.txt", "--attack", ","],
    ["simulate", "--topology", "bad.json"],
    ["simulate", "--topology", "dense.txt", "--horizon", "0"],
]
codes = [main(argv) for argv in runs]
numeric = ("numpy", "scipy")
graph_only = [name for name in numeric if name in sys.modules]
machinery = [name for name in ("dataclasses", "inspect") if name in sys.modules]
stealthguard.realize
after_realize = [name for name in numeric if name in sys.modules]
print(json.dumps({"codes": codes, "graph_only": graph_only, "machinery": machinery,
                  "after_realize": after_realize}))
"""


def test_graph_only_runs_load_neither_numpy_nor_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", GRAPH_ONLY_RUN], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2]
    assert report["graph_only"] == []
    assert report["machinery"] == []
    assert report["after_realize"] == ["numpy"]


def test_every_exported_name_is_its_defining_modules_object():
    for name in stealthguard.__all__:
        obj = getattr(stealthguard, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("stealthguard."), name
        assert getattr(module, name) is obj, name
    assert set(stealthguard.__all__) <= set(dir(stealthguard))


def test_numeric_names_are_the_exports_simulation_defines():
    defined = {name for name in stealthguard.__all__
               if getattr(getattr(simulation, name, None), "__module__", None)
               == simulation.__name__}
    assert stealthguard._NUMERIC == defined


def test_numeric_names_import_from_the_package():
    from stealthguard import realize, spectral_radius
    assert realize is simulation.realize
    assert spectral_radius is simulation.spectral_radius


def test_numeric_names_are_looked_up_on_every_access(monkeypatch):
    original = stealthguard.realize
    replacement = object()
    monkeypatch.setattr(simulation, "realize", replacement)
    assert stealthguard.realize is replacement
    monkeypatch.undo()
    assert stealthguard.realize is original


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        stealthguard.no_such_name

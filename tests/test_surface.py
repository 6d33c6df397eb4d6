"""The package's public surface: exports and console scripts resolve, and
the types that hold arrays compare by identity."""

import importlib
import inspect
import pkgutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cequil
from cequil.basis import CcpTrace
from cequil.bayesopt import LearnTrace
from cequil.game import ConvexGame
from cequil.polytope import FwResult, Polyhedron, solve_lp
from cequil.regret import BasisSet, RegretReport
from cequil.tntp import NetworkData

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
MODULES = ["cequil"] + [f"cequil.{m.name}" for m in pkgutil.iter_modules(cequil.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ has duplicates"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_classes_and_functions(name):
    # a class or function is the module's own when it is defined there or,
    # for the package, in one of its submodules; imported helpers are not
    module = importlib.import_module(name)
    defs = {attr: value for attr, value in vars(module).items()
            if inspect.isclass(value) or inspect.isfunction(value)}
    own = {attr for attr, value in defs.items()
           if not attr.startswith("_") and (value.__module__ + ".").startswith(name + ".")}
    listed = set(getattr(module, "__all__", [])) & set(defs)
    assert listed == own, (f"{name}.__all__ misses {sorted(own - listed)} "
                           f"and lists {sorted(listed - own)} from elsewhere")


def test_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    for script, target in project.get("scripts", {}).items():
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"script {script}: {target} is not callable"


def test_tracer_bindings_resolve(monkeypatch):
    # the benchmark's tracer patches these attributes by name; a renamed one
    # would only surface in a traced benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracer = importlib.import_module("tracer")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracer.BINDINGS if not callable(getattr(owner, attr, None))]
    assert not missing, f"tracer bindings do not resolve: {missing}"


ARRAY_HOLDERS = {
    "Polyhedron": lambda: Polyhedron.box([0.0], [1.0]),
    "LpSolution": lambda: solve_lp([1.0, 1.0], Polyhedron.box([0.0, 0.0], [1.0, 1.0])),
    "FwResult": lambda: FwResult(np.zeros(2), 0.0, 0.0, 1, True, 0.0),
    "BasisSet": lambda: BasisSet([[np.zeros(2)]]),
    "RegretReport": lambda: RegretReport(np.zeros(2), [np.zeros(2)], np.zeros(2), np.zeros(2)),
    "CcpTrace": lambda: CcpTrace([], True),
    "LearnTrace": lambda: LearnTrace([np.zeros(2)], np.zeros(1)),
    "ConvexGame": lambda: ConvexGame([Polyhedron.box([0.0], [1.0])], None, None),
    "NetworkData": lambda: NetworkData(2, 1, [1], [2], [1.0], [1.0], [0.15], [4.0]),
}


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_array_holders_compare_by_identity(name):
    # a field-wise == on arrays raises or returns an array, and a field-wise
    # hash fails on an array or a list
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert (a == a) is True
    assert (a == b) is False
    assert len({a, b}) == 2


def test_derived_values_follow_a_replace():
    # each derived value is computed from its source field, so a replace
    # cannot leave it stale
    rep = replace(RegretReport(np.array([0.1, 0.3]), [np.zeros(2)] * 2, np.zeros(2),
                               np.zeros(2)),
                  per_player=np.array([1.0, 3.0]))
    assert rep.average == 2.0
    trace = replace(LearnTrace([np.zeros(2)] * 3, np.array([3.0, 1.0, 2.0])),
                    values=np.array([2.0, 5.0, 0.5]))
    assert trace.incumbent_values.tolist() == [2.0, 2.0, 0.5]
    ccp = replace(CcpTrace([(None, 0.0)], True), iterates=[(None, 0.0)] * 4)
    assert ccp.iterations == 3


def test_readme_pipeline_runs(monkeypatch, capsys):
    # the README's python block is the whole pipeline on Sioux Falls, run
    # from the root of the checkout as the README says
    block = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert len(scope["trace"].values) == 40
    assert scope["report"].per_player.shape == (3,)
    assert "CeVerdict(" in capsys.readouterr().out

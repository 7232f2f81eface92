"""The benchmark in ``perfbench/`` traces the package by wrapping its names
from outside; these tests keep those names and the tracer's bookkeeping
working as the package changes."""

import importlib
import re
import sys
from pathlib import Path

import pytest

import pekar

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("run"), importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_hand_count_holds(bench):
    run, _ = bench
    checks = run.hand_count(pekar)
    assert checks
    assert [(label, detail) for label, ok, detail in checks if not ok] == []


def test_uninstall_restores_every_patched_attribute(bench):
    _, tracing = bench
    owners = [pekar] + [m for name, m in sys.modules.items() if name.startswith("pekar.")]
    owners += [
        getattr(sys.modules[f"pekar.{layer}"], cls) for layer, cls, _ in tracing._METHODS
    ]
    before = [dict(vars(owner)) for owner in owners]
    tr = tracing.Tracer()
    tr.install(pekar)
    try:
        patched = list(tr._patches)
        assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
    finally:
        tr.uninstall()
    assert any(owner is pekar and attr == "minimize" for owner, attr, _ in patched)
    for owner, old in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(old), owner
        assert all(now[k] is v for k, v in old.items()), owner


def test_workload_names_resolve_on_the_package():
    # the untraced benchmark looks these names up on the package it imports,
    # directly (pk.name, pk.module.name) or through a local (exp = pk.experiments);
    # a name deleted from pekar would fail only in a benchmark run
    names = set()
    for script in ("workloads.py", "run.py"):
        text = (PERFBENCH / script).read_text()
        names.update(re.findall(r"\bpk((?:\.[A-Za-z_]\w*)+)", text))
        for alias, path in re.findall(r"\b(\w+) = pk((?:\.\w+)+)$", text, re.M):
            names.update(path + rest for rest in re.findall(rf"\b{alias}((?:\.\w+)+)", text))
    assert {".normalize", ".spectral.ops_for", ".experiments.perturbed_energy"} <= names
    missing = []
    for dotted in sorted(names):
        obj = pekar
        for part in dotted.split(".")[1:]:
            if not hasattr(obj, part):
                missing.append(dotted)
                break
            obj = getattr(obj, part)
    assert missing == []

"""The ll_lab names that the benchmark harness calls must exist.

The smoke test runs only the harness's traced round; its setup, probe and
track-building stages call further functions (rhs_hll, hessian_apply,
negative_mode, load_trajectory, ...).  This test reads every attribute chain
rooted at an ll_lab module name in perfbench/*.py, without running the
harness, and resolves each one on the imported module.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("cli", "dynamics", "grid", "modulation", "scenarios", "solitons")


def _chain(node: ast.Attribute) -> tuple[str, ...] | None:
    """('dynamics', 'evolve') for dynamics.evolve, None unless the chain is
    rooted at one of MODULES."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in MODULES:
        return (node.id, *reversed(parts))
    return None


def _chains(source: str) -> set[tuple[str, ...]]:
    """Every maximal attribute chain rooted at a module name."""
    tree = ast.parse(source)
    inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            chain = _chain(node)
            if chain is not None:
                found.add(chain)
    return found


def _unresolved(chains) -> list[str]:
    missing = []
    for root, *attrs in sorted(chains):
        obj = importlib.import_module(f"ll_lab.{root}")
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(".".join((root, *attrs)))
                break
            obj = getattr(obj, attr)
    return missing


def _perfbench_chains() -> set[tuple[str, ...]]:
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        found |= _chains(path.read_text())
    return found


def test_every_perfbench_chain_resolves():
    chains = _perfbench_chains()
    # the probes alone call more than a dozen functions; an empty scan would
    # mean the files moved or the roots no longer match
    assert len(chains) >= 20, sorted(chains)
    assert _unresolved(chains) == []


def test_names_rebound_through_a_loop():
    # tracing.py rebinds evolve on each module through a loop variable,
    # which the scan cannot see
    for root in ("dynamics", "scenarios", "cli"):
        assert callable(getattr(importlib.import_module(f"ll_lab.{root}"), "evolve"))
    modulate = importlib.import_module("ll_lab.modulation").modulate
    assert "chi" in inspect.signature(modulate).parameters


def test_resolver_flags_a_missing_chain():
    chains = _chains("dynamics.evolve(s, c)\nmodulation.ChiCache.no_such_method(x)\n")
    assert chains == {("dynamics", "evolve"), ("modulation", "ChiCache", "no_such_method")}
    assert _unresolved(chains) == ["modulation.ChiCache.no_such_method"]

"""The ll_lab names that the benchmark harness calls must exist, and the
functions it rebinds must be called where it rebinds them.

The smoke test runs only the harness's traced round; its setup, probe and
track-building stages call further functions (rhs_hll, hessian_apply,
negative_mode, load_trajectory, ...).  This test reads every attribute chain
rooted at an ll_lab module name that perfbench/*.py reads, without running
the harness, and resolves each one on the imported module.  An assignment
target such as ``cli.track_modulation = track`` is not read, so it need not
resolve: the tracer times a call only in the modules whose global it
replaces, and the last test checks that every ll_lab module calling a
rebound function by its bare name is one of those.
"""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "ll_lab"
MODULES = ("cli", "dynamics", "grid", "modulation", "scenarios", "solitons")
# the functions whose module globals the tracer replaces with timing wrappers
REBOUND = ("evolve", "track_modulation")


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
    """Every maximal attribute chain rooted at a module name that is read;
    of an assignment target ``a.b.c = ...`` only ``a.b`` is read."""
    tree = ast.parse(source)
    reads = [n for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
    inner = {id(n.value) for n in reads}
    found = set()
    for node in reads:
        if id(node) not in inner:
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


def _perfbench_sources() -> list[str]:
    return [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]


def _perfbench_chains() -> set[tuple[str, ...]]:
    found = set()
    for source in _perfbench_sources():
        found |= _chains(source)
    return found


def _rebindings(source: str) -> dict[str, set[str]]:
    """For each attribute name, the modules on which the source assigns it:
    ``cli.name = ...``, or ``mod.name = ...`` inside ``for mod in (dynamics,
    scenarios, ...)``."""
    tree = ast.parse(source)
    loops = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, (ast.Tuple, ast.List))
                and all(isinstance(e, ast.Name) and e.id in MODULES for e in node.iter.elts)):
            loops[node.target.id] = {e.id for e in node.iter.elts}
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
                    root = target.value.id
                    mods = {root} if root in MODULES else loops.get(root, set())
                    found.setdefault(target.attr, set()).update(mods)
    return found


def _perfbench_rebindings() -> dict[str, set[str]]:
    found: dict[str, set[str]] = {}
    for source in _perfbench_sources():
        for name, mods in _rebindings(source).items():
            found.setdefault(name, set()).update(mods)
    return found


def _bare_readers(name: str) -> set[str]:
    """The ll_lab modules that read ``name`` as a bare global."""
    return {path.stem for path in PACKAGE.glob("*.py")
            if any(isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
                   for n in ast.walk(ast.parse(path.read_text())))}


def test_every_perfbench_chain_resolves():
    chains = _perfbench_chains()
    # the probes alone call more than a dozen functions; an empty scan would
    # mean the files moved or the roots no longer match
    assert len(chains) >= 20, sorted(chains)
    assert _unresolved(chains) == []


def test_names_rebound_through_a_loop():
    # tracing.py rebinds evolve on each module through a loop variable
    rebound = _perfbench_rebindings()
    assert rebound["evolve"] == {"dynamics", "scenarios", "cli"}
    modulate = importlib.import_module("ll_lab.modulation").modulate
    assert "chi" in inspect.signature(modulate).parameters


def test_every_bare_call_of_a_rebound_function_is_traced():
    rebound = _perfbench_rebindings()
    for name in REBOUND:
        readers = _bare_readers(name)
        # run_scenario, run_track and run_virial_audit call both by bare name
        assert "scenarios" in readers, (name, readers)
        assert readers <= rebound.get(name, set()), (name, readers, rebound.get(name))


def test_resolver_flags_a_missing_chain():
    chains = _chains("dynamics.evolve(s, c)\nmodulation.ChiCache.no_such_method(x)\n")
    assert chains == {("dynamics", "evolve"), ("modulation", "ChiCache", "no_such_method")}
    assert _unresolved(chains) == ["modulation.ChiCache.no_such_method"]
    # an assignment target is not read, but the chain it hangs on is
    assert _chains("cli.gone = f\nmodulation.ChiCache.mode_for = g\n") == {
        ("modulation", "ChiCache")}


def test_rebindings_follow_a_loop_over_modules():
    source = "for mod in (dynamics, cli):\n    mod.evolve = f\nscenarios.track_modulation = g\n"
    assert _rebindings(source) == {"evolve": {"dynamics", "cli"},
                                   "track_modulation": {"scenarios"}}

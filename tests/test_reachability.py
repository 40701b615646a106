"""Every public name in ``src/repro`` has a caller outside ``tests/``.

The entry points are the ``repro`` CLI, ``python -m repro.experiments``,
the server routes (all under ``src/repro``), ``examples/``,
``benchmarks/`` and ``perfbench/``.  A public function, class or method
that none of them mentions is surface only the tests keep alive; it is
deleted, or listed in :data:`ALLOWED` with the reason it stays.
(``tests/test_exports.py`` checks the other direction: every exported
name resolves.)

The scan reads the files with :mod:`ast` and imports nothing.  A
*reference* to a name is any ``Name`` or ``Attribute`` with that
identifier, a name in ``from ... import`` outside a package
``__init__`` (re-exports do not count), or a string constant that is
the identifier, or one dotted or colon-separated part of it (``getattr``
targets, registry entries), not counting ``__all__`` entries.  A
definition's own name inside its body does not count.  A method is
reached only through an attribute, a string or a name in a class body
(``do_HEAD = do_GET``): a local variable called ``best`` does not reach
``DiagnosisReport.best``.  Python calls binary-operator methods
(``__and__``, ``__add__``, ...) from an operator the scan cannot tie to
a class, so each such method needs an :data:`ALLOWED` entry.  Names are
matched by identifier alone, so a method name used as an attribute
anywhere (``args.top``) counts for every class.
"""

import ast
import re
import textwrap
from pathlib import Path
from typing import (
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
ENTRY_DIRS = (SRC, REPO / "examples", REPO / "benchmarks", REPO / "perfbench")

#: Names the entry points do not reach, each with the reason it stays.
ALLOWED: Dict[str, str] = {
    # Reference oracles that tests compare the engines against.
    "repro.fsim.serial.detection_word_serial":
        "serial fault simulation, the oracle every engine is checked against",
    "repro.sim.threeval.simulate3":
        "three-valued reference simulation for PODEM's implications",
    "repro.sim.bitsim.simulate_outputs":
        "bit-parallel reference for the numpy simulator's outputs",
    "repro.atpg.sat.CnfFormula.add_clauses":
        "CNF builder of the SAT oracle PODEM's verdicts are checked against",
    "repro.atpg.satgen.sat_podem":
        "SAT test generation, the oracle of PODEM's verdicts",
    "repro.diagnosis.chain.ChainRanker.rerank":
        "per-device re-rank the batched chain ranking is checked against",
    "repro.fsim.transition.initialization_word":
        "reference two-pattern initialization condition",
    "repro.sim.pattern_io.read_patterns":
        "pattern-file reader, the round trip of write_patterns",
    "repro.sim.pattern_io.read_pattern_pairs":
        "pair-file reader, the round trip of write_pattern_pairs",
    # Test hooks and helpers the tests share.
    "repro.telemetry.logs.set_sink":
        "test hook that captures structured log lines",
    "repro.circuit.flatten.CompiledCircuit.node_of":
        "name-to-node lookup the tests use to address signals",
    "repro.faults.collapse.CollapsedFaults.representative_of":
        "fault-to-class lookup the tests use to check collapsing",
    "repro.atpg.podem.pair_values":
        "decodes PODEM's (good, faulty) value pairs in the evaluator tests",
    "repro.sim.patterns.PatternSet.as_integer":
        "reads one pattern as an integer in the pattern tests",
    "repro.resilience.chaos.ChaosPlan.sites":
        "reads back a parsed REPRO_CHAOS plan in the chaos tests",
    # Test fixtures.
    "repro.circuit.library.and_chain": "test fixture circuit",
    "repro.circuit.library.xor_tree": "test fixture circuit",
    "repro.circuit.library.ripple_adder": "test fixture circuit",
    "repro.circuit.library.get_builtin": "fixture lookup by name",
    # Pieces of the sharded engine and its chaos plan, revisited with it.
    "repro.utils.detmatrix.DetectionMatrix.row_slice":
        "shard slicing, deleted with the sharded engine",
    "repro.resilience.supervisor.RetryPolicy.fail_fast":
        "shard retry policy, deleted with the sharded engine",
    "repro.resilience.chaos.ChaosPlan.to_spec":
        "renders a plan back to its REPRO_CHAOS spec in the chaos tests",
    # Callbacks http.server calls by name.
    "repro.flow.server.FlowRequestHandler.log_message":
        "http.server calls it for every log line",
    "repro.flow.server.FlowRequestHandler.log_request":
        "http.server calls it for every request",
    # The cache's recovery hook.
    "repro.flow.cache.ArtifactCache.reset_degraded":
        "re-arms the write path once the disk is fixed",
}

#: Methods Python calls from a binary operator.
_OPERATORS = frozenset(
    f"__{prefix}{op}__"
    for op in ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod",
               "pow", "lshift", "rshift", "and", "or", "xor")
    for prefix in ("", "r", "i"))

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)*\Z")


class Scan(NamedTuple):
    definitions: Dict[str, Tuple[str, bool]]  # qualified -> (name, method)
    names: Set[str]    # every reference
    members: Set[str]  # references that can reach a method


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _definitions(path: Path, tree: ast.Module, src: Path
                 ) -> Iterator[Tuple[str, Tuple[str, bool]]]:
    """Public module-level definitions, and the public and operator
    methods of public classes."""
    module = _module_name(path, src)
    for node in tree.body:
        if not isinstance(node, _DEFS) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", (node.name, False)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and (
                        not item.name.startswith("_")
                        or item.name in _OPERATORS):
                    yield (f"{module}.{node.name}.{item.name}",
                           (item.name, True))


def _exported_constants(tree: ast.Module) -> Set[int]:
    """Ids of the string constants of a module's ``__all__``."""
    ids: Set[int] = set()
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [getattr(node, "target", None)])
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets):
            ids.update(id(c) for c in ast.walk(node)
                       if isinstance(c, ast.Constant))
    return ids


def _references(path: Path, tree: ast.Module
                ) -> Iterator[Tuple[str, bool]]:
    """Yield ``(identifier, can reach a method)`` for each reference,
    skipping a definition's own name inside its body."""
    exported = _exported_constants(tree)
    in_init = path.name == "__init__.py"

    def visit(node: ast.AST, enclosing: frozenset, in_class: bool
              ) -> Iterator[Tuple[str, bool]]:
        if isinstance(node, _DEFS):
            enclosing = enclosing | {node.name}
            in_class = isinstance(node, ast.ClassDef)
        elif isinstance(node, ast.Lambda):
            in_class = False
        if isinstance(node, ast.Name):
            found = [(node.id, in_class)]
        elif isinstance(node, ast.Attribute):
            found = [(node.attr, True)]
        elif isinstance(node, ast.ImportFrom) and not in_init:
            found = [(alias.name, False) for alias in node.names]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in exported and _DOTTED.match(node.value)):
            found = [(part, True) for part in re.split("[.:]", node.value)]
        else:
            found = []
        for name, member in found:
            if name not in enclosing:
                yield name, member
        for child in ast.iter_child_nodes(node):
            yield from visit(child, enclosing, in_class)

    yield from visit(tree, frozenset(), False)


def scan(src: Path = SRC, entry_dirs: Sequence[Path] = ENTRY_DIRS) -> Scan:
    """Parse the package ``src`` and the entry-point directories."""
    result = Scan({}, set(), set())
    for root in entry_dirs:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            if root == src:
                result.definitions.update(_definitions(path, tree, src))
            for name, member in _references(path, tree):
                result.names.add(name)
                if member:
                    result.members.add(name)
    return result


def _reached(result: Scan, qualified: str) -> bool:
    name, method = result.definitions[qualified]
    if name in _OPERATORS:
        return False
    return name in (result.members if method else result.names)


def unreached(result: Optional[Scan] = None) -> List[str]:
    """Qualified names nothing outside ``tests/`` reaches."""
    if result is None:
        result = scan()
    return sorted(qualified for qualified in result.definitions
                  if not _reached(result, qualified)
                  and qualified not in ALLOWED)


def test_every_public_name_is_reached():
    missing = unreached()
    assert not missing, (
        "public names only tests reach; delete them or add each to "
        f"ALLOWED with its reason: {missing}")


def test_every_allowed_entry_is_needed():
    result = scan()
    stale = sorted(name for name in ALLOWED
                   if name not in result.definitions)
    assert not stale, f"ALLOWED names no definition: {stale}"
    reached = sorted(name for name in ALLOWED if _reached(result, name))
    assert not reached, f"ALLOWED entries the entry points reach: {reached}"
    assert all(reason.strip() for reason in ALLOWED.values())


def scan_package(root: Path, files: Dict[str, str]) -> List[str]:
    """Write ``files`` under ``root`` and return what nothing reaches in
    the package ``root/src/pkg``, with ``root/entry`` as the one
    entry-point directory."""
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    src = root / "src" / "pkg"
    entry = root / "entry"
    entry.mkdir(exist_ok=True)
    return unreached(scan(src, (src, entry)))


def test_scan_names_what_no_entry_point_reaches(tmp_path):
    assert scan_package(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/mod.py": """
            def used(): pass
            def unused(): pass
            def _private(): pass
            class Unused: pass
            """,
        "entry/main.py": "from pkg.mod import used\nused()\n",
    }) == ["pkg.mod.Unused", "pkg.mod.unused"]


def test_re_export_is_not_a_reference(tmp_path):
    files = {
        "src/pkg/__init__.py": """
            from pkg.mod import helper
            __all__ = ["helper"]
            """,
        "src/pkg/mod.py": "def helper(): pass\n",
    }
    assert scan_package(tmp_path, files) == ["pkg.mod.helper"]
    files["entry/main.py"] = "from pkg import helper\n"
    assert scan_package(tmp_path, files) == []


def test_method_is_reached_by_attribute_or_string_only(tmp_path):
    assert scan_package(tmp_path, {
        "src/pkg/mod.py": """
            class Report:
                def best(self): pass
                def top(self): pass
                def rank(self): pass
            """,
        "entry/main.py": """
            from pkg.mod import Report
            best = 1
            Report().top()
            getattr(Report(), "rank")()
            """,
    }) == ["pkg.mod.Report.best"]


def test_own_name_inside_its_body_is_not_a_reference(tmp_path):
    assert scan_package(tmp_path, {
        "src/pkg/mod.py": """
            def walk(n):
                return walk(n - 1) if n else 0
            def main(): pass
            """,
        "entry/main.py": "from pkg.mod import main\n",
    }) == ["pkg.mod.walk"]


def test_dotted_string_reaches_each_part_but_all_entry_does_not(tmp_path):
    files = {
        "src/pkg/mod.py": """
            __all__ = ["handler"]
            def handler(): pass
            """,
    }
    assert scan_package(tmp_path, files) == ["pkg.mod.handler"]
    files["entry/main.py"] = 'TARGET = "pkg.mod:handler"\n'
    assert scan_package(tmp_path, files) == []


def test_operator_methods_always_need_an_entry(tmp_path):
    assert scan_package(tmp_path, {
        "src/pkg/mod.py": """
            class Mask:
                def __and__(self, other): pass
                def __len__(self): pass
            """,
        "entry/main.py": """
            from pkg.mod import Mask
            Mask() & Mask.__and__
            """,
    }) == ["pkg.mod.Mask.__and__"]


if __name__ == "__main__":
    print("\n".join(unreached()))

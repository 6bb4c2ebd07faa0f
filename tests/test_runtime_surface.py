"""The runtime package keeps only what a run uses: every function, class,
method, property and module-level name defined in src/relaysim is read
somewhere in src/relaysim or exported by relaysim/__init__.py, and every
name a runtime module imports is read in that module. Helpers only the tests
call belong in tests/oracles.py. Only protocol._Fifos reads its id layout,
and experiment.py takes SystemConfig's field names from SystemConfig."""

import ast
import dataclasses
from pathlib import Path

import relaysim
from relaysim.engine import SystemConfig

SRC = Path(relaysim.__file__).resolve().parent

# name -> why it stays although no runtime code refers to it
ALLOWED = {
    "FixedLinkSampler": "an inert placeholder: perfbench/tracing.py patches "
                        "FixedLinkSampler.connected by name",
    "step_regions": "an inert placeholder: perfbench/tracing.py patches "
                    "protocol.step_regions by name",
    "sample_positions_in_region": "an inert placeholder: perfbench/tracing.py "
                                  "patches protocol.sample_positions_in_region by name",
}


def parse_sources() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def unused_definitions(trees: dict) -> set:
    defined, used = set(), set()
    for tree in trees.values():
        for node in tree.body:    # module-level assignment targets
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined.update(name.id for target in targets for name in ast.walk(target)
                           if isinstance(name, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = {alias.asname or alias.name for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    dunders = {name for name in defined if name.startswith("__") and name.endswith("__")}
    return defined - used - exported - dunders


def unused_imports(trees: dict) -> set:
    """(module, name) per name a runtime module imports but never reads;
    __init__.py re-exports what it imports, and __future__ imports are
    compiler directives."""
    unused = set()
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused |= {(module, name) for name in imported - read}
    return unused


def test_every_runtime_definition_is_used_or_exported():
    unused = unused_definitions(parse_sources())
    assert unused - ALLOWED.keys() == set(), "move these to tests/oracles.py"


def test_every_allowed_exception_is_still_needed():
    assert ALLOWED.keys() <= unused_definitions(parse_sources())


def test_every_runtime_import_is_read():
    assert unused_imports(parse_sources()) == set(), "drop these imports"


def fifo_reads_outside_fifos(tree) -> list:
    """Lines where protocol.py reads an attribute fifo outside class _Fifos
    other than as the sole argument of len(): only _Fifos knows that a free
    id is an empty dict in fifo."""
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def inside_fifos(node):
        while node in parent:
            node = parent[node]
            if isinstance(node, ast.ClassDef) and node.name == "_Fifos":
                return True
        return False

    def len_argument(node):
        call = parent.get(node)
        return (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "len" and call.args == [node] and not call.keywords)

    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "fifo"
                  and isinstance(node.ctx, ast.Load)
                  and not inside_fifos(node) and not len_argument(node))


def test_only_fifos_reads_its_id_layout():
    assert fifo_reads_outside_fifos(parse_sources()["protocol.py"]) == [], \
        "draw ids through _Fifos.pick or _Fifos.cover"


# SystemConfig field names experiment.py may spell as string literals: the
# keys no sweep takes, the mobile-only columns and the resolved warm-up
FIELD_LITERALS = {"seed", "buffer_cap", "alpha", "M", "q", "R", "warmup_frames"}


def config_field_literals(tree) -> list:
    """(line, name) per string literal that spells a SystemConfig init-field
    name outside the COLUMNS assignment, the output contract, and f-strings."""
    names = {f.name for f in dataclasses.fields(SystemConfig) if f.init}
    skipped = {id(node) for top in ast.walk(tree)
               if isinstance(top, ast.JoinedStr) or (isinstance(top, ast.Assign) and
                   [ast.unparse(target) for target in top.targets] == ["COLUMNS"])
               for node in ast.walk(top)}
    return sorted((node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in names
                  and id(node) not in skipped)


def test_experiment_spells_no_config_field_outside_the_allowlist():
    flagged = [(line, name) for line, name in config_field_literals(parse_sources()["experiment.py"])
               if name not in FIELD_LITERALS]
    assert flagged == [], "read these from _SYSTEM_KEYS or dataclasses.fields(SystemConfig)"

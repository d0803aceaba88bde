"""No library code that only tests reach.

Every module-level def and every method whose name is not a dunder, under
src/entriv, must be named somewhere in src/entriv, scripts/ or perfbench/:
as a Name, an attribute, an import alias, or a string constant that is an
identifier (perfbench/spans.py wraps functions by name).  The scan matches
bare names, so a def that shares its name with something referenced passes;
what it catches is a name that nothing outside tests/ mentions at all.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "entriv"
READERS = (SRC, ROOT / "scripts", ROOT / "perfbench")

# kept though only tests call them, each for its reason
ALLOWED = {
    # acceptance criterion 8 checks the wreath character identity through it
    "rep_theory.wreath_decomposition_check",
    # the Q-rank reference that the tests compare the Z and F_p routes against
    "core_algebra.rank_q",
    # acceptance criterion 9 and the certificate tests cross the sampler with it
    "euler_section.random_configuration",
    # the one-generator case of the Schur functor T_A; recovering A(n) from T_A extends it
    "sym_seq.free_piece_rational",
}


def referenced(tree) -> set:
    """Every name a parsed module mentions: Names, attributes, import
    aliases and identifier string constants."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def definitions(tree) -> list:
    """(qualified name, name) of each module-level def and each method of a
    module-level class whose name is not a dunder."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.name, node.name))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not (item.name.startswith("__") and item.name.endswith("__")):
                    found.append((f"{node.name}.{item.name}", item.name))
    return found


def unreferenced(defining: dict, readers: list) -> list:
    """Sorted 'module.qualified name' of each def in defining (module name ->
    tree) that no tree of readers names."""
    names = set().union(*map(referenced, readers))
    return sorted(f"{module}.{qualified}" for module, tree in defining.items()
                  for qualified, name in definitions(tree) if name not in names)


def test_no_library_code_only_tests_reach():
    defining = {path.stem: ast.parse(path.read_text(), str(path))
                for path in sorted(SRC.glob("*.py"))}
    readers = [ast.parse(path.read_text(), str(path))
               for folder in READERS for path in sorted(folder.rglob("*.py"))]
    assert [name for name in unreferenced(defining, readers) if name not in ALLOWED] == []


def test_the_scan_sees_every_unreferenced_def():
    library = ast.parse(
        "def used(): pass\n"
        "def unused(): pass\n"
        "def patched(): pass\n"
        "def imported(): pass\n"
        "class K:\n"
        "    def __init__(self): pass\n"
        "    def method(self): pass\n"
        "    def called(self): pass\n"
        "    def nested(self):\n"
        "        def inner(): pass\n"
        "        return inner\n"
        "used()\n"
        "K().nested()\n")
    reader = ast.parse("from lib import imported as alias\n"
                       "K().called()\n"
                       "setattr(lib, 'patched', None)\n")
    assert unreferenced({"lib": library}, [library, reader]) == ["lib.K.method", "lib.unused"]

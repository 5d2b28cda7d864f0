"""src/sumbox holds only what its commands run: every function and class
defined there is referenced from src itself.

A definition counts as referenced when its name appears, as a name or an
attribute, in src outside its own body and outside every definition that is
itself unreferenced; a method or property counts only through an attribute
(`x.name`), since a bare name of the same spelling is some other binding.
The live set is grown from module level to a fixpoint, so code reached only
from dead code is dead too.  Code the tests need as a
reference lives under tests/ (mat_reference, box_reference, lp_reference).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sumbox"

# bench/ imports, traces or reads these (bench's single-shot simulate check
# reads Mat.data); they leave src together with bench's use of them (ROADMAP
# item 5)
BENCH_PINNED = {"data", "feasible", "maximal_dsc_gain", "simulate", "true_sum",
                "worked_reference_scheme"}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scan(node, chain, where, defs, refs):
    """Collect (definition, enclosing chain, location) and (name, is
    attribute) -> [chain] for every reference; decorators, defaults and bases
    belong to the enclosing chain, the body to the definition's own."""
    if isinstance(node, ast.Name):
        refs.setdefault((node.id, False), []).append(chain)
    elif isinstance(node, ast.Attribute):
        refs.setdefault((node.attr, True), []).append(chain)
    inner = chain
    if isinstance(node, DEFS):
        defs.append((node, chain, f"{where}:{node.lineno}"))
        inner = chain + (node,)
    for child in ast.iter_child_nodes(node):
        in_body = isinstance(node, DEFS) and any(child is b for b in node.body)
        _scan(child, inner if in_body else chain, where, defs, refs)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced(src: Path = SRC, roots=frozenset()) -> dict[str, str]:
    """name -> location of every non-dunder definition in src with no live
    reference.  A dunder is called by the language and a root from outside
    src, so each is live as soon as every definition around it is."""
    defs, refs = [], {}
    for path in sorted(src.glob("*.py")):
        _scan(ast.parse(path.read_text(), str(path)), (), path.name, defs, refs)
    live, grown = set(), True
    while grown:
        grown = False
        for d, outer, _ in defs:
            if d in live:
                continue
            if _dunder(d.name) or d.name in roots:
                chains = [outer]
            else:  # a method is reached only as an attribute
                chains = refs.get((d.name, True), [])
                if not (outer and isinstance(outer[-1], ast.ClassDef)):
                    chains = chains + refs.get((d.name, False), [])
            if any(d not in chain and live.issuperset(chain) for chain in chains):
                live.add(d)
                grown = True
    return {d.name: loc for d, _, loc in defs if d not in live and not _dunder(d.name)}


def test_every_src_definition_is_reached_from_src():
    dead = unreferenced(roots=BENCH_PINNED)
    assert not dead, f"defined in src/sumbox but referenced from no live src code: {dead}"


def test_the_bench_pinned_names_are_still_defined():
    defined = {node.name for path in SRC.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, DEFS)}
    assert BENCH_PINNED <= defined


def test_code_reached_only_from_dead_code_is_dead(tmp_path):
    (tmp_path / "m.py").write_text(
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def dead():\n    return leaf() + dead()\n\n"
        "def leaf():\n    return 2\n\n"
        "class C:\n    def __init__(self):\n        self.x = from_init()\n\n"
        "    def m(self):\n        return 3\n\n"
        "def from_init():\n    return 4\n\n"
        "print(used(), C())\n")
    assert unreferenced(tmp_path) == {"dead": "m.py:7", "leaf": "m.py:10", "m": "m.py:17"}
    assert unreferenced(tmp_path, roots={"dead"}) == {"m": "m.py:17"}


def test_a_method_is_reached_only_through_an_attribute(tmp_path):
    # a parameter named like a method does not reach it; x.used() does
    (tmp_path / "m.py").write_text(
        "class C:\n    def data(self):\n        return 1\n\n"
        "    def used(self):\n        return 2\n\n"
        "def f(data):\n    return data, C().used()\n\n"
        "print(f(0))\n")
    assert unreferenced(tmp_path) == {"data": "m.py:2"}

"""The randomness rule: only seeding.py builds generators."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "seqrec"


def dotted(node):
    """'a.b.c' for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def test_no_generator_is_built_outside_seeding():
    # every generator is derived by seeding.rng_for (or a SeedStream) from a
    # key; a call such as np.random.default_rng(seed) elsewhere is a second rule
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "seeding.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = dotted(node.func) or ""
                if name.startswith(("np.random.", "numpy.random.")):
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []

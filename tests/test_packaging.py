import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fibquad"


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies, so every absolute import
    # must resolve in the standard library; relative imports stay inside
    # the package
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert PACKAGE.joinpath("__init__.py").exists()
    assert outside == []


def test_modules_use_every_name_they_import():
    # __init__.py imports to export; every other module imports only the
    # names it reads
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_claims_leave_number_rendering_to_run_claim():
    # a claim returns raw values and run_claim alone puts them in wire
    # form, so no claim_* function in oracle.py may read number_str
    tree = ast.parse(PACKAGE.joinpath("oracle.py").read_text(encoding="utf-8"))
    claims = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("claim_")]
    reads = [f"{claim.name}:{node.lineno}" for claim in claims for node in ast.walk(claim)
             if isinstance(node, ast.Name) and node.id == "number_str"]
    assert len(claims) >= 6
    assert reads == []

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
    # form, so no claim_* function in oracle.py may read number_str or
    # any to_dict, which would hand it text already rendered
    tree = ast.parse(PACKAGE.joinpath("oracle.py").read_text(encoding="utf-8"))
    claims = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("claim_")]
    reads = [f"{claim.name}:{node.lineno}" for claim in claims for node in ast.walk(claim)
             if (isinstance(node, ast.Name) and node.id == "number_str")
             or (isinstance(node, ast.Attribute) and node.attr == "to_dict")]
    assert len(claims) >= 6
    assert reads == []


def test_loops_read_windows_from_the_iterator():
    # windows come from fibonacci.windows, one fast-doubling seed per sweep,
    # so no loop or comprehension may derive a window or a member per index
    derivers = {"fib_window", "_fib_pair", "build_f", "build_g"}
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    calls = [f"{path.name}:{node.lineno} {name}" for path in sorted(PACKAGE.glob("*.py"))
             for loop in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(loop, loops)
             for node in ast.walk(loop) if isinstance(node, ast.Call)
             for name in [getattr(node.func, "id", getattr(node.func, "attr", None))] if name in derivers]
    assert calls == []


def test_only_the_verification_report_renders_itself():
    # the library returns raw values and numeric.wire renders every JSON
    # payload; VerificationReport.to_dict stays because verify and the
    # benchmark read a report whole
    defined = [f"{path.name}:{cls.name}" for path in sorted(PACKAGE.glob("*.py"))
               for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "to_dict"]
    assert defined == ["oracle.py:VerificationReport"]



def test_every_cache_is_bounded():
    # an unbounded cache (functools.cache, lru_cache(maxsize=None)) may only
    # hold the one result of a function without parameters; any other
    # lru_cache names its bound as a literal int, so memory stays bounded
    cached, bad = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                call = decorator if isinstance(decorator, ast.Call) else None
                target = call.func if call else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name not in ("cache", "lru_cache"):
                    continue
                cached.append(f"{path.name}:{node.name}")
                if name == "cache":
                    maxsize = None
                else:  # a bare @lru_cache or lru_cache() takes the default, not a literal
                    given = ([kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]) if call else []
                    maxsize = given[0].value if given and isinstance(given[0], ast.Constant) else "default"
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
                if (maxsize is None and params) or (maxsize is not None and type(maxsize) is not int):
                    bad.append(f"{path.name}:{node.lineno} {node.name} maxsize={maxsize!r}")
    assert {"cli.py:build_parser", "svgplot.py:_frame"} <= set(cached)
    assert bad == []

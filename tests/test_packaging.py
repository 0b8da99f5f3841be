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
    # every module, __init__.py too, imports only the names it reads
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_each_public_name_has_one_import_path():
    # the package root imports nothing, so a name is reached only through
    # the module that defines it and importing one module loads only what
    # it reads; `from . import X` inside the package names a submodule,
    # never a name the root would have to re-export
    root = ast.parse(PACKAGE.joinpath("__init__.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(root) if isinstance(node, (ast.Import, ast.ImportFrom))] == []
    submodules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    not_modules = [f"{path.name}:{node.lineno} {alias.name}" for path in sorted(PACKAGE.glob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
                   for alias in node.names if alias.name not in submodules]
    assert not_modules == []


def _oracle_functions():
    """oracle.py's top-level functions by name; a claim's window check is
    nested in its claim_* function."""
    tree = ast.parse(PACKAGE.joinpath("oracle.py").read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_claims_leave_number_rendering_to_run_claim():
    # a claim returns raw values and run_claim alone puts them in wire
    # form, so no claim_* function in oracle.py, nor a window check nested
    # in one, nor _share, which runs the checks, nor _member_problems, which
    # checks a theorem3 member, may read number_str or any to_dict, which
    # would hand it text already rendered
    functions = _oracle_functions()
    claims = [functions[name] for name in ("claim_window_triples", "claim_scaling", "claim_roots",
                                           "claim_family345", "claim_mod3", "claim_theorem3", "_share",
                                           "_member_problems")
              if name in functions]
    reads = [f"{claim.name}:{node.lineno}" for claim in claims for node in ast.walk(claim)
             if (isinstance(node, ast.Name) and node.id == "number_str")
             or (isinstance(node, ast.Attribute) and node.attr == "to_dict")]
    assert len(claims) == 8
    assert reads == []


def test_one_function_checks_a_theorem3_member():
    # _member_problems holds every per-member theorem3 check, so it alone
    # reads the integral and discriminant kernels, and claim_theorem3 keeps
    # only the window work: members, the fault and the flavor label
    kernels = ("_discriminant_root", "_antiderivative6", "_breakdown6")
    readers = {name: sorted({getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(function)}
                            & set(kernels))
               for name, function in _oracle_functions().items()}
    assert {name: read for name, read in readers.items() if read} == {"_member_problems": sorted(kernels)}
    assert readers["claim_theorem3"] == []


def test_one_function_walks_and_splits_the_windows():
    # _share alone iterates windows(...), runs a claim's check on each and
    # filters by rank, so every window sweep reads its windows, splits and
    # labels its records in one place; claim_scaling's six base triples are
    # the one other read of windows
    walks, splits = [], []
    for name, function in _oracle_functions().items():
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "windows":
                walks.append(f"{name}: {ast.unparse(node)}")
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                    and getattr(node.right, "id", None) == "size"):
                splits.append(name)
            if isinstance(node, ast.Compare) and any(
                    getattr(operand, "id", None) == "rank" for operand in (node.left, *node.comparators)):
                splits.append(name)
    assert sorted(walks) == ["_share: windows(1, n)", "claim_scaling: windows(1, 6)"]
    assert set(splits) == {"_share"}


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


def test_only_quadratic_builds_polynomials_and_roots():
    # quadratic writes the coefficient scheme and the closed roots once, and
    # families.members reads both from there; outside quadratic only quad
    # analyze builds a QuadPoly, from raw coefficients
    built = {f"{path.stem}.{getattr(top, 'name', '<module>')}: {name}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "quadratic.py"
             for top in ast.parse(path.read_text(encoding="utf-8")).body
             for node in ast.walk(top) if isinstance(node, ast.Call)
             for name in [getattr(node.func, "id", getattr(node.func, "attr", None))]
             if name in ("QuadPoly", "RootPair")}
    assert built == {"cli.cmd_quad: QuadPoly"}


def test_every_claim_reads_the_members_families_builds():
    # the claims take each polynomial and its closed roots from
    # families.members, or family_345, which calls it, so oracle.py calls
    # neither build_quadratic nor the two formulas members reads
    tree = ast.parse(PACKAGE.joinpath("oracle.py").read_text(encoding="utf-8"))
    called = [(node.lineno, getattr(node.func, "id", getattr(node.func, "attr", None)))
              for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert {"members", "family_345"} <= {name for _, name in called}
    assert [f"oracle.py:{line} {name}" for line, name in called
            if name in ("build_quadratic", "_leg_poly", "_closed_roots")] == []


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


def _is_call(node, module, name):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == name
            and isinstance(node.func.value, ast.Name) and node.func.value.id == module)


def test_a_forked_child_never_returns_into_its_caller():
    # os.fork is called in one function only, and the branch the child
    # takes is a single try whose finally ends in os._exit, so no child can
    # return into the code that called the sweep (a test run, the bench).
    # The fork runs inside a with that owns the pipe's write end, and no
    # except handler closes descriptors, so a failed fork leaves its
    # cleanup to the with and the one finally
    forking = []
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                forks = [node for node in ast.walk(func) if _is_call(node, "os", "fork")]
                if forks:
                    forking.append((f"{path.name}:{func.name}", func, forks))
    assert [(name, len(forks)) for name, _, forks in forking] == [("oracle.py:_in_shares", 1)]
    [(_, func, [fork])] = forking
    [pid] = [node.targets[0].id for node in ast.walk(func)
             if isinstance(node, ast.Assign) and node.value is fork]
    child = [node for node in ast.walk(func) if isinstance(node, ast.If)
             and isinstance(test := node.test, ast.Compare) and isinstance(test.left, ast.Name)
             and test.left.id == pid and isinstance(test.ops[0], ast.Eq)
             and isinstance(test.comparators[0], ast.Constant) and test.comparators[0].value == 0]
    assert len(child) == 1
    [body] = child[0].body
    assert isinstance(body, ast.Try) and body.finalbody
    assert isinstance(body.finalbody[-1], ast.Expr) and _is_call(body.finalbody[-1].value, "os", "_exit")
    [write] = [node.targets[0].elts[1].id for node in ast.walk(func) if isinstance(node, ast.Assign)
               and _is_call(node.value, "os", "pipe")]
    owning = [node for node in ast.walk(func) if isinstance(node, ast.With) and any(
        isinstance(call := item.context_expr, ast.Call) and getattr(call.func, "id", None) == "open"
        and [getattr(arg, "id", None) for arg in call.args[:1]] == [write] for item in node.items)]
    assert [fork in ast.walk(node) for node in owning] == [True]
    closing = [node for handler in ast.walk(func) if isinstance(handler, ast.ExceptHandler)
               for node in ast.walk(handler) if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) in ("close", "closerange")]
    assert closing == []


def test_one_writer_prints_json_and_csv_text():
    # JSON text comes from cli._json_text and CSV lines from cli._csv_line
    # alone: no module calls json.dumps or json.dump, or imports either by
    # name, and none imports csv
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names if alias.name.split(".")[0] == "csv"]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names if node.module.split(".")[0] == "csv"
                         or (node.module == "json" and alias.name in ("dump", "dumps"))]
            else:
                names = [f"json.{name}" for name in ("dump", "dumps") if _is_call(node, "json", name)]
            found += [f"{path.name}:{node.lineno} {name}" for name in names]
    assert found == []


def _stream_of(node):
    """'stdout' or 'stderr' when node is sys.stdout or sys.stderr, else None."""
    if (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
            and isinstance(node.value, ast.Name) and node.value.id == "sys"):
        return node.attr
    return None


def _writes(node):
    """The stream a node writes to: a print call (stdout unless its file= is
    sys.stderr), a read of sys.stdout.write or sys.stderr.write (called or
    bound), or a writer or dump call handed sys.stdout or sys.stderr."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
        [target] = [kw.value for kw in node.keywords if kw.arg == "file"] or [None]
        return "stdout" if target is None else _stream_of(target) or "file"
    if isinstance(node, ast.Attribute) and node.attr in ("write", "writelines"):
        return _stream_of(node.value)
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("writer", "DictWriter", "dump"):
        return next(filter(None, map(_stream_of, node.args)), None)
    return None


def test_one_output_layer_writes_stdout_and_one_helper_stderr():
    # rows stream to stdout through cli._emit alone, so no command can print
    # around it, and cli._fail alone reports errors on stderr
    writers = {"stdout": set(), "stderr": set()}
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            scope = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                stream = _writes(node)
                if stream in writers:
                    writers[stream].add(scope)
    assert writers == {"stdout": {"cli._emit"}, "stderr": {"cli._fail"}}

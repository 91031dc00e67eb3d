"""No dead code, and a sweep that names no theorem.

Every function and method in src/ has a caller in src/.  A method, or a
module-level function that the package does not export from
suparg/__init__.py, must be referenced somewhere in src/ outside its own
definition.  This holds for private (single-underscore) helpers as for
public names, and every private module-level constant or class must be read
the same way.  A reference is a name, an attribute, or a string equal to the
name (rows name their provers by string).  Dunder methods are exempt: Python
calls them, and perfbench/micro.py times FloatInterval.__add__, __mul__ and
__truediv__ by name.

sweep.py holds no string equal to a theorem code, imports no certificate
class and reads no attribute named like a field that some swept
certificates have and others lack (partition, which the sweep keeps for
every row, excepted): what one theorem's sweep needs lives in that
theorem's row.  Nor does it read a row's limit or accept: a probe is
judged only through the row's judge.

The fold carries the certificate it builds: sweep.py defines no class but
its input, its witness and its failure, and no swept certificate has a
field named like a step width the fold carries beside the certificate's.

A frontier takes one search, and a point one probe: sweep.py calls _probe
from two sites, local_extend's search and base_case's point, and no
handler there swallows a DomainError, as one that reran a failed search
would.  base_case judges its point only through that probe: it calls
neither _accepts nor _refutation, and builds no LocalWitness.  A probe
takes one enclosure of its piece: outside its loop over the row's points
the body of _probe calls _enclose once, so no second look at a rejected
piece's right half is left.  _enclose alone evaluates: sweep.py calls
eval_iv and eval_d1 only inside it.

The prover decides what a pass out of pieces means: certificates.py reads
no attribute max_pieces, so no row's start judges a budget.

theorems.py builds no Fraction: exact rational tests belong to the
checker, and the root prover's width test takes sub_up, an upper bound of
the exact width.  prove_root has one loop, its passes over the bracket:
the point past a stall comes from the sweep's failure, not a climb of its
own.

Every certificate class a row builds is exported from suparg, and no
module but __init__.py, which re-exports, imports a name it never reads.
`from suparg import *` binds names the package gives, no submodule.

A prover has one outcome per failure, a returned SweepFailure: no
identifier in src/ is PreconditionError or Inconclusive, theorems.py
defines no class, and cli._cmd_prove has no try to catch a second kind.

An expression has one representation, the tape parse writes: no module
subclasses Expr, and only parse calls Expr(...).  It has one derivative,
eval_d1's, with no class of expressions fenced off from it: no identifier
in src/ is NotDifferentiable, has_abs or differentiable, and an Expr holds
its code alone.

Every annotation in src/ resolves: typing.get_type_hints succeeds on each
function, class and method a module defines.

A cold start stays cheap: no module imports dataclasses, and cover, clopen
and check run without importing sweep or theorems, which suparg and
suparg.cli give on first use.  Names a tracer binds on suparg.cli, the
provers among them, still resolve and can be patched before any prove.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import suparg

SRC = Path(suparg.__file__).parent


def _references(node) -> Counter:
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs[sub.value] += 1
    return refs


def _exported() -> set[str]:
    """The names __init__ imports, and those it gives on first use (_LAZY)."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    lazy = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "_LAZY")
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}.union(*lazy.values())


def _definitions():
    """(module name, class name or None, def node) for every function and
    method of the package."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield path.stem, None, node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield path.stem, node.name, item


def _everywhere() -> Counter:
    return sum((_references(ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))),
               Counter())


def _dead(private: bool) -> list[str]:
    """Functions and methods, private ones or public ones, with no caller in src/."""
    everywhere = _everywhere()
    exported = _exported()
    dead = []
    for module, cls_name, node in _definitions():
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if name.startswith("_") != private:
            continue
        if cls_name is None and name in exported:
            continue
        if everywhere[name] - _references(node)[name] <= 0:
            owner = f"{cls_name}." if cls_name else ""
            dead.append(f"{module}.{owner}{name}")
    return dead


def test_every_public_function_and_method_has_a_caller():
    dead = _dead(private=False)
    assert not dead, f"public API with no caller in src/: {dead}"


def test_every_private_helper_has_a_caller():
    dead = _dead(private=True)
    assert not dead, f"private helpers with no caller in src/: {dead}"


def _private_module_names():
    """(module name, name, defining statement) for every _-prefixed
    module-level constant and class of the package."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    yield path.stem, name, node


def test_every_private_module_name_is_read():
    everywhere = _everywhere()
    unread = [f"{module}.{name}" for module, name, node in _private_module_names()
              if everywhere[name] - _references(node)[name] <= 0]
    assert not unread, f"private module-level names nothing in src/ reads: {unread}"


def test_sweep_names_no_theorem():
    from suparg.certificates import ROWS
    codes = {th for row in ROWS for th in row.theorems}
    tree = ast.parse((SRC / "sweep.py").read_text())
    named = sorted({node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and node.value in codes})
    assert not named, f"sweep.py names theorem codes {named}"
    allowed = {"Certificate", "Partition", "Row", "ROWS", "StructureError"}
    imported = {alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module == "certificates"
                for alias in node.names}
    assert imported <= allowed, f"sweep.py imports {sorted(imported - allowed)} from certificates"


def test_sweep_reads_no_field_of_some_certificates_only():
    from suparg.certificates import ROWS
    swept = [set(row.cls._fields) for row in ROWS if row.arrays]
    partial = set().union(*swept) - set.intersection(*swept) - {"partition"}
    tree = ast.parse((SRC / "sweep.py").read_text())
    read = sorted({node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
                  & partial)
    assert not read, f"sweep.py reads fields of some certificates only: {read}"


def test_sweep_judges_a_probe_only_through_the_row():
    tree = ast.parse((SRC / "sweep.py").read_text())
    read = sorted({node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
                  & {"limit", "accept"})
    assert not read, f"sweep.py reads the row's {read}"


def test_the_fold_carries_the_certificate_itself():
    from suparg.certificates import ROWS
    tree = ast.parse((SRC / "sweep.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    extra = sorted(defined - {"Problem", "LocalWitness", "FailureKind", "SweepFailure"})
    assert not extra, f"sweep.py defines classes {extra}"
    clash = sorted({name for row in ROWS if row.arrays for name in row.cls._fields}
                   & {"h_init", "h_min", "h_next"})
    assert not clash, f"swept certificates have fields named like step widths: {clash}"


def _calls(node, names) -> list[int]:
    """The lines of the calls in node to a function named in names."""
    return [sub.lineno for sub in ast.walk(node) if isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name) and sub.func.id in names]


def _callers(tree, name: str) -> list[str]:
    """The top-level function of each call to name in tree, by name."""
    return [top.name for top in tree.body if isinstance(top, ast.FunctionDef)
            for _ in _calls(top, {name})]


def test_sweep_searches_each_frontier_once():
    tree = ast.parse((SRC / "sweep.py").read_text())
    probes = sorted(_callers(tree, "_probe"))
    assert probes == ["base_case", "local_extend"], f"_probe is called from {probes}"
    swallowed = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)
                 and node.type is not None and "DomainError" in _references(node.type)
                 and not any(isinstance(sub, ast.Raise) for sub in ast.walk(node))]
    assert not swallowed, f"sweep.py catches DomainError without re-raising on lines {swallowed}"


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == name)


def test_a_probe_takes_one_enclosure():
    probe = _function("sweep", "_probe")
    in_loops = {line for loop in ast.walk(probe) if isinstance(loop, ast.For)
                for line in _calls(loop, {"_enclose"})}
    calls = [line for line in _calls(probe, {"_enclose"}) if line not in in_loops]
    assert len(calls) == 1, f"_probe calls _enclose outside its loops on lines {calls}"


def test_the_point_is_judged_by_the_probe():
    calls = _calls(_function("sweep", "base_case"), {"_accepts", "_refutation", "LocalWitness"})
    assert not calls, f"base_case judges its point itself on lines {calls}"


def test_only_enclose_evaluates_in_the_sweep():
    tree = ast.parse((SRC / "sweep.py").read_text())
    callers = sorted(set(_callers(tree, "eval_iv") + _callers(tree, "eval_d1")))
    assert callers == ["_enclose"], f"eval_iv or eval_d1 called from {callers}"


def test_no_row_reads_the_piece_budget():
    tree = ast.parse((SRC / "certificates.py").read_text())
    read = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "max_pieces"]
    assert not read, f"certificates.py reads max_pieces on lines {read}"


def test_the_root_prover_loops_only_over_its_passes():
    loops = [node.lineno for node in ast.walk(_function("theorems", "prove_root"))
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert len(loops) == 1, f"prove_root loops on lines {loops}"


def test_every_certificate_class_is_exported():
    from suparg.certificates import ROWS
    missing = sorted({row.cls.__name__ for row in ROWS
                      if getattr(suparg, row.cls.__name__, None) is not row.cls})
    assert not missing, f"certificate classes suparg does not export: {missing}"


def test_star_import_binds_no_submodule():
    import types

    modules = sorted(name for name in suparg.__all__
                     if isinstance(getattr(suparg, name, None), types.ModuleType))
    assert not modules, f"suparg.__all__ names submodules {modules}"
    missing = sorted(name for name in suparg.__all__ if not hasattr(suparg, name))
    assert not missing, f"suparg.__all__ names what suparg lacks: {missing}"


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in read]
    assert not unread, f"imported and never read: {unread}"


def test_theorems_builds_no_fraction():
    tree = ast.parse((SRC / "theorems.py").read_text())
    named = sorted({node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and node.id == "Fraction"
                    or isinstance(node, ast.Attribute) and node.attr == "Fraction"
                    or isinstance(node, ast.ImportFrom) and node.module == "fractions"
                    or isinstance(node, ast.Import)
                    and any(alias.name == "fractions" for alias in node.names)})
    assert not named, f"theorems.py names Fraction or fractions on lines {named}"


def _names_expr(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "Expr" \
        or isinstance(node, ast.Attribute) and node.attr == "Expr"


def test_only_parse_builds_an_expression():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            in_parse = path.stem == "expr" and isinstance(top, ast.FunctionDef) \
                and top.name == "parse"
            for node in ast.walk(top):
                if isinstance(node, ast.ClassDef) and any(map(_names_expr, node.bases)):
                    found.append(f"{path.stem}.{node.name} subclasses Expr")
                elif isinstance(node, ast.Call) and _names_expr(node.func) and not in_parse:
                    found.append(f"{path.stem}.py:{node.lineno} calls Expr")
    assert not found, f"an expression built outside parse: {found}"


def _identifiers(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
    return names


def test_every_expression_has_one_derivative():
    from suparg.expr import Expr

    fenced = {"NotDifferentiable", "has_abs", "differentiable"}
    found = sorted(f"{path.stem}: {name}" for path in sorted(SRC.glob("*.py"))
                   for name in _identifiers(ast.parse(path.read_text())) & fenced)
    assert not found, f"an expression fenced off from eval_d1: {found}"
    assert Expr.__slots__ == ("code",)


def test_a_prover_returns_every_proof_failure():
    found = sorted(f"{path.stem}: {name}" for path in sorted(SRC.glob("*.py"))
                   for name in _identifiers(ast.parse(path.read_text()))
                   & {"PreconditionError", "Inconclusive"})
    assert not found, f"a proof failure raised, not returned: {found}"
    classes = [node.name for node in ast.walk(ast.parse((SRC / "theorems.py").read_text()))
               if isinstance(node, ast.ClassDef)]
    assert not classes, f"theorems.py defines classes {classes}"
    tries = [node.lineno for node in ast.walk(_function("cli", "_cmd_prove"))
             if isinstance(node, ast.Try)]
    assert not tries, f"cli._cmd_prove has a try on lines {tries}"


def test_every_annotation_resolves():
    import importlib
    import inspect
    import typing

    unresolved = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":  # defines nothing, and importing it runs the CLI
            continue
        module = importlib.import_module(f"suparg.{path.stem}")
        defined = [(name, obj) for name, obj in vars(module).items()
                   if (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == module.__name__]
        for name, obj in list(defined):
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", getattr(member, "fget", member))
                    if inspect.isfunction(member):
                        defined.append((f"{name}.{attr}", member))
        for name, obj in defined:
            try:
                typing.get_type_hints(obj)
            except NameError as err:
                unresolved.append(f"{path.stem}.{name}: {err}")
    assert not unresolved, unresolved


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) \
                else [node.module] if isinstance(node, ast.ImportFrom) else []
            found += [f"{path.name}:{node.lineno}" for name in names if name == "dataclasses"]
    assert not found, f"dataclasses imported at {found}"


def _fresh(script: str, *args: str) -> dict:
    """The JSON that script prints, run in a fresh interpreter on src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout)


_PROVER_MODULES_SCRIPT = """
import contextlib, io, json, sys
from suparg.cli import run

work = sys.argv[1]
codes, loaded = [], []
for i, argv in enumerate([["cover", "--file", work + "/cover.txt", "--a", "0", "--b", "1"],
                          ["clopen", "--file", work + "/clopen.txt", "--a", "0", "--b", "1"]]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(run(argv + ["--format", "json"]))
    path = f"{work}/cert-{i}.json"
    with open(path, "w") as handle:
        handle.write(out.getvalue())
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(run(["check", path]))
provers = sorted({"suparg.sweep", "suparg.theorems"} & set(sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(run(["prove", "bvt", "--fn", "x", "--a", "0", "--b", "1"]))
print(json.dumps({"codes": codes, "provers": provers}))
"""


def test_cover_clopen_and_check_load_no_prover_module(tmp_path):
    (tmp_path / "cover.txt").write_text("(-1, 2)\n")
    (tmp_path / "clopen.txt").write_text("[0, 1]\n")
    got = _fresh(_PROVER_MODULES_SCRIPT, str(tmp_path))
    assert got == {"codes": [0, 0, 0, 0, 0], "provers": []}


_TRACER_SCRIPT = """
import importlib, io, contextlib, json, sys
sys.path.insert(0, sys.argv[1])
import spans
from suparg import cli

# the cli's first, while the prover modules are not loaded yet
resolved = [f"{m}.{a}" for m, a in sorted(spans.TARGETS, key=lambda t: t[0] != "suparg.cli")
            if callable(getattr(importlib.import_module(m), a))]
calls = []
original = cli.prove_bound
cli.prove_bound = lambda *args, **kwargs: calls.append(args[1:3]) or original(*args, **kwargs)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(["prove", "bvt", "--fn", "x", "--a", "0", "--b", "1"])
print(json.dumps({"targets": len(spans.TARGETS), "resolved": len(resolved),
                  "code": code, "calls": calls}))
"""


def test_every_traced_name_resolves_and_a_patched_prover_is_called():
    # the tracer binds each target by getattr and patches it by setattr, in
    # an interpreter where no prove has run yet
    got = _fresh(_TRACER_SCRIPT, str(SRC.parent.parent / "perfbench"))
    assert got["resolved"] == got["targets"] > 0
    assert (got["code"], got["calls"]) == (0, [[0.0, 1.0]])

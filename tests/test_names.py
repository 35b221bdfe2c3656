import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import nabla

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"
SOURCES = Path(nabla.__file__).parent


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_name_resolves():
    # The tracer skips a name it cannot find, so a rename would silently
    # drop that layer's metrics.  install() also wraps eval_generic, which
    # counts the falsifier's goal evaluations.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(module, attr) for module, attr, _, _ in tracer.TARGETS] + [("nabla.semantics", "eval_generic")]
    for module, attr in targets:
        assert callable(_resolve(module, attr)), (module, attr)


def test_every_exported_name_exists():
    for info in pkgutil.iter_modules(nabla.__path__):
        module = importlib.import_module(f"nabla.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)


def test_integer_draws_go_through_below():
    # semantics._below is randrange's exact draw without its overhead.  A
    # sampler that reached for random.Random's integer draws would keep the
    # same seeded stream and bring that overhead back unnoticed.
    found = []
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("randint", "randrange", "choice"):
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert not found


def test_only_the_samplers_draw_random_numbers():
    # The generators, the fuzz runner and the semantics' lassos and
    # falsifier are the seeded samplers; any other module that sampled
    # models would be a private copy of one of them.
    importers = []
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import) and any(a.name == "random" for a in node.names):
                importers.append(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                importers.append(path.name)
    assert importers == ["fuzz.py", "gen.py", "semantics.py"]


def test_the_kernel_is_the_checker_alone():
    # The trusted module holds what check runs and imports only the formula
    # layer.  The LTL-derivation test belongs to the translation, and the
    # renaming helpers to derived's proof transformers.
    tree = ast.parse((SOURCES / "kernel.py").read_text(encoding="utf-8"))
    package_imports = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    assert package_imports == ["formulas"]
    moved = {
        "translate": ["MissingAnnotation", "is_ltl_derivation"],
        "derived": ["NonInjectiveRenaming", "labels_of_derivation", "max_node_id", "rename_labels"],
    }
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for module, names in moved.items():
        assert not defined & set(names)
        assert set(names) <= set(importlib.import_module(f"nabla.{module}").__all__), module


def test_every_private_definition_is_used():
    # A module-level private function or class that no code in the package
    # names is dead: nothing outside the package may call it either.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCES.glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    dead = [
        f"{name}:{node.lineno}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in named
    ]
    assert not dead


def test_no_code_reads_an_instance_dict():
    # A record's fields are read only through its class's ``_fields``, so
    # nothing depends on the order in which a constructor stores them.
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCES.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr == "__dict__")
        or (isinstance(node, ast.Constant) and node.value == "__dict__")
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars")
    ]
    assert not reads


def _base_name(base: ast.expr) -> str:
    if isinstance(base, ast.Call):  # namedtuple("Name", "field ...")
        return base.func.id
    return base.id if isinstance(base, ast.Name) else base.attr


def _record_fields(trees: dict[str, ast.Module]) -> dict[str, tuple[str, list[tuple[int, str]]]]:
    """Every record class in the package, by name, with its module and its
    fields and the lines that list them.  A record is ``formulas._Record``,
    a class derived from it, a ``NamedTuple`` or a class derived from a
    ``namedtuple(...)`` call.  Its fields are its own ``__match_args__``,
    which must be a literal tuple of names, the annotated names of a
    ``NamedTuple``, the literal field string of the ``namedtuple`` call, or
    else the fields of its record base."""
    classes = [(module, node) for module, tree in trees.items() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    fields: dict[str, tuple[str, list[tuple[int, str]]]] = {}
    grown = True
    while grown:
        grown = False
        for module, node in classes:
            bases = [_base_name(b) for b in node.bases]
            if node.name in fields or not (
                node.name == "_Record" or {"NamedTuple", "namedtuple"} & set(bases) or any(b in fields for b in bases)
            ):
                continue
            own = [
                stmt
                for stmt in node.body
                if isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__match_args__" for t in stmt.targets)
            ]
            if own:
                listed = [(e.lineno, ast.literal_eval(e)) for e in own[0].value.elts]
            elif "namedtuple" in bases:
                [call] = [b for b in node.bases if isinstance(b, ast.Call)]
                listed = [(call.lineno, name) for name in ast.literal_eval(call.args[1]).split()]
            elif "NamedTuple" in bases:
                listed = [(f.lineno, f.target.id) for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
            else:
                listed = next(fields[b][1] for b in bases if b in fields)
            fields[node.name] = (module, listed)
            grown = True
    return fields


def test_every_record_field_is_read():
    # A field of a record or NamedTuple that no code in the package reads
    # as an attribute is carried for nothing: every record built fills it,
    # and nothing looks at it.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCES.glob("*.py"))}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = _record_fields(trees)
    # Only the two bases, Formula and Bottom have no fields.  A record whose
    # fields the test failed to find would show up here instead of passing
    # unchecked.
    assert sorted(cls for cls, (_, listed) in fields.items() if not listed) == ["Bottom", "Formula", "_Record", "_ValueRecord"]
    unread = [
        f"{module}:{line}: {cls}.{field}"
        for cls, (module, listed) in fields.items()
        for line, field in listed
        if field not in read
    ]
    assert not unread

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


def _is_record(node: ast.ClassDef) -> bool:
    """Whether ``node`` defines a dataclass or a ``NamedTuple``."""
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) == "dataclass":
            return True
    return any((b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)) == "NamedTuple" for b in node.bases)


def test_every_record_field_is_read():
    # A field of a dataclass or NamedTuple that no code in the package reads
    # as an attribute is carried for nothing: every record built fills it,
    # and nothing looks at it.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCES.glob("*.py"))}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{name}:{field.lineno}: {node.name}.{field.target.id}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_record(node)
        for field in node.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name) and field.target.id not in read
    ]
    assert not unread

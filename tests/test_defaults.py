"""Every default of the library is a value in use.

A public function, method or dataclass field of `ionrewire` that has a
default must be passed by some call of the program and left out by another.
Passed by none, its default is a constant that nothing varies; left out by
none, the default is never read. The calls counted are those in `src/`,
in every `bench/*.py` (with the code in `bench/run.py`'s `SETUP_CODE`
string) and in the README's library quick start; `cls(...)` inside a
class's own methods is a call of that class. Tests are not counted: a
setting only a test sets is not in use. The census reads the files with
`ast` and changes nothing.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ionrewire"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _field_call(value):
    """The `field(...)` call a dataclass field is assigned, or None."""
    if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field"):
        return value
    return None


def _dataclass_params(node: ast.ClassDef) -> list:
    """(name, has default, positional) of each constructor field, in
    order."""
    params = []
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        call = _field_call(stmt.value)
        keywords = {k.arg: k.value for k in call.keywords} if call else {}
        init = keywords.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            continue
        default = (stmt.value is not None if call is None
                   else "default" in keywords or "default_factory" in keywords)
        params.append((stmt.target.id, default, True))
    return params


def _function_params(node, skip_first: bool) -> list:
    """(name, has default, positional) of each parameter, `*` and `**` ones
    left out."""
    args = node.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    params = [(a.arg, i >= first_default, True)
              for i, a in enumerate(positional)]
    if skip_first:
        params = params[1:]
    params += [(a.arg, d is not None, False)
               for a, d in zip(args.kwonlyargs, args.kw_defaults)]
    return params


def _is_static(node) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod"
               for d in node.decorator_list)


def library_targets() -> dict:
    """Callable name -> [(qualified name, parameters)] for each public
    function, method and class of the package."""
    targets = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                targets.setdefault(node.name, []).append(
                    (f"{module}.{node.name}", _function_params(node, False)))
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
            if _is_dataclass(node):
                init = _dataclass_params(node)
            else:
                init = next((_function_params(m, True) for m in methods
                             if m.name == "__init__"), [])
            targets.setdefault(node.name, []).append(
                (f"{module}.{node.name}", init))
            for m in methods:
                if not m.name.startswith("_"):
                    targets.setdefault(m.name, []).append(
                        (f"{module}.{node.name}.{m.name}",
                         _function_params(m, not _is_static(m))))
    return targets


def _quick_start() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _setup_code() -> str:
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    return next(node.value.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "SETUP_CODE"
                         for t in node.targets))


def counted_sources() -> dict:
    """Label -> source text of every counted file or snippet."""
    sources = {str(p.relative_to(ROOT)): p.read_text()
               for p in sorted(PACKAGE.glob("*.py"))}
    sources.update({str(p.relative_to(ROOT)): p.read_text()
                    for p in sorted((ROOT / "bench").glob("*.py"))})
    sources["bench/run.py:SETUP_CODE"] = _setup_code()
    sources["README.md:quick start"] = _quick_start()
    return sources


def _local_functions(tree) -> set:
    """Names a file defines at module level itself."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _calls(tree):
    """(callee name, call node, called as an attribute) of each call, with
    `cls` named by the class whose method makes the call."""
    def walk(node, cls_name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.ClassDef) else cls_name
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name):
                    name = cls_name if func.id == "cls" else func.id
                    yield name, child, False
                elif isinstance(func, ast.Attribute):
                    yield func.attr, child, True
            yield from walk(child, inner)
    yield from walk(tree, None)


def census() -> dict:
    """Qualified parameter -> [passed by some call, left out by some call]."""
    targets = library_targets()
    seen = {}
    for label, text in counted_sources().items():
        tree = ast.parse(text)
        in_package = label.startswith("src/")
        # outside the package a bare name is the library's only if it is not
        # a function of the file's own
        own = set() if in_package else _local_functions(tree)
        for name, call, attribute in _calls(tree):
            if name not in targets or (not attribute and name in own):
                continue
            starred = (any(isinstance(a, ast.Starred) for a in call.args)
                       or any(k.arg is None for k in call.keywords))
            keywords = {k.arg for k in call.keywords}
            for qualname, params in targets[name]:
                for index, (param, default, positional) in enumerate(params):
                    if not default:
                        continue
                    passed = (starred or param in keywords
                              or positional and index < len(call.args))
                    flags = seen.setdefault(f"{qualname}.{param}",
                                            [False, False])
                    flags[0 if passed else 1] = True
    for entries in targets.values():
        for qualname, params in entries:
            for param, default, _ in params:
                if default:
                    seen.setdefault(f"{qualname}.{param}", [False, False])
    return seen


def test_census_finds_the_quick_start_and_setup_code():
    sources = counted_sources()
    assert "run_protocol(" in sources["README.md:quick start"]
    assert "load_scenario(" in sources["bench/run.py:SETUP_CODE"]


def test_every_default_is_both_passed_and_left_out():
    seen = census()
    never_passed = sorted(p for p, (passed, _) in seen.items() if not passed)
    never_left_out = sorted(p for p, (_, omitted) in seen.items()
                            if not omitted)
    assert not never_passed and not never_left_out, (
        f"defaults no counted call passes (make them constants): "
        f"{never_passed}; defaults every counted call passes (drop the "
        f"default): {never_left_out}")

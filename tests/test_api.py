"""Public surface: every public name has a caller in the package or the benchmark.

A name that only tests reach is surface to maintain with nothing depending
on it; a fixture only the tests build lives in the tests.  The rule is
mechanical and has no exception: each name in a module's ``__all__`` and each
public method or property of a public class needs a ``Name``,
``Attribute`` or import reference in ``src/zeromode/`` or ``bench/``.
References are matched by bare name, so a method or property passes on any
reference to another of the same name: a ``channels`` property on a new class
would pass on the callers of ``TrajectoryDataset.channels``,
``GridField.channels`` and ``Spectrum.channels``.  Such a name needs a check
by hand.

Each public name has one import path, the module that defines it.  The
package root binds only ``_THREAD_CAP_VARS`` and ``__version__`` and imports
no submodule, so ``import zeromode`` can set the thread caps before anything
loads numpy.

Options follow the same rule.  Each defaulted parameter of a package
function or method is set by some call in ``src/zeromode/`` or ``bench/``
and left at its default by another: a parameter no such call sets is
removed, and one every such call sets is required.  A call that passes a
parameter the literal of its own default (``h=1.0`` where the signature
says ``h: float = 1.0``) leaves it at its default.  Calls are matched by
name, a class call to its ``__init__``; dataclass fields and calls that
unpack ``*``/``**`` are not scanned.  The one exception is
``verify.run_checks(correction)``, the hook through which the tests run
the theorem checks against a deliberately broken pin.

Files have one writer and one payload reader in the same way.  Anywhere in the
package, a rename into place, a temporary file, a ``write_text``, a
``write_bytes`` or an ``open``/``fdopen`` in a write mode (text or binary)
appears only in ``datafile.write_atomic``, except the one documented append:
``cli._cmd_eval`` adds its record to ``records.jsonl``, where a
read-modify-rename by two evaluations sharing the file would lose one record.
A buffer read appears only in ``datafile.read_payload``.

The flat parameter vector has one view layer.  Only ``model.layout``, which
assigns the offsets, ``model.n_params`` and ``model._views`` read a
``ParamSlot``'s ``offset`` or ``n_floats``, in ``src/zeromode/`` or ``bench/``;
every other reader of a named tensor takes its view from ``_views``.

A mask has one spelling: the tuple of per-channel flags, true for a conserved
channel.  Every parameter of a package function and every class field named
``mask`` or ``flags`` in ``src/zeromode/`` is annotated ``tuple[bool, ...]``,
optionally ``| None``.  ``correction._check_mask_width`` is its one width
check, and ``datafile.read_dataset``, where a mask enters from outside the
program, refuses one that flags no channel.

Spectral weights are folded in one place too: ``model._fold`` is called only by
``model.fold_weights``, once per parameter state, and by ``verify``'s adjoint check.

The correction is exterior to the operator: ``model.py`` imports nothing from
``zeromode.correction``, and outside ``correction.py`` only ``training.py``
calls ``pin_channel_means`` or ``project_out_means``.  ``verify`` calls the pin
it is handed as ``correction(...)`` and names ``pin_channel_means`` only as
that parameter's default, so neither counts as a call.

The package runs on numpy alone.  No package module imports ``scipy``, at
module level or in a function body: every solver transform comes from numpy,
and the manifest's environment block names no scipy version.  The tests keep
``scipy.fft`` as an independent oracle for those transforms.

The package's code and docstrings quote no timing: no line of
``src/zeromode/*.py`` holds a number followed by ``ms`` or ``µs``, or a
percentage followed by ``faster`` or ``slower``.  A timing belongs with the
harness that measured it, in ``CHANGES.md`` or a benchmark result.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zeromode"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def module_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def public_names() -> dict[str, str]:
    """Public name -> where it is defined, over every package module."""
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        exported = module_all(tree)
        for name in exported:
            names[name] = f"{path.name}:__all__"
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        names.setdefault(item.name, f"{path.name}:{node.name}.{item.name}")
    return names


def referenced_names() -> set[str]:
    """Every name read, attribute accessed or imported in the package and bench code."""
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    seen = set()
    for path in files:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                seen.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return seen


def test_every_public_name_has_a_pipeline_or_bench_caller():
    referenced = referenced_names()
    orphans = {name: where for name, where in public_names().items() if name not in referenced}
    assert not orphans, f"public names reached only by tests: {orphans}"


def test_package_root_binds_only_the_thread_caps_and_version():
    bound, deleted, imported = set(), set(), []
    for node in ast.walk(parse(PACKAGE / "__init__.py")):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Del):
            deleted.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
            bound.update(alias.asname or alias.name for alias in node.names)
    assert bound - deleted == {"_THREAD_CAP_VARS", "__version__"}
    assert not [name for name in imported if name.startswith((".", "zeromode"))]


def owned_nodes(tree: ast.Module):
    """(name of the innermost enclosing function, node) for every node of a module."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            yield inner, child
            yield from walk(child, inner)
    yield from walk(tree, "<module>")


RENAMES_AND_TEMP_FILES = {("os", "replace"), ("os", "rename"), ("tempfile", "mkstemp")}


def writes_file(node: ast.AST) -> bool:
    """``os.replace``, ``os.rename``, ``tempfile.mkstemp``, ``write_text``, ``write_bytes`` or a write-mode ``open``."""
    if isinstance(node, ast.Attribute):
        owner = node.value.id if isinstance(node.value, ast.Name) else None
        return (owner, node.attr) in RENAMES_AND_TEMP_FILES or node.attr in ("write_text", "write_bytes")
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) not in ("open", "fdopen"):
        return False
    modes = [arg.value for arg in [*node.args[:2], *(kw.value for kw in node.keywords if kw.arg == "mode")]
             if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
    return any(re.fullmatch(r"[rwax+bt]+", m) and re.search(r"[wax+]", m) for m in modes)


def test_one_atomic_writer_and_one_payload_reader():
    writers, readers = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, node in owned_nodes(parse(path)):
            if writes_file(node):
                writers.add(f"{path.name}:{owner}")
            if isinstance(node, ast.Attribute) and node.attr in ("readinto", "frombuffer"):
                readers.add(f"{path.name}:{owner}")
    assert writers == {"datafile.py:write_atomic", "cli.py:_cmd_eval"}
    assert readers == {"datafile.py:read_payload"}


def test_weights_fold_only_in_fold_weights_and_the_adjoint_check():
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, node in owned_nodes(parse(path)):
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_fold":
                callers.add(f"{path.name}:{owner}")
    assert callers == {"model.py:fold_weights", "verify.py:_check_spectral_adjoint"}


def test_only_the_view_layer_reads_slot_offsets():
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        for top in parse(path).body:  # a nested helper counts as its top-level function: layout's add
            if any(isinstance(node, ast.Attribute) and node.attr in ("offset", "n_floats") for node in ast.walk(top)):
                readers.add(f"{path.name}:{getattr(top, 'name', '<module>')}")
    assert readers == {"model.py:layout", "model.py:n_params", "model.py:_views"}


MASK_ANNOTATIONS = {"tuple[bool, ...]", "tuple[bool, ...] | None"}


def test_every_mask_is_a_flags_tuple():
    spelled = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, node in owned_nodes(parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                named = [(arg.arg, arg.annotation) for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                named = [(node.target.id, node.annotation)]
            else:
                continue
            for name, annotation in named:
                if name in ("mask", "flags"):
                    spelled[f"{path.name}:{owner}:{name}"] = annotation and ast.unparse(annotation)
    assert {"correction.py:pin_channel_means:flags", "datasets.py:<module>:mask"} <= spelled.keys()
    assert {where: spelling for where, spelling in spelled.items() if spelling not in MASK_ANNOTATIONS} == {}


def imports_correction(node: ast.AST) -> bool:
    """``from .correction import ...``, ``from . import correction`` or an import of ``zeromode.correction``."""
    if isinstance(node, ast.ImportFrom):
        module = "." * node.level + (node.module or "")
        return module in (".correction", "zeromode.correction") or (
            module in (".", "zeromode") and any(alias.name == "correction" for alias in node.names))
    return isinstance(node, ast.Import) and any(alias.name == "zeromode.correction" for alias in node.names)


def test_only_training_pins_and_the_operator_imports_no_correction():
    assert not any(imports_correction(node) for node in ast.walk(parse(PACKAGE / "model.py")))
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, node in owned_nodes(parse(path)):
            name = getattr(node.func, "id", getattr(node.func, "attr", None)) if isinstance(node, ast.Call) else None
            if name in ("pin_channel_means", "project_out_means") and path.name != "correction.py":
                callers.add(f"{path.name}:{owner}")
    assert callers == {"training.py:loss_and_grad", "training.py:rollout"}


def test_no_package_module_imports_scipy():
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, node in owned_nodes(parse(path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            importers.update(f"{path.name}:{owner} {m}" for m in modules if m.split(".")[0] == "scipy")
    assert importers == set()


TIMING = re.compile(r"\d\s*(ms|µs)\b|\d\s*%\s*(faster|slower)\b")


def test_no_package_line_quotes_a_timing():
    quoted = [f"{path.name}:{lineno}: {line.strip()}"
              for path in sorted(PACKAGE.glob("*.py"))
              for lineno, line in enumerate(path.read_text().splitlines(), start=1) if TIMING.search(line)]
    assert not quoted, "timings belong with their harness, not in the package:\n" + "\n".join(quoted)


# -- options ---------------------------------------------------------------------

# the hook through which the tests run the theorem checks against a deliberately broken pin
ALLOWED_UNSET_OPTIONS = {"verify.run_checks(correction)"}


def external_names(tree: ast.Module) -> set[str]:
    """Names a module binds by importing from outside the package (``np``, ``time``, ``asdict``, ...)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names if not a.name.startswith("zeromode"))
        elif isinstance(node, ast.ImportFrom) and not node.level and not node.module.startswith("zeromode"):
            names.update(a.asname or a.name for a in node.names)
    return names


def signatures() -> dict[str, list[tuple[list[str], dict[str, tuple[str, str]]]]]:
    """Call name -> [(positional parameters, {defaulted parameter: ("module.function(parameter)", default)})].

    ``default`` is the ``ast.dump`` of the parameter's default expression.

    Module-level functions and class methods count, with ``self`` and ``cls``
    dropped; a call of a class by its name maps to its ``__init__``.
    Dataclass fields are not scanned: the CLI sets its config objects
    through ``**kwargs``.
    """
    found: dict[str, list] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        defs = [(node.name, node.name, node, False) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for item in (i for i in cls.body if isinstance(i, ast.FunctionDef)):
                bound = "staticmethod" not in (ast.unparse(d) for d in item.decorator_list)
                call_name = cls.name if item.name == "__init__" else item.name
                defs.append((call_name, f"{cls.name}.{item.name}", item, bound))
        for call_name, qualname, fn, bound in defs:
            args = fn.args
            positional = [a.arg for a in (*args.posonlyargs, *args.args)][int(bound):]
            defaults = dict(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
            found.setdefault(call_name, []).append((positional, {
                name: (f"{path.stem}.{qualname}({name})", ast.dump(default)) for name, default in defaults.items()}))
    return found


def option_uses() -> dict[str, tuple[bool, bool]]:
    """Per defaulted parameter: (some call sets it, some call leaves its default), over package and bench calls.

    A call that unpacks ``*args`` or ``**kwargs`` binds nothing readable and is skipped.
    One that passes the literal of the parameter's default leaves it at its default.
    """
    sigs = signatures()
    uses = {where: [False, False] for found in sigs.values() for _, wheres in found for where, _ in wheres.values()}
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        tree = parse(path)
        external = external_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in sigs:
                continue
            owner = func.id if isinstance(func, ast.Name) else getattr(func.value, "id", None)
            unpacks = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
            if owner in external or unpacks:
                continue
            for positional, wheres in sigs[name]:
                passed = {**dict(zip(positional, node.args)), **{k.arg: k.value for k in node.keywords}}
                for param, (where, default) in wheres.items():
                    uses[where][param not in passed or ast.dump(passed[param]) == default] = True
    return {where: tuple(flags) for where, flags in uses.items()}


def test_every_option_is_set_by_one_call_and_left_by_another():
    uses = option_uses()
    never_set = {where for where, (is_set, is_left) in uses.items() if not is_set} - ALLOWED_UNSET_OPTIONS
    always_set = {where for where, (is_set, is_left) in uses.items() if not is_left}
    assert not never_set, f"options no pipeline or bench call sets: {sorted(never_set)}"
    assert not always_set, f"defaults no pipeline or bench call uses; make them required: {sorted(always_set)}"


def test_option_allow_list_names_real_unset_options():
    uses = option_uses()
    assert all(where in uses and not uses[where][0] for where in ALLOWED_UNSET_OPTIONS)

"""Every function and method in ``src/`` has a caller in ``src/``.

A helper that only tests call belongs beside the oracles in ``rings.py``.
A function counts as used when some module of ``src/`` reads its name as a
name or an attribute, or holds it as a string: the check registry of
``verify`` names its runners that way.  A method counts only when read as an
attribute or held as a string, since a local variable of the same name calls
nothing.  Dunder methods are called by the interpreter.  The allow-list names
what callers outside ``src/`` use, with the reason.

Every annotated field of a class in ``src/`` is read there too, as an
attribute or by a name held as a string: a field that only tests read is
a second copy of data the program does not use.  ``UNREAD_FIELDS`` names
the exceptions, with the reason.

A `CycNum` is immutable by contract, with no runtime guard: only its two
normalizers write its slots, and a check over ``src/`` holds every other
function to that.
"""

import ast
import pathlib

import pytest

import fuscat
from fuscat.exactnum import CycNum

SRC = pathlib.Path(fuscat.__file__).resolve().parent

ALLOWED = {
    "serialize.to_document": "the README writes documents with it",
    "serialize.dump_document": "the README writes documents with it",
    "catalog.product": "the product of two keys; perfbench/run.py LAYERS "
                       "names it",
    "verify.report_to_json": "the report object, read back from "
                             "render_json; perfbench/run.py LAYERS names it",
    "exactnum.characteristic_polynomial":
        "the minimal polynomial to the power phi(N)/deg; perfbench/run.py "
        "LAYERS names it, and test_layers.py needs every pattern there to "
        "match",
    "fusion.subcategory_closure": "the closure of a generator set, the "
                                  "fusion API beside enumerate_subcategories",
}

UNREAD_FIELDS: dict[str, str] = {}


def _definitions():
    """(qualified name, name, is a method) of every module-level function
    and method."""
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                yield f"{module}.{node.name}", node.name, False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{module}.{node.name}.{item.name}", item.name, True


def _used_names():
    """The names read as bare names, and those read as attributes or held
    as strings."""
    names, attributes = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attributes.add(node.value)
    return names, attributes


def _allowed(qualname, name):
    return (qualname in ALLOWED or name in fuscat.__all__
            or name.startswith("cmd_")
            or (name.startswith("__") and name.endswith("__")))


def test_every_definition_in_src_has_a_caller_in_src():
    names, attributes = _used_names()
    uncalled = [qualname for qualname, name, method in _definitions()
                if name not in attributes
                and (method or name not in names)
                and not _allowed(qualname, name)]
    assert uncalled == []


def test_allow_list_names_definitions():
    defined = {qualname for qualname, _, _ in _definitions()}
    assert set(ALLOWED) <= defined


def _fields():
    """The qualified name and name of every annotated field of a class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)):
                        name = item.target.id
                        yield f"{path.stem}.{node.name}.{name}", name


def _read_attributes():
    """The attributes read (not assigned) anywhere in ``src/``, and the
    strings held there."""
    read = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return read


def test_every_field_in_src_is_read_in_src():
    read = _read_attributes()
    unread = [qualname for qualname, name in _fields()
              if name not in read and qualname not in UNREAD_FIELDS]
    assert unread == []


def test_unread_field_list_names_fields():
    assert set(UNREAD_FIELDS) <= {qualname for qualname, _ in _fields()}


def test_check_subcategory_runs_only_on_outside_input():
    """Every subcategory `src/` derives is proven closed (the docstrings of
    `premod.centralizer`, `fusion.pointed_part` and `verify.Target.meet`),
    so only `verify --subcategory` hands `check_subcategory` its members."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "check_subcategory"
                    for node in ast.walk(fn)):
                callers.add(f"{path.stem}.{fn.name}")
    assert callers == {"cli.cmd_verify"}


SLOTS = {"conductor", "_nums", "_den"}
SLOT_WRITERS = {"exactnum.CycNum._from_ints", "exactnum.CycNum._rational"}


def _writes_a_slot(node) -> bool:
    """Whether the node stores to (or deletes) an attribute named like a
    `CycNum` slot, or is a `setattr`/`object.__setattr__` call that names
    one as a string."""
    if isinstance(node, ast.Attribute):
        return not isinstance(node.ctx, ast.Load) and node.attr in SLOTS
    if not isinstance(node, ast.Call) or len(node.args) < 2:
        return False
    func = node.func
    setter = ((isinstance(func, ast.Name) and func.id == "setattr")
              or (isinstance(func, ast.Attribute)
                  and func.attr == "__setattr__"))
    name = node.args[1]
    return (setter and isinstance(name, ast.Constant)
            and name.value in SLOTS)


def _slot_writers(tree, module) -> set[str]:
    """The qualified names of the innermost functions (or classes, or the
    module) that hold a write to a slot name."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if _writes_a_slot(node):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


def test_only_the_normalizers_write_cycnum_slots():
    writers = set()
    for path in sorted(SRC.glob("*.py")):
        writers |= _slot_writers(
            ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert writers == SLOT_WRITERS


@pytest.mark.parametrize("line", [
    "x._den = 1",
    "x.conductor, y = 1, 2",
    "x._nums += (0,)",
    "del x._nums",
    "setattr(x, '_den', 1)",
    "object.__setattr__(x, 'conductor', 1)",
])
def test_slot_write_check_sees_each_form(line):
    tree = ast.parse(f"def f(x, y):\n    {line}\n")
    assert _slot_writers(tree, "m") == {"m.f"}


def test_no_module_reads_a_descriptor_setter():
    readers = [path.stem for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "__set__"]
    assert readers == []


def test_cycnum_has_no_instance_dict():
    x = CycNum.zeta(8)
    assert not hasattr(x, "__dict__")
    with pytest.raises(AttributeError):
        x.value = 1

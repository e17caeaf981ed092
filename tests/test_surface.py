"""Every public function, class and method of ``paircond`` has a caller
outside the unit tests: it is named in ``src/`` outside its own definition,
in ``bench/``, or in the acceptance tests. Code that only unit tests reach
is deleted, and this test keeps it from coming back. No module imports a
name it never uses."""

import ast
import glob
import os
import re
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "paircond", "*.py")))
# what may name a definition: the program, the benchmark, the acceptance tests
CALLERS = SOURCES + sorted(glob.glob(os.path.join(ROOT, "bench", "*.py")))
CALLERS.append(os.path.join(ROOT, "tests", "test_acceptance.py"))
# mask_to_json writes the format that a ``domain: {"mask_file": ...}``
# config reads; it serves users who make mask files, not the program
ALLOWED = {"mask_to_json"}
IDENTIFIER = re.compile(r"[A-Za-z_][\w.]*")


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def named(tree) -> tuple:
    """How often each identifier is named in ``tree``, as (bare names,
    attributes). Imported names count as bare names; string constants that
    are (dotted) identifiers, such as ``getattr`` targets and the method
    names a tracer patches, count as both."""
    bare, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            bare[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif isinstance(node, ast.alias):
            bare.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and IDENTIFIER.fullmatch(node.value)):
            bare.update(node.value.split("."))
            attrs.update(node.value.split("."))
    return bare, attrs


def public_definitions():
    """(qualified name, definition node) of each public top-level function
    and class of the package, and of each public method of such a class."""
    defs = []
    for path in SOURCES:
        module = os.path.basename(path)[:-3]
        for node in _parse(path).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            defs.append((f"{module}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, ast.FunctionDef)
                         and not m.name.startswith("_")]
    return defs


def test_every_public_name_has_a_caller():
    bare, attrs = Counter(), Counter()
    for path in CALLERS:
        file_bare, file_attrs = named(_parse(path))
        bare += file_bare
        attrs += file_attrs
    uncalled = []
    for qualname, node in public_definitions():
        name = node.name
        if name in ALLOWED:
            continue
        # names inside the definition itself (recursion, a class naming
        # itself) do not count, and a method is reached only as an attribute
        own_bare, own_attrs = named(node)
        calls = attrs[name] - own_attrs[name]
        if qualname.count(".") == 1:  # module.name: top level
            calls += bare[name] - own_bare[name]
        if calls <= 0:
            uncalled.append(qualname)
    assert not uncalled, f"public names with no caller: {uncalled}"


def test_every_imported_name_is_used():
    unused = []
    for path in SOURCES:
        tree = _parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{os.path.basename(path)}:{node.lineno} {name}")
    assert not unused, f"imported names never used: {unused}"


def module_level_imports(tree):
    """Modules imported by statements that run when the module is imported:
    everything outside function bodies."""
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found += [node.module] + [f"{node.module}.{alias.name}"
                                      for alias in node.names]
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_ndimage_only_in_geometry_and_only_on_first_use():
    # one-dimensional runs never load scipy.ndimage: only the 2D distance
    # transform and labelling in ``geometry`` import it, when first called
    at_import, elsewhere = [], []
    for path in SOURCES:
        tree = _parse(path)
        module = os.path.basename(path)[:-3]
        at_import += [f"{module}: {name}" for name in module_level_imports(tree)
                      if name == "scipy.ndimage" or name.startswith("scipy.ndimage.")]
        bare, attrs = named(tree)
        if module != "geometry" and (bare["ndimage"] or attrs["ndimage"]):
            elsewhere.append(module)
    assert not at_import, f"scipy.ndimage imported at module level: {at_import}"
    assert not elsewhere, f"modules other than geometry name ndimage: {elsewhere}"


def test_sparse_linalg_only_for_splu():
    # one eigen-solve loop, on a pttrf or ``splu`` factor: of
    # scipy.sparse.linalg the program takes SuperLU's ``splu`` and nothing
    # else, by no route (no ARPACK, no LinearOperator, no iterative solver)
    stray = []
    for path in SOURCES:
        module = os.path.basename(path)[:-3]
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom):
                source = node.module or ""
                names = [alias.name for alias in node.names]
                if source.startswith("scipy.sparse.linalg"):
                    stray += [f"{module}: {source}.{name}" for name in names
                              if (source, name) != ("scipy.sparse.linalg", "splu")]
                elif source == "scipy.sparse" and "linalg" in names:
                    stray.append(f"{module}: scipy.sparse.linalg")
            elif isinstance(node, ast.Import):
                stray += [f"{module}: {alias.name}" for alias in node.names
                          if alias.name.startswith("scipy.sparse.linalg")]
            elif (isinstance(node, ast.Attribute) and node.attr == "linalg"
                  and isinstance(node.value, (ast.Name, ast.Attribute))
                  and (getattr(node.value, "id", None)
                       or node.value.attr) == "sparse"):
                stray.append(f"{module}: sparse.linalg")
    assert not stray, f"scipy.sparse.linalg used beyond splu: {stray}"

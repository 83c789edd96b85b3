"""Static checks over the package source."""

import ast
import inspect
from pathlib import Path

import mvdop
from mvdop import dpolys, symfun

SRC = Path(mvdop.__file__).parent


def test_no_assert_in_package():
    # assert statements vanish under python -O, and a bare AssertionError
    # escapes the CLI's exit-code mapping; raise a typed MvdopError instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}: raise AssertionError")
    assert not found, found


def _names_used(tree, skip=None) -> set:
    """Identifiers a syntax tree refers to (names, attributes and imported
    names), leaving out the subtree ``skip``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return out


def _definitions(tree):
    """(name, node) for the module-level functions and classes of a module,
    and ("Class.method", node) for the methods of its classes but the
    special (dunder) ones."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not member.name.startswith("__"):
                    yield f"{node.name}.{member.name}", member


# the methods of exported classes that are public without a caller in the
# package: the constructors and accessors of the polynomial value type,
# which the package builds and reads through its coefficient dicts.  What
# __all__ is to module-level names, this set is to methods
PUBLIC_METHODS = {
    "SymPoly.one",
    "SymPoly.monomial",
    "SymPoly.coefficient",
}


def test_no_unreferenced_module_level_definition():
    # a module-level function or class, or a method, that is not public (in
    # __all__ or PUBLIC_METHODS) and that nothing in the package refers to
    # is dead code, even when a test calls it: delete it, or move it to
    # tests/ if it serves as an oracle
    paths = sorted(SRC.rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    used = {path: _names_used(tree) for path, tree in trees.items()}
    found, seen = [], set()
    for path in paths:
        elsewhere = set(mvdop.__all__).union(*(names for p, names in used.items() if p != path))
        for qualname, node in _definitions(trees[path]):
            seen.add(qualname)
            if qualname in PUBLIC_METHODS:
                continue
            if node.name not in elsewhere and node.name not in _names_used(trees[path], node):
                found.append(f"{path.name}:{node.lineno}: {qualname}")
    assert not found, found
    assert PUBLIC_METHODS <= seen, PUBLIC_METHODS - seen


EXACT_LAYERS = ("partitions", "symfun", "jack", "conearith", "dpolys")
FLOAT_IMPORTS = {"exp", "log", "lgamma", "Decimal"}


def test_no_float_on_exact_layers():
    # the layers below verify compute in exact rationals only; floating
    # point and decimal cross-checks belong in the tests
    found = []
    for name in EXACT_LAYERS:
        path = SRC / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                found.append(f"{path.name}:{node.lineno}: float(...)")
            elif isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{path.name}:{node.lineno}: float literal {node.value!r}")
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in FLOAT_IMPORTS:
                        found.append(f"{path.name}:{node.lineno}: imports {alias.name}")
    assert not found, found


INTEGER_BUILD = ("_operator_rows", "_solve_weight")


def test_basis_build_stays_integral():
    # the eigenoperator recursion runs on q*E in ints, one numerator over
    # one denominator per coefficient; the table makes the Fractions it
    # stores after the solve.  A Fraction or a true division inside the
    # build would put the per-step rational arithmetic back
    tree = ast.parse((SRC / "jack.py").read_text())
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert set(INTEGER_BUILD) <= set(funcs)
    found = []
    for name in INTEGER_BUILD:
        # the body only: the signature may annotate d as a Fraction
        body = ast.Module(body=funcs[name].body, type_ignores=[])
        for node in ast.walk(body):
            if isinstance(node, ast.Name) and node.id == "Fraction":
                found.append(f"jack.py:{node.lineno}: {name} uses Fraction")
            elif isinstance(node, ast.Attribute) and node.attr == "Fraction":
                found.append(f"jack.py:{node.lineno}: {name} uses Fraction")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"jack.py:{node.lineno}: {name} divides with /")
    assert not found, found


TABLE_METHODS = {"phi", "to_phi_basis", "extend", "check_degree"}


def test_structure_constants_need_no_basis_table():
    # dimensions, binomial and falling-factorial rows and family values all
    # come from closed forms (the dimension product, the Pieri and one-box
    # coefficients); only the checks that expand in the basis build or
    # read the table
    conearith = ast.parse((SRC / "conearith.py").read_text())
    dpolys = ast.parse((SRC / "dpolys.py").read_text())
    kernel = next(n for n in dpolys.body if isinstance(n, ast.FunctionDef) and n.name == "_kernel")
    found = []
    for name, tree in (("conearith", conearith), ("dpolys._kernel", kernel)):
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [alias.name for alias in node.names]
                if isinstance(node, ast.ImportFrom) and node.module:
                    modules = [node.module]
                if any("symfun" in mod.split(".") for mod in modules):
                    found.append(f"{name}:{node.lineno}: imports symfun")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in TABLE_METHODS
            ):
                found.append(f"{name}:{node.lineno}: calls .{node.func.attr}")
    assert not found, found


def test_no_self_recursion_on_exact_layers():
    # a function that calls itself descends one level per call, so a deep
    # enough partition exhausts Python's recursion limit; memo fills walk
    # their partitions with an explicit stack instead
    found = []
    for name in ("conearith", "dpolys"):
        path = SRC / f"{name}.py"
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == func.name
                ):
                    found.append(f"{path.name}:{node.lineno}: {func.name} calls itself")
    assert not found, found


def test_family_declaration_is_complete_and_ordered():
    # FamilyParams._declared hands a family's parameters to its _POINT and
    # _SHIFT entries by position, in FAMILY_PARAMS order, so a family left
    # out or a lambda with two parameters swapped would go through silently
    two_index = set(dpolys.FAMILY_PARAMS) - {"laguerre"}  # one partition index
    found = []
    for name, table in (("_POINT", dpolys._POINT), ("_SHIFT", dpolys._SHIFT)):
        if set(table) != two_index:
            found.append(f"{name} declares {sorted(table)}, not {sorted(two_index)}")
        for family, make in table.items():
            got = tuple(inspect.signature(make).parameters)
            want = dpolys.FAMILY_PARAMS.get(family)
            if got != want:
                found.append(f"{name}[{family!r}] takes {got}, not {want}")
    assert not found, found


SERIES_KERNELS = {"u_binomial", "u_exp"}
SERIES_OWNERS = {"_genfunc_series", "master_genfunc"}


def test_generating_functions_come_from_one_series():
    # every family generating function a check reads comes from
    # _genfunc_series; master_genfunc also composes the exponential with the
    # companion polynomial, which is not a family series.  No other check
    # may write a family's series a second time.  A kernel or owner gone
    # from its module would make the check pass vacuously
    assert SERIES_KERNELS <= set(vars(symfun))
    assert SERIES_OWNERS <= set(_verify_functions())
    tree = ast.parse((SRC / "verify.py").read_text())
    found = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in SERIES_KERNELS
                and owner not in SERIES_OWNERS
            ):
                found.append(f"verify.py:{node.lineno}: {owner or 'module'} calls {node.func.id}")
    assert not found, found


def test_only_verify_builds_reports():
    # each identity check returns its one report over the whole grid; a
    # report assembled anywhere else would merge or re-derive a verdict
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "verify.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "VerificationReport":
                    found.append(f"{path.name}:{node.lineno}: builds a VerificationReport")
    assert not found, found


# the dict methods that change a dict in place
DICT_WRITES = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _process_tables_writes(tree) -> list:
    """Line numbers of the writes to ``_TABLES`` in a syntax tree: a store
    or delete of the name, attribute or one of its items, a call of a dict
    method that writes, or a setattr/delattr naming it."""

    def is_tables(node):
        return (isinstance(node, ast.Name) and node.id == "_TABLES") or (
            isinstance(node, ast.Attribute) and node.attr == "_TABLES"
        )

    lines = []
    for node in ast.walk(tree):
        stored = not isinstance(getattr(node, "ctx", ast.Load()), ast.Load)
        if (
            (stored and is_tables(node))
            or (stored and isinstance(node, ast.Subscript) and is_tables(node.value))
            or (isinstance(node, ast.Attribute) and node.attr in DICT_WRITES
                and is_tables(node.value))
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("setattr", "delattr")
                and any(isinstance(a, ast.Constant) and a.value == "_TABLES" for a in node.args))
        ):
            lines.append(node.lineno)
    return lines


def test_only_jack_writes_the_process_tables():
    # one table per (r, d) per process: jack_table and the adoption of a
    # table read from disk are the only ways into the memo
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "jack.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{line}: writes _TABLES" for line in _process_tables_writes(tree)]
    assert not found, found
    # the check sees the writes that jack itself makes
    assert _process_tables_writes(ast.parse((SRC / "jack.py").read_text()))


def _verify_functions() -> dict:
    tree = ast.parse((SRC / "verify.py").read_text())
    return {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}


def test_node_weights_serve_the_orthogonality_sums_only():
    # every weighted sum, exact or cut, box or nodes, is one pairing with
    # _node_weights: the shared private _orthogonality and the generator
    # kernel read the rule, and no other check sums a weight its own way
    callers = set()
    for name, func in _verify_functions().items():
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "_node_weights"
            ):
                callers.add(name)
    assert callers == {"_orthogonality", "orthogonality_generator_check"}


def test_public_orthogonality_checks_call_one_private_sum():
    # the bench tracer counts one verdict per public verify call, so a
    # public check calling another would count twice
    funcs = _verify_functions()
    public = {name for name in funcs if not name.startswith("_")}
    found = []
    for name in ("orthogonality", "orthogonality_krawtchouk"):
        called = {node.func.id for node in ast.walk(funcs[name])
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert "_orthogonality" in called, name
        found += [f"{name} calls {other}" for other in sorted(called & public)]
    assert not found, found


# the only places that may compare a family to a family name: evaluate
# calls the three evaluators by module-level name (the bench tracer counts
# them only there), and the domain hypotheses are per family
FAMILY_BRANCHES = {
    "dpolys.FamilyParams.evaluate",
    "verify._orthogonality_domain",
    "verify._master_domain",
}


def _owners(tree):
    """(owner, node) for each top-level statement of a module and each
    member of its classes: a function, class or method by its qualified
    name, any other statement (a table of lambdas, say) by the names it
    assigns, so that no code of the module goes unvisited."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for member in members:
            name = getattr(member, "name", None)
            if name is None:
                targets = getattr(member, "targets", None) or [getattr(member, "target", None)]
                name = ",".join(t.id for t in targets if isinstance(t, ast.Name)) or "module"
            yield prefix + name, member


def _family_branches(src: Path) -> list:
    """Each comparison of a family (``family`` or ``.family``) with a
    family-name literal in the package at ``src``, outside FAMILY_BRANCHES,
    as "module.owner:line"."""
    names = set(dpolys.FAMILY_PARAMS)

    def is_family(node):
        return (isinstance(node, ast.Attribute) and node.attr == "family") or (
            isinstance(node, ast.Name) and node.id == "family"
        )

    def is_name(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(is_name(e) for e in node.elts)
        return isinstance(node, ast.Constant) and node.value in names

    found, seen = [], set()
    for path in sorted(src.rglob("*.py")):
        for owner, top in _owners(ast.parse(path.read_text(), str(path))):
            qualname = f"{path.stem}.{owner}"
            seen.add(qualname)
            if qualname in FAMILY_BRANCHES:
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Compare):
                    sides = [node.left, *node.comparators]
                    if any(map(is_family, sides)) and any(map(is_name, sides)):
                        found.append(f"{qualname}:{node.lineno}")
    assert FAMILY_BRANCHES <= seen, FAMILY_BRANCHES - seen
    return found


def test_family_names_branch_only_where_the_point_cannot():
    # a family's weight, its sums, its box, its generating-function
    # convention and its CLI rows all come from the dpolys declaration: its
    # point, its shift triple, its parameters (a finite support is read off
    # fp.N) and TWO_INDEX.  Only FAMILY_BRANCHES may compare a family to a
    # family name
    found = _family_branches(SRC)
    assert not found, found


INEXACT = {"Decimal", "float", "log"}


def test_moment_sum_stays_rational():
    # the closed-form moments make every orthogonality sum a rational: the
    # mass divides out, and a partial sum cut at a weight is a finite sum
    # of rational shell moments, so no decimal or floating-point value may
    # enter either
    funcs = _verify_functions()
    found = []
    for fn in ("_node_weights", "_shell_moment"):
        assert fn in funcs
        for node in ast.walk(funcs[fn]):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in INEXACT:
                found.append(f"verify.py:{node.lineno}: {fn} uses {name}")
            elif isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"verify.py:{node.lineno}: {fn} uses {node.value!r}")
    assert not found, found


# the load_or_build_table call sites of each CLI command: eval loads a
# Laguerre table at |m| and the others at max(|m|, |x|); verify takes its
# degree from the identity's row in cli._VERIFY_READS
TABLE_LOADS = {"cmd_eval": 2, "cmd_table": 1, "cmd_verify": 1, "cmd_conjecture": 1}


def test_one_table_load_per_command():
    tree = ast.parse((SRC / "cli.py").read_text())
    commands = {n.name: n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name.startswith("cmd_")}
    assert set(commands) == set(TABLE_LOADS)
    found = {
        name: sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "load_or_build_table" for node in ast.walk(func))
        for name, func in commands.items()
    }
    assert found == TABLE_LOADS

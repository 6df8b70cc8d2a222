"""Every setting of the package is set by some caller.

A defaulted parameter of a function in ``src/openrates``, or a defaulted
field of one of its dataclasses, that no call in ``src/`` or ``perfbench/``
passes has one value in use: it belongs inline, as a literal or a module
constant.  A value only tests pass does not make it a setting; the few
kept anyway are named in ``UNSET_KEPT``.  The scan is syntactic.  A call
is matched to every definition of its name, a positional argument or a
keyword sets the parameter it lands on, and a ``**mapping`` that is not a
forwarded ``**kwargs`` sets every parameter.  Keywords a caller passes to
a function that forwards its ``**kwargs`` to another one count for that
one too.

Every field of a dataclass or NamedTuple of the package must likewise be
read, as an attribute load, somewhere in ``src/`` or ``perfbench/``: a
field that only tests read is carried for nobody.  That scan matches the
attribute name alone, whatever object it is read from.  So must every
top-level function and class and every non-dunder method, by name or by
attribute, save the few in ``TEST_ONLY`` that the tests hold as reference
data, and every name a top-level assignment binds.  And no module binds a
top-level name twice, which leaves the first binding dead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "openrates"
CALLERS = (ROOT / "src", ROOT / "perfbench")
ALL = float("inf")


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == \
                "dataclass":
            return True
    return False


def _function_settings(fn, is_method):
    """(parameter, positional index or None) for each defaulted parameter
    of a function; a method's index does not count ``self``."""
    args = fn.args.posonlyargs + fn.args.args
    skip = 1 if is_method and not any(
        getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list) \
        else 0
    first = len(args) - len(fn.args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(args) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs,
                                         fn.args.kw_defaults) if d is not None]
    return out


def _dataclass_settings(cls):
    fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)
              and isinstance(s.target, ast.Name)
              and "ClassVar" not in ast.unparse(s.annotation)]
    return [(s.target.id, i) for i, s in enumerate(fields)
            if s.value is not None]


def definitions():
    """{name: [(where, [(parameter, positional index or None)])]} for the
    functions, methods and dataclasses of the package."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).append(
                    (f"{path.stem}.{node.name}",
                     _function_settings(node, False)))
            elif isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    defs.setdefault(node.name, []).append(
                        (f"{path.stem}.{node.name}",
                         _dataclass_settings(node)))
                for fn in node.body:
                    if isinstance(fn, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                        defs.setdefault(fn.name, []).append(
                            (f"{path.stem}.{node.name}.{fn.name}",
                             _function_settings(fn, True)))
    return defs


def _name(func):
    return getattr(func, "id", getattr(func, "attr", None))


def calls():
    """(callee name, positional count, keywords, sets every keyword) for
    each call under ``CALLERS``, plus {function: callees} for the
    functions that forward their ``**kwargs``."""
    found, forwards = [], {}
    for top in CALLERS:
        for path in sorted(top.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)) \
                        or fn.args.kwarg is None:
                    continue
                for call in ast.walk(fn):
                    if isinstance(call, ast.Call) and any(
                            k.arg is None and getattr(k.value, "id", None)
                            == fn.args.kwarg.arg for k in call.keywords):
                        forwards.setdefault(fn.name, set()).add(
                            _name(call.func))
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call):
                    continue
                npos = ALL if any(isinstance(a, ast.Starred)
                                  for a in call.args) else len(call.args)
                keywords = {k.arg for k in call.keywords if k.arg}
                # a ``**mapping`` built on the spot may hold any key
                every = any(k.arg is None and not isinstance(k.value, ast.Name)
                            for k in call.keywords)
                found.append((_name(call.func), npos, keywords, every))
    return found, forwards


def unset_settings():
    defs = definitions()
    found, forwards = calls()
    positional = {}     # name -> most positional arguments of any call
    keywords = {}       # name -> keywords some call passes
    every = set()       # names some call passes every keyword
    for name, npos, kws, all_kws in found:
        positional[name] = max(positional.get(name, 0), npos)
        targets, todo = {name}, [name]
        while todo:     # keywords reach every function the callee forwards to
            for nxt in forwards.get(todo.pop(), ()):
                if nxt not in targets:
                    targets.add(nxt)
                    todo.append(nxt)
        for target in targets:
            keywords.setdefault(target, set()).update(kws)
            if all_kws:
                every.add(target)
    unset = []
    for name, entries in defs.items():
        for where, settings in entries:
            for param, index in settings:
                if name in every or param in keywords.get(name, ()) or (
                        index is not None
                        and index < positional.get(name, 0)):
                    continue
                unset.append(f"{where}({param})")
    return sorted(unset)


# defaulted parameters that no call in src/ or perfbench/ sets, each kept
# for a named reason
UNSET_KEPT = {
    # the test seams of ROADMAP item 13
    "ulam.leading_eigenpair(max_iters)",
    "pressure.class_membership(targets)",
    "pressure.class_membership(sample_size)",
    "dynballs.triangle_check(adversarial)",
    # the map attachment of ROADMAP item 7
    "tower.validate_hypotheses(map_attachment)",
    # set through the ``_MAPS`` field table, which the scan cannot see
    "systems.logistic_like(a)",
}


def test_every_setting_has_a_caller():
    unset = unset_settings()
    extra = sorted(set(unset) - UNSET_KEPT)
    assert not extra, ("settings that no call sets; make each one a "
                       "constant:\n  " + "\n  ".join(extra))
    stale = sorted(UNSET_KEPT - set(unset))
    assert not stale, ("UNSET_KEPT names settings that are gone or now "
                       "set:\n  " + "\n  ".join(stale))


def _is_namedtuple(node):
    return any(getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple"
               for b in node.bases)


def _fields():
    """``module.Class.field`` for every field of the package's dataclasses
    and NamedTuples, class-based or built by ``namedtuple(name, fields)``."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and (
                    _is_dataclass(node) or _is_namedtuple(node)):
                out += [f"{path.stem}.{node.name}.{s.target.id}"
                        for s in node.body if isinstance(s, ast.AnnAssign)
                        and isinstance(s.target, ast.Name)
                        and "ClassVar" not in ast.unparse(s.annotation)]
            elif isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Call) and \
                    _name(node.value.func) == "namedtuple":
                names = ast.literal_eval(node.value.args[1])
                if isinstance(names, str):
                    names = names.replace(",", " ").split()
                out += [f"{path.stem}.{node.value.args[0].value}.{f}"
                        for f in names]
    return out


def _loads():
    """Every attribute name and every plain name read (loaded) under
    ``src/`` or ``perfbench/``."""
    attrs, names = set(), set()
    for top in CALLERS:
        for path in sorted(top.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and \
                        isinstance(node.ctx, ast.Load):
                    attrs.add(node.attr)
                elif isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Load):
                    names.add(node.id)
    return attrs, names


def test_every_field_is_read():
    loads, _ = _loads()
    unread = [f for f in _fields() if f.rsplit(".", 1)[1] not in loads]
    assert not unread, ("fields that no code in src/ or perfbench/ reads:"
                        "\n  " + "\n  ".join(unread))


# reference data the tests build on: the golden-mean tower of ROADMAP
# item 4 and the stationary mass of a billiard arc hole
TEST_ONLY = {"tower.golden_mean_tower",
             "billiard.BilliardHole.arc_measure_fraction"}


def _names():
    """``module.name`` for every top-level function and class of the
    package, and ``module.Class.method`` for every non-dunder method."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            out.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out += [f"{path.stem}.{node.name}.{fn.name}"
                        for fn in node.body
                        if isinstance(fn, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                        and not (fn.name.startswith("__")
                                 and fn.name.endswith("__"))]
    return out


def test_every_name_is_used():
    attrs, names = _loads()
    unused = [q for q in _names() if q not in TEST_ONLY
              and q.rsplit(".", 1)[1] not in attrs | names]
    assert not unused, ("functions, classes and methods that no code in "
                        "src/ or perfbench/ loads:\n  " + "\n  ".join(unused))


def _bound_names(stmt):
    """The names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return [a.asname or a.name.split(".")[0] for a in stmt.names]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) \
        else []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def test_no_module_name_is_bound_twice():
    # a second top-level binding of a name leaves the first one dead
    twice = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        seen = set()
        for stmt in tree.body:
            for name in _bound_names(stmt):
                if name in seen:
                    twice.append(f"{path.stem}.{name} (line {stmt.lineno})")
                seen.add(name)
    assert not twice, ("module-level names bound more than once:\n  "
                       + "\n  ".join(twice))


def test_every_module_constant_is_read():
    # a module constant that only tests read is carried for nobody
    attrs, names = _loads()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        unread += [f"{path.stem}.{name}" for stmt in tree.body
                   if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                   for name in _bound_names(stmt)
                   if name not in attrs | names]
    assert not unread, ("module-level names that no code in src/ or "
                        "perfbench/ reads:\n  " + "\n  ".join(unread))

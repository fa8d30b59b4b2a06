"""Every name in src/ has a caller outside the tests.

The library promises only what its callers use: a library module, the CLI,
the benchmark (perfbench/), the tools (tools/) or the README's code blocks.
The test lists every top-level function and class in src/ and every method
of a top-level class that is not a dunder, and fails for each one that
nothing outside tests/ and its own body refers to.

A reference is a name, an attribute, an imported name, or a part of a
string constant that is a dotted name, such as "smallgrp.SmallGroup.closure_idx"
in perfbench's list of traced layers; docstrings and comments do not count.
A method is read only through an attribute that is not a namespace (none of
its own attributes is read) or the last part of a dotted string, and one named
like a module of the package only through a call: otherwise the module
(`kl.bimap`, "bimap.hom_dim") would stand in for a caller of `B2Group.bimap`.
Names are matched by name, not by binding, so a method that shares its name
with one that has a caller passes.

Likewise every parameter with a default, of those functions and methods (a
class's `__init__` under the class's name), must be passed, by keyword or by
position, in some call outside tests/ and the function's own body: the
callers above and the README's Python blocks.  A parameter that only the
tests set is a flag nothing reads.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "perfbench", "tools")
DOTTED = re.compile(r"[A-Za-z_][\w.]*")
FENCED = re.compile(r"```[^\n]*\n(.*?)```", re.S)
PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.S)
# qualified name and parameter -> why no call outside the tests passes it
UNPASSED = {
    ("main", "argv"): "the console script calls main(), and argparse then reads sys.argv",
}


def references(tree):
    """(name, how, line) of every reference in a module: how is "call" for a
    called attribute, "attr" for another attribute that is not a namespace and
    for the last part of a dotted string, and "name" for the rest."""
    namespaces = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, "name", node.lineno
        elif isinstance(node, ast.Attribute):
            how = "call" if id(node) in called else "name" if id(node) in namespaces else "attr"
            yield node.attr, how, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], "name", node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            *parts, last = node.value.split(".")
            for part in parts:
                yield part, "name", node.lineno
            yield last, "attr", node.lineno


def definitions(tree):
    """(qualified name, first line, last line) of the top-level functions and
    classes and of the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield "%s.%s" % (node.name, sub.name), sub.lineno, sub.end_lineno


def parsed(*dirs):
    return {path: ast.parse(path.read_text()) for d in dirs for path in sorted((ROOT / d).rglob("*.py"))}


def test_every_name_in_src_has_a_caller_outside_the_tests():
    callers = parsed(*CALLERS)
    refs = [(path, name, how, line) for path, tree in callers.items()
            for name, how, line in references(tree)]
    readme = set(re.findall(r"\w+", "\n".join(FENCED.findall((ROOT / "README.md").read_text()))))
    in_tests = {name for tree in parsed("tests").values() for name, _, _ in references(tree)}
    modules = {path.stem for path in (ROOT / "src" / "kinderlab").glob("*.py")}
    offenders = []
    for path, tree in callers.items():
        if path.parts[len(ROOT.parts)] != "src":
            continue
        for qual, first, last in definitions(tree):
            name = qual.rsplit(".", 1)[-1]
            ways = ({"name", "attr", "call"} if "." not in qual
                    else {"call"} if name in modules else {"attr", "call"})
            if name in readme or any(n == name and how in ways
                                     and not (p == path and first <= line <= last)
                                     for p, n, how, line in refs):
                continue
            offenders.append("%s: %s (read by %s)" % (
                path.relative_to(ROOT), qual, "the tests only" if name in in_tests else "nothing"))
    assert not offenders, "names in src/ without a caller outside the tests:\n" + "\n".join(offenders)


def functions(tree):
    """(qualified name, callee name, node) of the top-level functions and of
    the methods of top-level classes: a class's `__init__` is called by the
    class's name, and the other dunders are left out."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and (
                        sub.name == "__init__" or not sub.name.startswith("__")):
                    callee = node.name if sub.name == "__init__" else sub.name
                    yield "%s.%s" % (node.name, sub.name), callee, sub


def defaulted(tree):
    """(qualified name, callee name, parameter, position, node) of every
    parameter with a default: position is None for a keyword-only one, and
    counts a method's parameters after self or cls (src/ has no static
    method)."""
    for qual, callee, fn in functions(tree):
        a = fn.args
        positional = (a.posonlyargs + a.args)[1 if "." in qual else 0:]
        first = len(positional) - len(a.defaults)
        for k, arg in enumerate(positional[first:], first):
            yield qual, callee, arg.arg, k, fn
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield qual, callee, arg.arg, None, fn


def calls(tree):
    """(callee name, positional count, keywords, line) of every call; a
    starred argument counts as every position and `**` as every keyword."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            npos = float("inf") if any(isinstance(x, ast.Starred) for x in node.args) else len(node.args)
            keywords = {kw.arg for kw in node.keywords}
            yield name, npos, keywords, node.lineno


def test_every_defaulted_parameter_in_src_is_passed_outside_the_tests():
    callers = parsed(*CALLERS)
    readme = [ast.parse(block) for block in PYTHON_BLOCK.findall((ROOT / "README.md").read_text())]
    passed = [(path, c) for path, tree in [*callers.items(), *((None, t) for t in readme)]
              for c in calls(tree)]
    offenders, exempt = [], set()
    for path, tree in callers.items():
        if path.parts[len(ROOT.parts)] != "src":
            continue
        for qual, callee, param, k, fn in defaulted(tree):
            if (qual, param) in UNPASSED:
                exempt.add((qual, param))
                continue
            if not any(name == callee and not (p == path and fn.lineno <= line <= fn.end_lineno)
                       and (param in kws or None in kws or (k is not None and npos > k))
                       for p, (name, npos, kws, line) in passed):
                offenders.append("%s: %s(%s=)" % (path.relative_to(ROOT), qual, param))
    assert not offenders, "defaulted parameters no call outside the tests passes:\n" + "\n".join(offenders)
    assert exempt == set(UNPASSED), "stale exemptions: %s" % sorted(set(UNPASSED) - exempt)

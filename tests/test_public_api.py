"""Every public name in ``src/`` has a caller outside ``tests/``.

An ``ast`` sweep lists the public functions, classes and methods that
``src/repro`` defines, and the names that ``src/``, ``benchmarks/``,
``perfbench/``, ``examples/`` and the CI workflows refer to.  A
definition nothing refers to is dead weight for the reader and the
maintainer, so it fails the test unless :data:`ALLOWED` names it with a
reason.

A reference is a name, an attribute, an import, or a string that is
exactly the name (registry tables and ``getattr``); the matching is by
name alone, so it errs towards "called".  The sweep skips a definition's
own body and the imports and ``__all__`` of package ``__init__`` files:
re-exporting a name is not calling it.  In the workflows every
identifier-like word counts, since their steps embed Python.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "benchmarks", "perfbench", "examples")

#: Public names kept without a caller outside ``tests/``, and why.
ALLOWED = {
    # Library API that the docs describe to a user of the package.
    "gradcheck": "the numerical gradient checker of docs/autograd.md",
    "softplus": "an autograd op in the op list of docs/autograd.md",
    "logsumexp": "an autograd op in the op list of docs/autograd.md",
    "save_state": "module persistence, docs/autograd.md (load_state's pair)",
    "GuidanceAttentionRecorder.for_item": "recorder API, docs/observability.md",
    "GuidanceAttentionRecorder.to_jsonl": "recorder API, docs/observability.md",
    "read_manifest": "reads a checkpoint's manifest, docs/serving.md",
    # Called by the standard library, which dispatches on the name.
    "_Handler.do_GET": "http.server calls do_<METHOD>",
    "_Handler.do_POST": "http.server calls do_<METHOD>",
    "_Handler.log_message": "http.server's logging hook",
}


def _is_init(path: Path) -> bool:
    return path.name == "__init__.py" and path.parts[len(ROOT.parts)] == "src"


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    )


def _walk(node: ast.AST, init: bool):
    """``ast.walk`` below ``node``, minus an ``__init__``'s imports and ``__all__``."""
    for child in ast.iter_child_nodes(node):
        if init and (isinstance(child, (ast.Import, ast.ImportFrom)) or _is_all(child)):
            continue
        yield child
        yield from _walk(child, init)


def _references(node: ast.AST, init: bool) -> Counter:
    """Names ``node`` refers to (see the module docstring)."""
    found = Counter()
    for sub in _walk(node, init):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                found[sub.value] += 1
    return found


def _public_definitions(tree: ast.Module):
    """``(qualified name, node)`` for public top-level defs and methods."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def sweep(root: Path = ROOT):
    """Qualified names of the public definitions in ``src/`` without a
    caller, as ``{qualified name: "path:line"}``."""
    references = Counter()
    definitions = []
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            init = _is_init(path)
            references.update(_references(tree, init))
            if directory == "src":
                for qualified, node in _public_definitions(tree):
                    definitions.append((qualified, node, init, path))
    for workflow in sorted((root / ".github" / "workflows").glob("*.yml")):
        references.update(re.findall(r"[A-Za-z_]\w*", workflow.read_text(encoding="utf-8")))
    uncalled = {}
    for qualified, node, init, path in definitions:
        own = _references(node, init)[node.name]
        if references[node.name] - own <= 0:
            uncalled[qualified] = f"{path.relative_to(root)}:{node.lineno}"
    return uncalled


def test_every_public_name_has_a_caller():
    uncalled = {name: where for name, where in sweep().items() if name not in ALLOWED}
    assert not uncalled, (
        "public names with no caller outside tests/ (delete them, make them "
        f"private, or add them to ALLOWED with a reason): {uncalled}"
    )


def test_allow_list_names_only_uncalled_definitions():
    stale = sorted(set(ALLOWED) - set(sweep()))
    assert not stale, f"ALLOWED entries that now have a caller or are gone: {stale}"

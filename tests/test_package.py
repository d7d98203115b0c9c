import ast
import shlex
from pathlib import Path

import modnet
from modnet.cli import build_parser
from modnet.experiment import ExperimentConfig


def test_public_names_are_sorted_unique_and_resolve():
    names = modnet.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(modnet, name), f"stale __all__ entry {name!r}"


def test_readme_documents_the_command_line_and_config_fields():
    # every documented command parses, and every config field is documented,
    # so a removed or undocumented surface shows up here
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    block = section.split("```sh\n")[1].split("```")[0]
    parser = build_parser()
    for line in block.splitlines():
        argv = shlex.split(line.split("#")[0])
        assert argv[0] == "modnet", line
        parser.parse_args(argv[1:])
    config_text = section.split("An experiment config")[1]
    for name in ExperimentConfig.__dataclass_fields__:
        assert f"`{name}`" in config_text or f'"{name}"' in config_text, name


def _loaded_names(tree) -> set:
    """Every name a module reads, as a bare name or an attribute, plus the
    strings of its __all__."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def _defined_names(body) -> list:
    """The names a module or class body binds by def, class or assignment."""
    defined = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    return defined


def test_no_unused_import_or_orphaned_private_name():
    # a lint-free dead-code guard: each import is used by its module, and
    # each module-level _name, and each _name a class body defines (a
    # method or a field), is read somewhere in the package
    src = Path(__file__).parent.parent / "src" / "modnet"
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    used = {name: _loaded_names(tree) for name, tree in trees.items()}
    everywhere = set().union(*used.values())
    stale = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used[name]:
                        stale.append(f"{name}: unused import {bound}")
        bodies = [tree.body] + [node.body for node in ast.walk(tree)
                                if isinstance(node, ast.ClassDef)]
        for d in (d for body in bodies for d in _defined_names(body)):
            if d.startswith("_") and not d.startswith("__") and d not in everywhere:
                stale.append(f"{name}: private {d} is never read")
    assert not stale, stale

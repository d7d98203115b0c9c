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

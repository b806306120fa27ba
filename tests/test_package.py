import ast
import subprocess
import sys
import tokenize
import types
from pathlib import Path

import hlskit

SRC = Path(__file__).parent.parent / "src"


def test_all_lists_exactly_the_public_names():
    names = hlskit.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    public = {
        name
        for name, obj in vars(hlskit).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert set(names) == public


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Each costs every CLI process milliseconds of start-up that no command
    # needs; so do argparse and the gettext and locale it imports.
    code = "import sys; sys.path.insert(0, sys.argv[1]); import hlskit.cli; "
    code += "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    code += "hlskit.cli.main(['verify', 'reciprocity', '--n', '1', '--r', '2', '--no-timing'])\n"
    code += "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.startswith("[]\n{") and out.endswith("}\n[]\n")
    sources = (SRC / "hlskit").glob("*.py")
    assert [path.name for path in sources if "dataclass" in path.read_text()] == []


def test_modules_use_every_name_they_import():
    # A CLI process without a bytecode cache compiles every module, so an
    # unused import costs start-up time.  __init__ imports to re-export.
    unused = {}
    for path in sorted((SRC / "hlskit").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}


def test_every_module_compiles_under_the_token_cliff():
    # Every CLI process without a bytecode cache compiles every module, and
    # the peak memory of compile() jumps at 4,096 tokens: on CPython 3.11.7,
    # poset.py padded to 4,095 tokens peaked at 1.509 MB under tracemalloc,
    # and at 4,097 tokens at 1.739 MB.  Comments and blank lines are free.
    free = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    counts = {}
    for path in sorted((SRC / "hlskit").glob("*.py")):
        with path.open("rb") as fh:
            counts[path.name] = sum(t.type not in free for t in tokenize.tokenize(fh.readline))
    assert {name: n for name, n in counts.items() if n >= 4096} == {}

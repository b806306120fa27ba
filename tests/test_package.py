import subprocess
import sys
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
    # Each costs every CLI process milliseconds of start-up that no command needs.
    code = "import sys; sys.path.insert(0, sys.argv[1]); import hlskit.cli; "
    code += "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"
    sources = (SRC / "hlskit").glob("*.py")
    assert [path.name for path in sources if "dataclass" in path.read_text()] == []

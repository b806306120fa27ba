"""Property test of the CLI exit-code contract on random small specs and caps."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from conftest import reference_parser  # noqa: E402
from hlskit.cli import COMMANDS, UsageError, main, parse_args  # noqa: E402

PARTS = st.integers(min_value=0, max_value=2)
CAPS = st.integers(min_value=0, max_value=5000)


@st.composite
def specs(draw):
    g = draw(st.integers(min_value=1, max_value=2))
    n = draw(st.lists(PARTS, min_size=g, max_size=g))
    r = draw(st.lists(PARTS, min_size=g, max_size=g))
    return ",".join(map(str, n)), ",".join(map(str, r))


def check_exits_0_or_2_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert err.getvalue() == ""
    assert "Traceback" not in err.getvalue()


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(spec=specs(), max_subsets=CAPS, max_chains=CAPS)
def test_order_complex_exits_0_or_2_with_one_error_line(spec, max_subsets, max_chains):
    check_exits_0_or_2_with_one_error_line([
        "verify", "order-complex", "--n", spec[0], "--r", spec[1],
        "--max-subsets", str(max_subsets), "--max-chains", str(max_chains), "--no-timing",
    ])


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    spec=specs(), modified=st.booleans(), max_terms=CAPS, max_chains=CAPS
)
def test_compute_exits_0_or_2_with_one_error_line(spec, modified, max_terms, max_chains):
    check_exits_0_or_2_with_one_error_line([
        "compute", "--n", spec[0], "--r", spec[1], *(["--modified"] if modified else []),
        "--max-terms", str(max_terms), "--max-chains", str(max_chains), "--no-timing",
    ])


# Each kind with its shape flag and a strategy for the flag's value.
KINDS = {
    "classical-igusa": ("--r", st.integers(min_value=0, max_value=6).map(str)),
    "generalized-igusa": ("--r", specs().map(lambda spec: spec[1])),
    "mv-hls": ("--n", st.integers(min_value=0, max_value=4).map(str)),
    "weak-order-igusa": ("--g", st.integers(min_value=1, max_value=4).map(str)),
}


@st.composite
def specializations(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    flag, values = KINDS[kind]
    return kind, flag, draw(values)


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(kind=specializations(), max_terms=CAPS, max_chains=CAPS)
def test_specialize_exits_0_or_2_with_one_error_line(kind, max_terms, max_chains):
    name, flag, value = kind
    check_exits_0_or_2_with_one_error_line([
        "specialize", "--kind", name, flag, value,
        "--max-terms", str(max_terms), "--max-chains", str(max_chains), "--no-timing",
    ])


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    spec=specs(),
    rational=st.booleans(),
    max_degree=st.integers(min_value=0, max_value=3),
    max_terms=CAPS,
    max_chains=CAPS,
    max_elements=CAPS,
)
def test_expand_exits_0_or_2_with_one_error_line(
    spec, rational, max_degree, max_terms, max_chains, max_elements
):
    # Only the rational route reads --max-terms.
    method = ["--method", "rational", "--max-terms", str(max_terms)] if rational else []
    check_exits_0_or_2_with_one_error_line([
        "expand", "--n", spec[0], "--r", spec[1], "--max-degree", str(max_degree), *method,
        "--max-chains", str(max_chains), "--max-elements", str(max_elements), "--no-timing",
    ])


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(spec=specs(), json_format=st.booleans(), max_elements=CAPS)
def test_hasse_exits_0_or_2_with_one_error_line(spec, json_format, max_elements):
    check_exits_0_or_2_with_one_error_line([
        "hasse", "--n", spec[0], "--r", spec[1], *(["--format", "json"] if json_format else []),
        "--max-elements", str(max_elements), "--no-timing",
    ])


# Each check with the caps it reads.
CHECK_CAPS = {
    "reciprocity": ("--max-elements", "--max-chains", "--max-terms"),
    "relation": ("--max-elements", "--max-chains", "--max-terms"),
    "zeta-mobius": ("--max-elements", "--max-products"),
}


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    spec=specs(),
    check=st.sampled_from(sorted(CHECK_CAPS)),
    caps=st.lists(CAPS, min_size=3, max_size=3),
)
def test_verify_exits_0_or_2_with_one_error_line(spec, check, caps):
    flags = [str(x) for pair in zip(CHECK_CAPS[check], caps) for x in pair]
    check_exits_0_or_2_with_one_error_line([
        "verify", check, "--n", spec[0], "--r", spec[1], *flags, "--no-timing",
    ])


# Values of the text flags (--n, --chain, ...), some of which argparse reads
# as values though they start with a dash; and values that a converter or a
# choice refuses, or that read as a flag.
TEXTS = ["1", "1,2", "2 < 2 5", "", "-", "- < 0", "-1", "-2.5"]
VALUES = ["-1,2", "x", "--n", "-x", "7 ", "bogus"]
# Unknown flags, an abbreviation among them, and a switch given a value.
UNKNOWN = ["--bogus", "--stats", "--max", "-x", "--no-timing=1"]


@st.composite
def command_lines(draw):
    """An argv of one command: shuffled groups of a flag and its value, or a positional.

    Most groups are well formed; some miss their value, give a bad value or
    choice, repeat a flag, or are unknown.
    """
    command = draw(st.sampled_from(sorted(COMMANDS)))
    _, _, required, flags = COMMANDS[command]
    groups = []
    for name in draw(st.lists(st.sampled_from(sorted(flags)), max_size=6)):
        kind = flags[name]
        if kind is bool:
            groups.append([name] if draw(st.integers(0, 7)) else [f"{name}=x"])
            continue
        good = list(kind) if isinstance(kind, tuple) else TEXTS if kind is str else ["0", "7", "12"]
        value = draw(st.sampled_from(good if draw(st.integers(0, 7)) else TEXTS + VALUES))
        form = draw(st.sampled_from(["space"] * 4 + ["equals"] * 3 + ["missing"]))
        groups.append({"space": [name, value], "equals": [f"{name}={value}"], "missing": [name]}[form])
    # Required arguments are most often given, at a random place, and rarely
    # twice or with a bad choice; an unknown flag is rare too.
    for name, choices in required.items():
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 1, 2]))):
            value = draw(st.sampled_from([*choices, "bogus"]))
            groups.append([value] if name == "check" else [name, value])
    if not draw(st.integers(0, 5)):
        groups.append([draw(st.sampled_from(UNKNOWN))])
    return [command, *(token for group in draw(st.permutations(groups)) for token in group)]


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(argv=command_lines())
def test_the_table_parser_parses_as_argparse(argv):
    # Both parsers give equal attributes, or both refuse; a refused argv
    # exits 1 with one error line.
    try:
        want = vars(reference_parser().parse_args(argv))
    except UsageError:
        want = None
    try:
        got = vars(parse_args(argv))
    except UsageError:
        got = None
    assert got == want
    if got is None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 1
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

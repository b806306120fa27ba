"""Property test of the CLI exit-code contract on random small specs and caps."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from hlskit.cli import main  # noqa: E402

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

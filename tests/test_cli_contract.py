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


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(spec=specs(), max_subsets=CAPS, max_chains=CAPS)
def test_order_complex_exits_0_or_2_with_one_error_line(spec, max_subsets, max_chains):
    argv = [
        "verify", "order-complex", "--n", spec[0], "--r", spec[1],
        "--max-subsets", str(max_subsets), "--max-chains", str(max_chains), "--no-timing",
    ]
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

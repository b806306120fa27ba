import ast
import errno
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from hlskit import series, verify
from hlskit._argv import quoted
from conftest import reference_parser
from hlskit.cli import CHECKS, COMMANDS, SPECIALIZATIONS, main, parse_args
from hlskit.poset import PosetSpec, enumerate_elements, enumerate_multichains

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_matches_golden_file(capsys):
    code, out, _ = run(capsys, "compute", "--n", "1", "--r", "2", "--no-timing")
    assert code == 0
    assert out == (GOLDEN / "compute_n1_r2.txt").read_text()


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("compute_n1_r2.json", ["compute", "--n", "1", "--r", "2", "--format", "json"]),
        ("specialize_mv_hls_n3.txt", ["specialize", "--kind", "mv-hls", "--n", "3"]),
    ],
)
def test_series_output_matches_golden_file(capsys, golden, argv):
    code, out, _ = run(capsys, *argv, "--no-timing")
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--n", "2", "--r", "2"],
        ["compute", "--n", "1,1", "--r", "0,2", "--modified", "--format", "json"],
        ["specialize", "--kind", "weak-order-igusa", "--g", "3"],
        ["specialize", "--kind", "classical-igusa", "--r", "4", "--format", "json"],
    ],
)
def test_series_output_never_unpacks_the_numerator(capsys, monkeypatch, argv):
    # The text is rendered from the packed keys, and --stats-only renders
    # nothing: no run builds the numerator's LaurentPoly.
    code, expected, _ = run(capsys, *argv, "--no-timing")
    assert code == 0

    def unpack(value):
        raise AssertionError("the numerator was unpacked")

    monkeypatch.setattr(series.HlsRational, "numerator", property(unpack))
    assert run(capsys, *argv, "--no-timing")[:2] == (0, expected)
    code, out, _ = run(capsys, *argv, "--no-timing", "--stats-only")
    assert code == 0 and "numerator" not in out and "terms" in out


def test_compute_byte_stable(capsys):
    _, first, _ = run(capsys, "compute", "--n", "1", "--r", "2", "--no-timing")
    _, second, _ = run(capsys, "compute", "--n", "1", "--r", "2", "--no-timing")
    assert first == second


def test_compute_degenerate(capsys):
    code, out, _ = run(capsys, "compute", "--n", "0", "--r", "0", "--no-timing")
    assert code == 0
    assert out.splitlines()[0] == "numerator = 1"
    assert "denominator = 1" in out


def test_compute_stats_only(capsys):
    code, out, _ = run(
        capsys, "compute", "--n", "2", "--r", "2", "--stats-only", "--no-timing"
    )
    assert code == 0
    assert out == "terms = 1412\ndenominator_factors = 11\nchains = 1152\n"


def test_compute_json_decimal_strings(capsys):
    code, out, _ = run(
        capsys, "compute", "--n", "1", "--r", "2", "--format", "json", "--no-timing"
    )
    assert code == 0
    data = json.loads(out)
    assert data["spec"] == {"n": [1], "r": [2]}
    assert data["stats"]["terms"] == "12"
    assert data["stats"]["chains"] == "32"
    assert "millis" not in data["stats"]
    assert data["denominator"] == ["0", "0^2", "1", "0 1", "0^2 1"]
    assert data["numerator"].startswith("1 + ")


def test_compute_modified(capsys):
    code, out, _ = run(
        capsys, "compute", "--n", "1", "--r", "2", "--modified", "--no-timing"
    )
    assert code == 0
    assert "denominator_factors = 4" in out


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "compute")[0] == 1
    assert run(capsys, "compute", "--n", "1", "--r", "1,2")[0] == 1
    assert run(capsys, "compute", "--n", "x", "--r", "1")[0] == 1
    assert run(capsys, "expand", "--n", "1", "--r", "1")[0] == 1
    for flag in ("--max-elements", "--max-chains", "--max-terms"):
        assert run(capsys, "compute", "--n", "1", "--r", "1", flag, "-1")[0] == 1
    assert run(
        capsys, "verify", "order-complex", "--n", "1", "--r", "1", "--max-subsets", "-1"
    )[0] == 1
    # Caps are registered only where something is enumerated.
    assert run(capsys, "hasse", "--n", "1", "--r", "1", "--max-chains", "5")[0] == 1
    for flag in ("--max-elements", "--max-chains"):
        assert run(
            capsys, "project", "--n", "5", "--r", "2", "--chain", "2 < 2 5", flag, "5"
        )[0] == 1


# Every (command, flag) pair where the command accepts a flag it does not read.
UNREAD_FLAGS = [
    (("verify", "reciprocity", "--n", "1", "--r", "2"), "reciprocity", "--max-subsets"),
    (("verify", "order-complex", "--n", "1", "--r", "2"), "order-complex", "--modified"),
    (("verify", "zeta-mobius", "--n", "1", "--r", "2"), "zeta-mobius", "--max-chains"),
    (("verify", "zeta-mobius", "--n", "1", "--r", "2"), "zeta-mobius", "--max-subsets"),
    (("verify", "zeta-mobius", "--n", "1", "--r", "2"), "zeta-mobius", "--modified"),
    (("verify", "relation", "--n", "1", "--r", "2"), "relation", "--max-subsets"),
    (("verify", "relation", "--n", "1", "--r", "2"), "relation", "--modified"),
    (("verify", "reciprocity", "--n", "1", "--r", "2"), "reciprocity", "--max-products"),
    (("verify", "order-complex", "--n", "1", "--r", "2"), "order-complex", "--max-products"),
    (("verify", "relation", "--n", "1", "--r", "2"), "relation", "--max-products"),
    (("verify", "order-complex", "--n", "1", "--r", "2"), "order-complex", "--max-terms"),
    (("verify", "zeta-mobius", "--n", "1", "--r", "2"), "zeta-mobius", "--max-terms"),
    (("expand", "--n", "1", "--r", "1", "--max-degree", "2"), "expand --method multichain", "--max-terms"),
    (("specialize", "--kind", "classical-igusa", "--r", "2"), "classical-igusa", "--n"),
    (("specialize", "--kind", "classical-igusa", "--r", "2"), "classical-igusa", "--g"),
    (("specialize", "--kind", "generalized-igusa", "--r", "1,1"), "generalized-igusa", "--n"),
    (("specialize", "--kind", "generalized-igusa", "--r", "1,1"), "generalized-igusa", "--g"),
    (("specialize", "--kind", "mv-hls", "--n", "2"), "mv-hls", "--r"),
    (("specialize", "--kind", "mv-hls", "--n", "2"), "mv-hls", "--g"),
    (("specialize", "--kind", "weak-order-igusa", "--g", "2"), "weak-order-igusa", "--n"),
    (("specialize", "--kind", "weak-order-igusa", "--g", "2"), "weak-order-igusa", "--r"),
]


@pytest.mark.parametrize(
    "argv, name, flag", UNREAD_FLAGS, ids=[f"{name} {flag}" for _, name, flag in UNREAD_FLAGS]
)
def test_unread_flag_exits_1(capsys, argv, name, flag):
    value = () if flag == "--modified" else ("0" if flag.startswith("--max") else "7",)
    code, out, err = run(capsys, *argv, flag, *value, "--no-timing")
    assert code == 1
    assert out == ""
    assert err == f"error: {name} does not read {flag}\n"
    # Without the unread flag the same command succeeds.
    assert run(capsys, *argv, "--no-timing")[0] == 0


def _perfbench_items():
    # The item lists are read from the benchmark script, not copied.
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WORKLOADS" for t in node.targets
        ):
            workloads = ast.literal_eval(node.value)
            return sorted({item for items in workloads.values() for item in items})
    raise AssertionError("WORKLOADS not found in perfbench/run.py")


class _Reached(Exception):
    pass


def _reached(*args):
    raise _Reached


@pytest.mark.parametrize("item", _perfbench_items())
def test_perfbench_items_parse_and_read_every_flag(monkeypatch, item):
    argv = item.split() + ["--no-timing"]
    args = parse_args(argv)
    assert vars(args) == vars(reference_parser().parse_args(argv))
    # verify and specialize check their flags after parsing; stub out the
    # work behind the checks and require that it is reached.
    if args.command == "verify":
        monkeypatch.setitem(CHECKS, args.check, (_reached, CHECKS[args.check][1]))
    elif args.command == "specialize":
        flag, single, _ = SPECIALIZATIONS[args.kind]
        monkeypatch.setitem(SPECIALIZATIONS, args.kind, (flag, single, _reached))
    else:
        return
    with pytest.raises(_Reached):
        main(argv)


PERFBENCH_GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())


@pytest.mark.parametrize("item", _perfbench_items())
def test_perfbench_item_matches_its_golden_hash(capsys, item):
    # The benchmark checks the same hash on every run; a byte change fails here first.
    code, out, _ = run(capsys, *item.split(), "--no-timing")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PERFBENCH_GOLDEN[item]


def test_cap_exceeded_exits_2(capsys):
    code, _, err = run(
        capsys, "compute", "--n", "3,3", "--r", "3,3", "--max-elements", "100"
    )
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("compute", "--n", "1", "--r", "2", "--max-chains", "10"), "chain enumeration exceeds cap 10"),
        (("verify", "order-complex", "--n", "1,1", "--r", "1,1"), "2^14 subsets exceed the cap 4096"),
        (
            ("expand", "--n", "1", "--r", "1", "--max-degree", "0", "--max-chains", "0"),
            "multichain enumeration exceeds cap 0 up to degree 0",
        ),
        (
            ("specialize", "--kind", "classical-igusa", "--r", "3", "--max-chains", "7"),
            "chain enumeration exceeds cap 7",
        ),
        (
            ("specialize", "--kind", "generalized-igusa", "--r", "1,1", "--max-chains", "2"),
            "chain enumeration exceeds cap 2",
        ),
        (
            ("specialize", "--kind", "mv-hls", "--n", "2", "--max-chains", "2"),
            "chain enumeration exceeds cap 2",
        ),
        (
            ("specialize", "--kind", "weak-order-igusa", "--g", "2", "--max-chains", "5"),
            "chain enumeration exceeds cap 5",
        ),
        (
            ("verify", "relation", "--n", "1", "--r", "2", "--max-chains", "3"),
            "chain enumeration exceeds cap 3",
        ),
        (
            ("verify", "relation", "--n", "1", "--r", "2", "--max-elements", "3"),
            "poset has 6 elements, cap is 3",
        ),
        (
            ("verify", "order-complex", "--n", "1", "--r", "2", "--max-chains", "3"),
            "chain enumeration exceeds cap 3",
        ),
        (
            ("verify", "order-complex", "--n", "1", "--r", "2", "--max-elements", "3"),
            "poset has 6 elements, cap is 3",
        ),
        (
            ("verify", "zeta-mobius", "--n", "17", "--r", "3", "--max-elements", "10"),
            "poset has 524288 elements, cap is 10",
        ),
        (
            ("verify", "zeta-mobius", "--n", "8", "--r", "3"),
            "1007256 triples i <= k <= j exceed the cap 1000000 (counted 85 of 1024 rows)",
        ),
        (
            ("compute", "--n", "2", "--r", "2", "--max-terms", "3239"),
            "term cap 3239 exceeded at element 9 of 11",
        ),
        (
            ("compute", "--n", "2", "--r", "2", "--modified", "--max-terms", "3239"),
            "term cap 3239 exceeded at element 9 of 10",
        ),
        (
            ("expand", "--n", "1", "--r", "1", "--max-degree", "2", "--method", "rational",
             "--max-terms", "2"),
            "term cap 2 exceeded at element 1 of 3",
        ),
        (
            ("specialize", "--kind", "classical-igusa", "--r", "3", "--max-terms", "5"),
            "term cap 5 exceeded at element 2 of 3",
        ),
        (
            ("verify", "reciprocity", "--n", "1", "--r", "2", "--max-terms", "17"),
            "term cap 17 exceeded at element 3 of 5",
        ),
        (
            ("verify", "relation", "--n", "1", "--r", "2", "--max-terms", "17"),
            "term cap 17 exceeded at element 3 of 5",
        ),
        (
            ("verify", "zeta-mobius", "--n", "16", "--r", "3"),
            "1048576 triples i <= k <= j exceed the cap 1000000 (counted 3 of 262144 rows)",
        ),
        (
            ("verify", "zeta-mobius", "--n", "0", "--r", "262143"),
            "1572856 triples i <= k <= j exceed the cap 1000000 (counted 3 of 262144 rows)",
        ),
    ],
)
def test_cap_hit_is_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--no-timing")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# A part of 3,000 digits: 10^3000 elements a component, and no count of them in decimal.
HUGE_R = "9" * 3000


def _huge_shapes():
    # Every command that reads --max-elements, at a shape of 2,000,000 and at
    # shapes of one and two parts HUGE_R.
    for shape in (
        ("--n", "2000000", "--r", "1"),
        ("--n", "0", "--r", HUGE_R),
        ("--n", "0,0", "--r", f"{HUGE_R},{HUGE_R}"),
    ):
        yield "compute", *shape
        yield "compute", "--modified", *shape
        for method in ("multichain", "rational"):
            yield "expand", "--max-degree", "2", "--method", method, *shape
        for fmt in ("dot", "json"):
            yield "hasse", "--format", fmt, *shape
        for check in CHECKS:
            yield "verify", check, *shape
    for kind, (flag, single, _) in SPECIALIZATIONS.items():
        yield "specialize", "--kind", kind, flag, "2000000"
        if flag == "--r":
            yield "specialize", "--kind", kind, flag, HUGE_R if single else f"{HUGE_R},{HUGE_R}"


def _one_short_line(err):
    return err.count("\n") == 1 and err.endswith("\n") and len(err) < 200


@pytest.mark.parametrize(
    "argv", list(_huge_shapes()), ids=lambda argv: " ".join(argv).replace(HUGE_R, "R")
)
def test_element_cap_on_a_huge_shape_is_one_short_line(capsys, argv):
    # The cap is checked before any work that grows with the shape, and a
    # count of 2^2000000 or 10^6000 elements is not printed in decimal.
    code, out, err = run(capsys, *argv, "--no-timing")
    assert (code, out) == (2, "")
    assert err.startswith("error: poset has ") and _one_short_line(err)


def test_multichain_cap_on_a_huge_degree_is_one_short_line(capsys):
    # A degree of 4,000 digits parses, and it is not printed in decimal.
    argv = ("expand", "--n", "3", "--r", "3", "--max-degree", "9" * 4000, "--no-timing")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: multichain enumeration exceeds cap 10000000 up to degree over 2^13287\n"
    assert _one_short_line(err)


# Values of 5,000 characters: past Python's 4,300-digit limit for int(), and
# no usage error quotes them whole.
LONG = "9" * 5000


@pytest.mark.parametrize(
    "argv, digits",
    [
        (("compute", "--n", "1", "--r", LONG), True),
        (("compute", "--n", "1", "--r", "1", "--max-chains", LONG), True),
        (("expand", "--n", "1", "--r", "1", "--max-degree", LONG), True),
        (("compute", "--n", "1", "--r", "1", "--format", LONG), False),
        (("project", "--n", "1", "--r", "1", "--chain", "a" * 5000), False),
        (("project", "--n", "1", "--r", "1", "--chain", "9" * 4000), False),
    ],
    ids=["r", "max-chains", "max-degree", "format", "chain", "chain-entry"],
)
def test_a_long_bad_value_is_one_short_line(capsys, argv, digits):
    code, out, err = run(capsys, *argv, "--no-timing")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and _one_short_line(err)
    # An integer int() refuses for its length is not called malformed.
    assert (f"at most {sys.get_int_max_str_digits()} digits" in err) == digits


def test_term_cap_at_the_exact_peak_exits_0(capsys):
    # 3,240 live terms after element 9 of 11 is the peak of (2),(2).
    argv = ("compute", "--n", "2", "--r", "2", "--no-timing")
    code, out, err = run(capsys, *argv, "--max-terms", "3240")
    assert (code, err) == (0, "")
    assert out == run(capsys, *argv)[1]


@pytest.mark.parametrize(
    "error, cause",
    [
        (MemoryError(), ""),
        # CPython may raise this in place of MemoryError near an address-space limit.
        (
            SystemError("error return without exception set"),
            " (SystemError('error return without exception set'))",
        ),
    ],
)
def test_out_of_memory_exits_2_with_one_line(capsys, monkeypatch, error, cause):
    import hlskit.cli as cli

    def exhausted(*args):
        raise error

    monkeypatch.setattr(cli, "hls", exhausted)
    code, out, err = run(capsys, "compute", "--n", "1", "--r", "1", "--no-timing")
    assert code == 2
    assert out == ""
    assert err == f"error: out of memory{cause}; lower a resource cap or use a smaller spec\n"


def test_expand_dual_method_identical(capsys):
    _, direct, _ = run(capsys, "expand", "--n", "1", "--r", "1", "--max-degree", "3")
    _, rational, _ = run(
        capsys, "expand", "--n", "1", "--r", "1", "--max-degree", "3",
        "--method", "rational",
    )
    assert direct == rational
    assert direct.splitlines()[0] == "1 : 1"


def test_expand_multichain_cap_at_the_count(capsys, monkeypatch):
    # The count includes the empty multichain, so the cap at the count
    # passes, and one below it stops, before any pair weight.
    import hlskit.series as series

    count = sum(1 for _ in enumerate_multichains(PosetSpec((2,), (1,)), "half_open", 4))
    argv = ("expand", "--n", "2", "--r", "1", "--max-degree", "4", "--no-timing")
    _, full, _ = run(capsys, *argv)
    assert run(capsys, *argv, "--max-chains", str(count)) == (0, full, "")

    def unreachable(*args):
        raise AssertionError("a pair weight was computed past the cap")

    monkeypatch.setattr(series, "pair_weight", unreachable)
    assert run(capsys, *argv, "--max-chains", str(count - 1)) == (
        2,
        "",
        f"error: multichain enumeration exceeds cap {count - 1} up to degree 4\n",
    )


def test_expand_json(capsys):
    code, out, _ = run(
        capsys, "expand", "--n", "1", "--r", "1", "--max-degree", "1",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["max_degree"] == 1
    assert data["coefficients"][0] == {"monomial": {}, "coefficient": "1"}
    assert all(row["coefficient"] == "1" for row in data["coefficients"])


def test_project_text_matches_reference_tableau(capsys):
    code, out, _ = run(
        capsys, "project", "--n", "5", "--r", "2",
        "--chain", "2 < 2 5 < 0 3 < 0 1 < 0^2 < 0^2 5 < 0^2 2 3",
    )
    assert code == 0
    assert out == (
        "component 1:\n"
        "0 0 0 0 0 2 2\n"
        "0 0 0 1 3 5\n"
        "2 5\n"
        "3\n"
    )


def test_project_json(capsys):
    code, out, _ = run(
        capsys, "project", "--n", "5", "--r", "2",
        "--chain", "2 < 2 5 < 0 3 < 0 1 < 0^2 < 0^2 5 < 0^2 2 3",
        "--format", "json",
    )
    data = json.loads(out)
    assert data["tableaux"][0]["lambda"] == [7, 6, 2, 1]
    assert data["tableaux"][0]["mu"] == [5, 3]


def test_project_bad_chain_exits_1(capsys):
    code, _, err = run(
        capsys, "project", "--n", "2", "--r", "2", "--chain", "0 1 < 1"
    )
    assert code == 1
    assert err == (
        "error: bad chain literal '0 1 < 1': elements do not form a multichain in the tableau order\n"
    )


def test_hasse_dot_matches_golden(capsys):
    code, out, _ = run(capsys, "hasse", "--n", "2", "--r", "2")
    assert code == 0
    assert out == (GOLDEN / "hasse_n2_r2.dot").read_text()
    assert out.count("->") == 13


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_hasse_default_cap_one_above(capsys, fmt):
    # (0),(65536) is a chain of 65,537 elements, one more than the default.
    code, out, err = run(capsys, "hasse", "--n", "0", "--r", "65536", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "error: poset has 65537 elements, cap is 65536\n"


def test_hasse_default_cap_at_and_above_a_lowered_default(capsys, monkeypatch):
    # A spec of exactly the default's size runs; one element more stops.
    import hlskit.poset as poset

    monkeypatch.setattr(poset, "DEFAULT_MAX_HASSE_ELEMENTS", 12)
    code, out, err = run(capsys, "hasse", "--n", "2", "--r", "2")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "hasse_n2_r2.dot").read_text()
    code, out, _ = run(capsys, "hasse", "--n", "2", "--r", "2", "--format", "json")
    assert code == 0 and len(json.loads(out)["nodes"]) == 12
    monkeypatch.setattr(poset, "DEFAULT_MAX_HASSE_ELEMENTS", 11)
    for fmt in ("dot", "json"):
        code, out, err = run(capsys, "hasse", "--n", "2", "--r", "2", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == "error: poset has 12 elements, cap is 11\n"


def test_hasse_json(capsys):
    code, out, _ = run(capsys, "hasse", "--n", "2", "--r", "2", "--format", "json")
    data = json.loads(out)
    assert len(data["nodes"]) == 12
    assert len(data["edges"]) == 13
    assert data["vectors"][0] == [[0, 0, 0]]
    code, out, _ = run(capsys, "hasse", "--n", "1", "--r", "1", "--format", "json")
    assert json.loads(out)["vectors"] == [[[0, 0]], [[1, 0]], [[0, 1]], [[1, 1]]]


def test_specialize_classical(capsys):
    code, out, _ = run(
        capsys, "specialize", "--kind", "classical-igusa", "--r", "2", "--no-timing"
    )
    assert code == 0
    assert out.splitlines()[0] == "numerator = 1 + Y[1,0]*X{0}"


def test_specialize_weak_order(capsys):
    code, out, _ = run(
        capsys, "specialize", "--kind", "weak-order-igusa", "--g", "2", "--no-timing"
    )
    assert code == 0
    assert "chains = 6" in out


def test_specialize_requires_parameters(capsys):
    assert run(capsys, "specialize", "--kind", "mv-hls")[0] == 1
    assert run(capsys, "specialize", "--kind", "weak-order-igusa")[0] == 1
    for argv in (
        ("--kind", "weak-order-igusa", "--g", "0"),
        ("--kind", "classical-igusa", "--r", "-1"),
        ("--kind", "mv-hls", "--n", "-1"),
    ):
        code, out, err = run(capsys, "specialize", *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_verify_reciprocity_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "reciprocity", "--n", "1", "--r", "2", "--no-timing"
    )
    assert code == 0
    data = json.loads(out)
    assert data == {"check": "reciprocity", "spec": {"n": [1], "r": [2]}, "pass": True}


@pytest.mark.parametrize("extra", [(), ("--max-elements", "0"), ("--modified", "--max-chains", "0")])
def test_verify_reciprocity_vacuous(capsys, extra):
    code, out, _ = run(
        capsys, "verify", "reciprocity", "--n", "0", "--r", "0", "--no-timing", *extra
    )
    assert code == 0
    assert json.loads(out)["pass"] == "vacuous"


def test_verify_zeta_mobius(capsys):
    code, out, _ = run(
        capsys, "verify", "zeta-mobius", "--n", "2", "--r", "1", "--no-timing"
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


# Each command, the module whose pair function it reads, that function's
# name, and where its arguments hold the pair.
PAIR_FUNCTIONS = [
    (("verify", "zeta-mobius", "--n", "2", "--r", "2"), verify, "pair_weight", slice(0, 2)),
    (("compute", "--n", "2", "--r", "2"), series, "pair_weight", slice(0, 2)),
    (("compute", "--n", "2", "--r", "2", "--modified"), series, "pair_weight", slice(0, 2)),
    (("expand", "--n", "2", "--r", "2", "--max-degree", "3"), series, "pair_weight", slice(0, 2)),
    (("expand", "--n", "2", "--r", "2", "--max-degree", "1"), series, "pair_weight", slice(0, 2)),
    (("verify", "order-complex", "--n", "2", "--r", "2"), verify, "pair_weight", slice(0, 2)),
    (
        ("specialize", "--kind", "classical-igusa", "--r", "4"),
        series,
        "_zero_count_pair",
        slice(0, 2),
    ),
]


@pytest.mark.parametrize(
    "argv, module, name, pair", PAIR_FUNCTIONS, ids=[" ".join(p[0]) for p in PAIR_FUNCTIONS]
)
def test_each_pair_weight_is_computed_once(capsys, monkeypatch, argv, module, name, pair):
    from hlskit.poset import leq_t

    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args[pair])
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    code, out, _ = run(capsys, *argv, "--no-timing")
    assert code == 0 and out
    assert calls and len(set(calls)) == len(calls)
    assert all(leq_t(a, b) for a, b in calls)
    if argv[:2] == ("verify", "zeta-mobius"):
        assert json.loads(out)["pass"] is True
        elements = enumerate_elements(PosetSpec((2,), (2,)))
        comparable = [(a, b) for a in elements for b in elements if leq_t(a, b)]
        assert sorted(calls) == sorted(comparable)


def test_verify_zeta_mobius_reports_first_mismatch(capsys, monkeypatch):
    # No true instance fails, so perturb one Moebius entry: adding 1 at
    # (bottom, b) changes only the product entry (bottom, b) of zeta * mobius.
    # The entry is perturbed on its packed keys, where the run reads it.
    import hlskit.cli as cli
    from hlskit.verify import mobius_rows

    def broken(zeta):
        m = mobius_rows(zeta)
        terms = dict(m.rows[0][1])
        terms[0] = terms.get(0, 0) + 1
        m.rows[0][1] = {key: c for key, c in terms.items() if c}
        return m

    monkeypatch.setattr(cli, "mobius_rows", broken)
    code, out, _ = run(
        capsys, "verify", "zeta-mobius", "--n", "1", "--r", "1", "--no-timing"
    )
    assert code == 3
    data = json.loads(out)
    assert data["pass"] is False
    assert data["counterexample"] == {"row": "-", "column": "0", "entry": "1"}


def test_verify_zeta_mobius_with_a_flipped_mobius_sign_exits_3(capsys, monkeypatch):
    # Flip the sign of the closed form at the cover (bottom, 0) only: the
    # product entry there, mu(bottom, 0) + zeta(bottom, 0), is then twice
    # zeta(bottom, 0), which is Y[1,1].
    from hlskit._packed import PairWeights

    spec = PosetSpec((1,), (1,))
    bottom, first = enumerate_elements(spec)[:2]
    factor = PairWeights.mobius_factor

    def flipped(self, a, b):
        delta, sign = factor(self, a, b)
        return delta, -sign if (a, b) == (bottom, first) else sign

    monkeypatch.setattr(PairWeights, "mobius_factor", flipped)
    code, out, _ = run(capsys, "verify", "zeta-mobius", "--n", "1", "--r", "1", "--no-timing")
    assert code == 3
    assert json.loads(out)["counterexample"] == {"row": "-", "column": "0", "entry": "2*Y[1,1]"}


@pytest.mark.parametrize(
    "argv, target",
    [
        (("verify", "zeta-mobius", "--n", "1", "--r", "2"), "verify"),
        (("verify", "order-complex", "--n", "1", "--r", "2"), "verify"),
        (("expand", "--n", "1", "--r", "2", "--max-degree", "2"), "series"),
        (("compute", "--n", "1", "--r", "2"), "series"),
        (("specialize", "--kind", "classical-igusa", "--r", "2"), "series._zero_count_pair"),
    ],
)
def test_a_pair_weight_past_delta_exits_1_with_one_line(capsys, monkeypatch, argv, target):
    # ``target`` is the module, and the pair weight in it if not ``pair_weight``,
    # whose every value is multiplied by Y[1,0]^2.
    import importlib

    from hlskit.exactalg import LaurentPoly

    module, _, name = target.partition(".")
    module = importlib.import_module(f"hlskit.{module}")
    name = name or "pair_weight"
    right = getattr(module, name)

    def wrong(*args):
        w = right(*args)
        return w * LaurentPoly.variable(w.table, w.table.id("Y[1,0]"), 2)

    monkeypatch.setattr(module, name, wrong)
    code, out, err = run(capsys, *argv, "--no-timing")
    assert (code, out) == (1, "")
    assert err.startswith("error: the weight of (") and "past δ" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, target, element",
    [
        # The sweep packs one diagonal pair, the top's, in its unswept row.
        (("compute", "--n", "1", "--r", "2"), "series", "0^2 1"),
        (
            ("expand", "--n", "1", "--r", "2", "--max-degree", "2", "--method", "multichain"),
            "series",
            "0",
        ),
        (("verify", "zeta-mobius", "--n", "1", "--r", "2"), "verify", "-"),
        (("specialize", "--kind", "classical-igusa", "--r", "2"), "series._zero_count_pair", "0^2"),
    ],
)
def test_a_pair_weight_other_than_1_on_the_diagonal_exits_1_with_one_line(
    capsys, monkeypatch, argv, target, element
):
    # ``target`` is as above.  Its pair weight is doubled on every pair (e, e),
    # and the first such pair the command reads is (element, element).
    import importlib

    module, _, name = target.partition(".")
    module = importlib.import_module(f"hlskit.{module}")
    name = name or "pair_weight"
    right = getattr(module, name)

    def wrong(a, b, *rest):
        w = right(a, b, *rest)
        return w + w if a == b else w

    monkeypatch.setattr(module, name, wrong)
    code, out, err = run(capsys, *argv, "--no-timing")
    assert (code, out) == (1, "")
    assert err == f"error: the weight of ({element}, {element}) is not 1\n"


def _run_under_1_gib(*argv):
    """The CLI in a child process whose address space alone is capped at 1 GiB."""
    import resource
    import subprocess

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(__file__).parent.parent / "src"
    code = "import sys; from hlskit.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=120, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


def test_a_huge_chain_route_stops_on_the_chain_cap_under_1_gib():
    # (16),(0) has 65,536 elements, under the element cap, and far more
    # chains than the chain cap.  Its strict-above lists would not fit in
    # 1 GiB, so the count must stop at the cap before any of them is built.
    done = _run_under_1_gib("compute", "--n", "16", "--r", "0", "--stats-only")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: chain enumeration exceeds cap 10000000\n"


def test_a_huge_multichain_expansion_stops_on_the_cap_under_1_gib():
    # (14),(1) has 32,768 elements; the multichain count, as the chain
    # count, stops at the cap before any strict-above list is built.
    argv = ("expand", "--n", "14", "--r", "1", "--max-degree", "2", "--max-chains", "100000")
    done = _run_under_1_gib(*argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: multichain enumeration exceeds cap 100000 up to degree 2\n"


def test_verify_order_complex_with_a_wrong_k_exits_3(capsys, monkeypatch):
    import hlskit.verify as verify
    from hlskit.exactalg import LaurentPoly

    def k_times_y(spec, table=None, yvars=None):
        k, n_value = K_and_N(spec, table, yvars)
        return k * LaurentPoly.variable(k.table, yvars[0][0]), n_value

    K_and_N = verify.K_and_N
    monkeypatch.setattr(verify, "K_and_N", k_times_y)
    code, out, _ = run(capsys, "verify", "order-complex", "--n", "2", "--r", "1", "--no-timing")
    assert code == 3
    data = json.loads(out)
    assert data["pass"] is False and len(data["counterexample"]) == 8


def test_verify_order_complex(capsys):
    code, out, _ = run(
        capsys, "verify", "order-complex", "--n", "1", "--r", "1", "--no-timing"
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_relation(capsys):
    code, out, _ = run(
        capsys, "verify", "relation", "--n", "1", "--r", "2", "--no-timing"
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_includes_millis_unless_suppressed(capsys):
    _, out, _ = run(capsys, "verify", "relation", "--n", "1", "--r", "1")
    assert "millis" in json.loads(out)


def test_verify_failure_exits_3(capsys, monkeypatch):
    # No true instance fails, so a wrong K, times Y[1,1], drives a real
    # failure through the check, to pin the exit code and the counterexample:
    # the first numerator term in print order and its expected partner.
    import hlskit.verify as verify
    from hlskit.exactalg import LaurentPoly

    def k_times_y(spec, table=None, yvars=None):
        k, n_value = K_and_N(spec, table, yvars)
        return k * LaurentPoly.variable(k.table, yvars[0][1]), n_value

    K_and_N = verify.K_and_N
    monkeypatch.setattr(verify, "K_and_N", k_times_y)
    for modified in ((), ("--modified",)):
        argv = ("verify", "reciprocity", "--n", "1", "--r", "2", "--no-timing", *modified)
        code, out, _ = run(capsys, *argv)
        assert code == 3
        data = json.loads(out)
        assert data["pass"] is False
        assert data["counterexample"] == {
            "term": "1",
            "expected": "Y[1,0]*Y[1,1]^3*X{0}*X{0^2}*X{1}*X{0 1}",
        }


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.txt"
    code, out, _ = run(
        capsys, "compute", "--n", "1", "--r", "2", "--no-timing",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == (GOLDEN / "compute_n1_r2.txt").read_text()



def test_expand_empty_interval_stops_at_once(capsys):
    # (0),(0) has no element in its half-open interval, so the multichain
    # walk ends after the empty multichain whatever the degree bound.
    argv = ("expand", "--n", "0", "--r", "0", "--max-degree", "100000000000", "--no-timing")
    rational = run(capsys, *argv, "--method", "rational")
    assert rational[0] == 0 and rational[1].splitlines()[0] == "1 : 1"
    assert run(capsys, *argv) == rational


@pytest.mark.parametrize("kind", ["missing", "directory", "long"])
def test_unwritable_output_exits_1_with_one_line(capsys, tmp_path, kind):
    target = {"missing": tmp_path / "no" / "x", "directory": tmp_path}.get(kind, "a" * 5000)
    code, out, err = run(
        capsys, "compute", "--n", "1", "--r", "1", "--no-timing", "--output", str(target)
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {quoted(str(target))}: ")
    assert _one_short_line(err) and "Traceback" not in err


def test_failed_stdout_write_exits_1_with_one_line(capsys, monkeypatch):
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", Full())
    code = main(["compute", "--n", "1", "--r", "1", "--no-timing"])
    assert (code, capsys.readouterr().err) == (
        1, f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
    )


# One argv per command, giving every flag it takes a value other than its default.
EVERY_FLAG = [
    "compute --n 1 --r 2 --max-elements 9 --max-chains 9 --max-terms 9 --no-timing --output o"
    " --modified --format json --stats-only",
    "expand --n 1 --r 2 --max-elements 9 --max-chains 9 --max-terms 9 --no-timing --output o"
    " --max-degree 3 --method rational --format json",
    "project --n 1 --r 2 --no-timing --output o --chain 0 --format json",
    "hasse --n 1 --r 2 --max-elements 9 --no-timing --output o --format json",
    "specialize --n 1 --r 2 --max-elements 9 --max-chains 9 --max-terms 9 --no-timing --output o"
    " --kind mv-hls --g 2 --format json --stats-only",
    "verify zeta-mobius --n 1 --r 2 --max-elements 9 --max-chains 9 --max-terms 9 --no-timing"
    " --output o --modified --max-subsets 9 --max-products 9",
]


@pytest.mark.parametrize("argv", [item.split() for item in EVERY_FLAG], ids=lambda a: a[0])
def test_the_one_command_parser_parses_as_the_full_parser(argv):
    # The table parser gives the namespace of the argparse parser built from
    # the same table, and EVERY_FLAG gives every flag of the table a value.
    args = parse_args(argv)
    assert vars(args) == vars(reference_parser().parse_args(argv))
    assert all(value is not None and value is not False for value in vars(args).values())
    _, _, _, flags = COMMANDS[argv[0]]
    for flag, kind in flags.items():
        assert flag in argv
        if isinstance(kind, tuple):
            assert getattr(args, flag[2:].replace("-", "_")) != kind[0]


def _outcome(capsys, parse, argv):
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors_and_help_read_as_from_the_full_parser(capsys):
    assert _outcome(capsys, main, []) == (
        1, "", "error: the following arguments are required: command\n"
    )
    code, out, err = _outcome(capsys, main, ["bogus"])
    assert (code, out) == (1, "")
    assert err.startswith("error: argument command: invalid choice: ") and err.count("\n") == 1
    assert all(name in err for name in ("compute", "expand", "project", "hasse", "specialize", "verify"))
    for argv in (["--help"], ["-h"]):
        code, out, err = _outcome(capsys, main, argv)
        assert (code, err) == (0, "") and out.startswith("usage: hlskit {")
        assert all(f"  {name}  " in out for name in COMMANDS)
        assert _outcome(capsys, reference_parser().parse_args, argv)[0] == 0
    # Help after a command, wherever it stands and whatever follows it,
    # lists the command's flags and choices from the table.
    for name, (_, help_line, required, flags) in COMMANDS.items():
        for argv in ([name, "--help"], [name, "--n", "1", "-h", "--bogus"]):
            code, out, err = _outcome(capsys, main, argv)
            assert (code, err) == (0, "") and out.startswith(f"usage: hlskit {name} ")
            assert help_line in out
            for arg, kind in {**required, **flags}.items():
                assert arg in out or not arg.startswith("-")
                if isinstance(kind, tuple):
                    assert "{" + ",".join(kind) + "}" in out
        assert _outcome(capsys, reference_parser().parse_args, [name, "--help"])[0] == 0

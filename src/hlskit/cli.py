"""Command-line front end.

One command per process; output is assembled once and written at the end,
so identical invocations produce identical bytes.  Timing is only emitted
unless --no-timing is given, which is what the golden tests use.

Exit codes: 0 success, 1 usage error, 2 resource cap exceeded or out of
memory, 3 verification failure.
"""

from __future__ import annotations

import json
import sys
import time

from ._argv import UsageError, int_list, integer, nonnegative_int, parse, quoted, usage
from .exactalg import _power_text
from .poset import (
    CapExceededError,
    DegenerateSpecError,
    PosetSpec,
    hasse,
    hasse_dot,
    parse_chain,
    render_element,
)
from .series import (
    HlsRational,
    classical_igusa,
    expand_multichain,
    expand_rational,
    generalized_igusa,
    hls,
    hls_modified,
    mv_hls,
    relation_check,
    weak_order_igusa,
)
from .verify import (
    mobius_rows,
    rows_mismatch,
    verify_order_complex,
    verify_reciprocity,
    zeta_rows,
)
from .weight import project

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_VERIFY = 3


def _spec_from(args) -> PosetSpec:
    if args.n is None or args.r is None:
        raise UsageError("--n and --r are required")
    return PosetSpec(int_list(args.n), int_list(args.r))


def _spec_json(spec: PosetSpec | None) -> dict | None:
    if spec is None:
        return None
    return {"n": list(spec.n), "r": list(spec.r)}


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_series(args, value: HlsRational, millis: int | None) -> None:
    stats = {
        "terms": str(value.term_count),
        "denominator_factors": str(len(value.denominator_vars)),
        "chains": str(value.chain_count),
    }
    if millis is not None:
        stats["millis"] = str(millis)
    if args.format == "json":
        out: dict = {"spec": _spec_json(value.spec)}
        if not args.stats_only:
            out["numerator"] = value.numerator_text()
            out["denominator"] = list(value.denominator_names)
        out["stats"] = stats
        _emit(args, json.dumps(out, indent=2) + "\n")
    else:
        lines = []
        if not args.stats_only:
            lines.append(f"numerator = {value.numerator_text()}")
            lines.append(f"denominator = {value.denominator_text()}")
        lines.extend(f"{key} = {val}" for key, val in stats.items())
        _emit(args, "\n".join(lines) + "\n")


def cmd_compute(args) -> int:
    spec = _spec_from(args)
    started = time.perf_counter()
    build = hls_modified if args.modified else hls
    value = build(spec, args.max_chains, args.max_elements, args.max_terms)
    millis = None if args.no_timing else int((time.perf_counter() - started) * 1000)
    _render_series(args, value, millis)
    return EXIT_OK


def cmd_expand(args) -> int:
    spec = _spec_from(args)
    if args.max_degree is None or args.max_degree < 0:
        raise UsageError("--max-degree is required and must be nonnegative")
    if args.method == "rational":
        value = hls(spec, args.max_chains, args.max_elements, args.max_terms)
        series = expand_rational(value, args.max_degree)
    else:
        _reject_unread(args, "expand --method multichain", ("--max-terms",), ())
        series = expand_multichain(spec, args.max_degree, args.max_chains, args.max_elements)
    names = [series.table.name(v) for v in series.x_vars]
    if args.format == "json":
        element_names = [name[2:-1] for name in names]
        rows = []
        for key, text in series.texts():
            mono = {element_names[pos]: e for pos, e in enumerate(key) if e}
            rows.append({"monomial": mono, "coefficient": text})
        payload = {
            "spec": _spec_json(spec),
            "max_degree": args.max_degree,
            "coefficients": rows,
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        # Each position's power texts, built once; the lines hold no other list.
        powers = [[_power_text(name, e) for e in range(series.bound + 1)] for name in names]
        lines = [
            f"{'*'.join([row[e] for row, e in zip(powers, key) if e]) or '1'} : {text}"
            for key, text in series.texts()
        ]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_project(args) -> int:
    spec = _spec_from(args)
    if not args.chain:
        raise UsageError("--chain is required")
    try:
        chain = parse_chain(args.chain, spec)
    except ValueError as exc:
        raise UsageError(f"bad chain literal {quoted(args.chain)}: {exc}")
    bottom = spec.bottom()
    if any(e == bottom for e in chain):
        raise UsageError("chain elements must lie strictly above the bottom")
    tableaux = [project(chain, i, spec) for i in range(spec.g)]
    if args.format == "json":
        payload = {
            "spec": _spec_json(spec),
            "tableaux": [t.to_json() for t in tableaux],
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        blocks = []
        for i, t in enumerate(tableaux):
            blocks.append(f"component {i + 1}:")
            blocks.append(t.pretty())
        _emit(args, "\n".join(blocks) + "\n")
    return EXIT_OK


def cmd_hasse(args) -> int:
    spec = _spec_from(args)
    if args.format == "json":
        elements, names, covers = hasse(spec, args.max_elements)
        payload = {
            "spec": _spec_json(spec),
            "nodes": names,
            "edges": [[names[i], names[j]] for i, j in covers],
            "vectors": [[list(a) for a in e] for e in elements],
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(args, hasse_dot(spec, args.max_elements))
    return EXIT_OK


def _reject_unread(args, name: str, flags, reads) -> None:
    """Usage error for the first of ``flags`` that is given but not in ``reads``."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if flag not in reads and value is not None and value is not False:
            raise UsageError(f"{name} does not read {flag}")


# Each kind: the one shape flag it reads, whether that flag takes a single
# value, and its builder.  The lambdas look the builders up when called, so
# rebinding a module name (a test double, a tracer) takes effect.
SPECIALIZATIONS = {
    "classical-igusa": ("--r", True, lambda r, *caps: classical_igusa(r, *caps)),
    "generalized-igusa": ("--r", False, lambda r, *caps: generalized_igusa(r, *caps)),
    "mv-hls": ("--n", True, lambda n, *caps: mv_hls(n, *caps)),
    "weak-order-igusa": ("--g", True, lambda g, *caps: weak_order_igusa(g, *caps)),
}


def cmd_specialize(args) -> int:
    started = time.perf_counter()
    flag, single, build = SPECIALIZATIONS[args.kind]
    name = flag[2:]
    if getattr(args, name) is None:
        shape = name.upper() if single else f"{name.upper()}1,{name.upper()}2,..."
        raise UsageError(f"{args.kind} needs {flag} {shape}")
    parts = int_list(getattr(args, name))
    if single and len(parts) != 1:
        raise UsageError(f"{args.kind} takes a single {name}")
    shapes = {shape for shape, _, _ in SPECIALIZATIONS.values()}
    *_, flags = COMMANDS["specialize"]
    unread = [f for f in flags if f in shapes]
    _reject_unread(args, args.kind, unread, (flag,))
    caps = (args.max_chains, args.max_elements, args.max_terms)
    value = build(parts[0] if single else parts, *caps)
    millis = None if args.no_timing else int((time.perf_counter() - started) * 1000)
    _render_series(args, value, millis)
    return EXIT_OK


def _reciprocity(spec, args):
    kind = "hls_modified" if args.modified else "hls"
    cert = verify_reciprocity(spec, kind, args.max_chains, args.max_elements, args.max_terms)
    if cert.equal:
        return True, None
    return False, {"term": cert.term, "expected": cert.expected}


def _order_complex(spec, args):
    report = verify_order_complex(spec, args.max_subsets, args.max_chains, args.max_elements)
    return report.passed, list(report.failures[:8]) or None


def _zeta_mobius(spec, args):
    zeta = zeta_rows(spec, max_elements=args.max_elements, max_products=args.max_products)
    product = zeta.times(mobius_rows(zeta))
    mismatch = rows_mismatch(product.rows)
    if mismatch is None:
        return True, None
    i, j = mismatch
    return False, {
        "row": render_element(product.labels[i]),
        "column": render_element(product.labels[j]),
        "entry": product.entry(i, j).text(),
    }


def _relation(spec, args):
    return relation_check(spec, args.max_chains, args.max_elements, args.max_terms), None


# Each check: its verdict, (passed, counterexample or None), and the flags
# it reads besides --n and --r.
CHECKS = {
    "reciprocity": (_reciprocity, ("--max-elements", "--max-chains", "--max-terms", "--modified")),
    "order-complex": (_order_complex, ("--max-elements", "--max-chains", "--max-subsets")),
    "zeta-mobius": (_zeta_mobius, ("--max-elements", "--max-products")),
    "relation": (_relation, ("--max-elements", "--max-chains", "--max-terms")),
}


def cmd_verify(args) -> int:
    spec = _spec_from(args)
    verdict, reads = CHECKS[args.check]
    *_, flags = COMMANDS["verify"]
    unread = [flag for flag in flags if flag not in _SHARED]
    _reject_unread(args, args.check, unread, reads)
    started = time.perf_counter()
    try:
        passed, counterexample = verdict(spec, args)
    except DegenerateSpecError:
        passed, counterexample = "vacuous", None
    payload = {"check": args.check, "spec": _spec_json(spec), "pass": passed}
    if counterexample is not None:
        payload["counterexample"] = counterexample
    if not args.no_timing:
        payload["millis"] = str(int((time.perf_counter() - started) * 1000))
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if passed is True or passed == "vacuous" else EXIT_VERIFY


# Flags of every command: the shape, and what is printed where.
_SHARED = {"--n": str, "--r": str, "--no-timing": bool, "--output": str}
_CAPS = ("--max-elements", "--max-chains", "--max-terms")
_FORMATS = ("text", "json")


def _flags(caps, own: dict) -> dict:
    return {**_SHARED, **dict.fromkeys(caps, nonnegative_int), **own}


# Every command and flag of the CLI.  Each command: its handler, its help
# line, its required arguments and its flags, as ``_argv`` reads them.
COMMANDS = {
    "compute": (
        cmd_compute, "numerator and denominator of the series", {},
        _flags(_CAPS, {"--modified": bool, "--format": _FORMATS, "--stats-only": bool}),
    ),
    "expand": (
        cmd_expand, "truncated multichain expansion", {},
        _flags(_CAPS, {
            "--max-degree": integer, "--method": ("multichain", "rational"), "--format": _FORMATS,
        }),
    ),
    "project": (
        cmd_project, "project a chain literal to skew tableaux", {},
        _flags((), {"--chain": str, "--format": _FORMATS}),
    ),
    "hasse": (
        cmd_hasse, "Hasse diagram export", {},
        _flags(("--max-elements",), {"--format": ("dot", "json")}),
    ),
    "specialize": (
        cmd_specialize, "classical and weak-order specializations",
        {"--kind": tuple(SPECIALIZATIONS)},
        _flags(_CAPS, {"--g": str, "--format": _FORMATS, "--stats-only": bool}),
    ),
    "verify": (
        cmd_verify, "machine-checked identities, JSON verdicts", {"check": tuple(CHECKS)},
        _flags(_CAPS, {
            "--max-subsets": nonnegative_int, "--max-products": nonnegative_int,
            "--modified": bool,
        }),
    ),
}


def parse_args(argv):
    """The namespace of one command line, read against ``COMMANDS`` by ``_argv.parse``."""
    return parse(argv, COMMANDS, _help)


def _help(args) -> int:
    """Print the usage of ``args.command``, or of every command if it is None."""
    print(usage(COMMANDS, args.command, __doc__))
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_args(argv)
        return args.fn(args)
    except (UsageError, ValueError) as exc:
        # Library ValueErrors are bad parameters that passed the parser.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (MemoryError, SystemError) as exc:
        # Near an address-space limit CPython may raise SystemError instead.
        cause = f" ({exc!r})" if isinstance(exc, SystemError) else ""
        advice = "lower a resource cap or use a smaller spec"
        print(f"error: out of memory{cause}; {advice}", file=sys.stderr)
        return EXIT_CAP
    except BrokenPipeError:
        return EXIT_OK
    except OSError as exc:
        target = "stdout" if exc.filename is None else quoted(exc.filename)
        print(f"error: cannot write {target}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

"""Deterministic command-line front end.

Reads a JSON template document (path or ``-`` for stdin), runs one
computation per subcommand and prints a JSON report on stdout.  All numbers
in reports are exact (rationals as ``p/q`` strings).  Exit codes: 0 success,
1 usage, parse or output failure (an ``--out`` file or stdout that cannot be
written), 2 semantic failure (invalid template, unmet precondition, failed
identity check, a number too long to write).
"""

from __future__ import annotations

import atexit
import os
import sys
from _json import encode_basestring_ascii
from types import SimpleNamespace

# Handlers import the modules only they use (invariants, cones, cohomology,
# render), so that a call loads what it runs and no more.
from .document import format_rational, load_template, parse_rational
from .errors import (
    DocumentError, NonorientableError, OrigamiError, ValidationError, written,
)
from .template import classify_surface, orient, validate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SEMANTIC = 2


def _refusal(message: str):
    """argparse's ArgumentTypeError for a refused option value.

    argparse is imported only here and in :func:`build_parser`, so that a
    plain argv that every converter accepts never loads it.
    """
    import argparse

    return argparse.ArgumentTypeError(message)


def _rational_point(text: str):
    try:
        return tuple(parse_rational(part, "--point") for part in text.split(","))
    except DocumentError as exc:
        raise _refusal(f"expected comma-separated rationals, got {text!r}") from exc


def _int_vector(text: str):
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise _refusal(f"expected comma-separated integers, got {text!r}") from exc


# the largest ``cohomology --max-degree``: the series holds one coefficient
# per degree, and this many take about 0.3 s
MAX_DEGREE = 100_000


def _even_int(text: str) -> int:
    value = int(text)
    if value < 0 or value % 2:
        raise _refusal("must be an even nonnegative integer")
    if value > MAX_DEGREE:
        raise _refusal(f"must be at most {MAX_DEGREE}")
    return value


# the largest ``cones --samples``: each sample is drawn and checked on its
# own, and this many take about 2 s
MAX_SAMPLES = 100_000


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise _refusal("must be positive")
    if value > MAX_SAMPLES:
        raise _refusal(f"must be at most {MAX_SAMPLES}")
    return value


# --- handlers ---------------------------------------------------------------
# ``main`` loads and validates the document; ``validate`` reports the check,
# every other handler gets the valid template and the parsed arguments.

def _cmd_validate(report):
    payload = {
        "valid": report.valid,
        "delzant_failures": [
            {"polytope": i, "message": m} for i, m in report.delzant_failures
        ],
        "agreement_failures": [
            {"fusion": i, "message": m} for i, m in report.agreement_failures
        ],
        "adjacency_failures": list(report.adjacency_failures),
        "connected": report.connected,
        "self_pairs": list(report.self_pairs),
    }
    return payload, EXIT_OK if report.valid else EXIT_SEMANTIC


def _cmd_orient(T, args):
    try:
        signs = orient(T)
    except NonorientableError as exc:
        witness = (
            {"single": exc.single}
            if exc.single is not None
            else {"odd_cycle": list(exc.odd_cycle)}
        )
        return {"orientable": False, "witness": witness}, EXIT_SEMANTIC
    return {"orientable": True, "orientation": list(signs)}, EXIT_OK


def _cmd_classify(T, args):
    result = classify_surface(T)
    return {
        "family": result.family,
        "fixed_points": result.fixed_points,
        "fold_components": result.fold_components,
    }, EXIT_OK


def _cmd_quantize(T, args):
    from .invariants import quantize

    result = quantize(T, points=args.points)
    payload = {"virtual_dimension": result.virtual_dimension}
    if args.points:
        # the point -> multiplicity dict; _dumps writes it as the points array
        payload["points"] = result.per_point
    return payload, EXIT_OK


def _cmd_dh(T, args):
    from .invariants import dh_density

    value = dh_density(T, args.point)
    return {
        "point": [format_rational(c) for c in value.point],
        "density": value.density,
        "generic": value.generic,
    }, EXIT_OK


def _cmd_volume(T, args):
    from .invariants import signed_volume

    return {"signed_volume": format_rational(signed_volume(T))}, EXIT_OK


def _cmd_cones(T, args):
    from .cones import verify_dh_identity

    report = verify_dh_identity(T, args.v, args.samples, args.seed)
    payload = {
        "v": list(report.v),
        "requested_samples": report.requested,
        "samples": report.samples,
        "agreements": report.agreements,
        "disagreements": report.disagreements,
        "boundary_discards": report.boundary_discards,
        "seed": args.seed,
        "success": report.success,
        "first_counterexample": None,
    }
    if report.first_counterexample is not None:
        point, cone_side, dh_side = report.first_counterexample
        payload["first_counterexample"] = {
            "point": [format_rational(c) for c in point],
            "cone_density": cone_side,
            "dh_density": dh_side,
        }
    return payload, EXIT_OK if report.success else EXIT_SEMANTIC


def _cmd_cohomology(T, args):
    from .cohomology import ht_poincare

    series = ht_poincare(T, args.max_degree)
    return {
        "max_degree": series.cap,
        "coefficients": list(series.coefficients),
    }, EXIT_OK


def _cmd_render(T, args):
    from .render import render_svg

    svg = render_svg(T, lattice=args.lattice)
    try:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(svg)
    except OSError as exc:
        error = {"kind": "io", "message": f"{args.out}: {exc}"}
        return {"error": error}, EXIT_USAGE
    return {"out": args.out, "bytes": len(svg.encode("utf-8"))}, EXIT_OK


# --- commands ---------------------------------------------------------------
# Each command once: name, help, handler and its options.  An option is
# (option string, dest, converter, default, required, help); a converter of
# None marks a flag, which stores True and defaults to False.  argparse
# (build_parser) and the plain-argv reader (_plain_args) both read this table.

COMMANDS = (
    ("validate", "check the template conditions", None, ()),
    ("orient", "orientation signs or a nonorientability witness", _cmd_orient, ()),
    ("classify", "surface family of a 1-dimensional template", _cmd_classify, ()),
    ("quantize", "signed lattice-point count", _cmd_quantize, (
        ("--points", "points", None, False, False, "include the per-point table"),
    )),
    ("dh", "Duistermaat-Heckman density at a point", _cmd_dh, (
        ("--point", "point", _rational_point, None, True, None),
    )),
    ("volume", "signed volume of the template", _cmd_volume, ()),
    ("cones", "check the weight-cone form of the DH density", _cmd_cones, (
        ("--v", "v", _int_vector, None, False,
         "polarizing vector (default: built-in generic choice)"),
        ("--samples", "samples", _positive_int, 200, False, None),
        ("--seed", "seed", int, 0, False, None),
    )),
    ("cohomology", "equivariant Poincare series coefficients", _cmd_cohomology, (
        ("--max-degree", "max_degree", _even_int, 20, False, None),
    )),
    ("render", "draw a 2-dimensional template as SVG", _cmd_render, (
        ("--out", "out", str, None, True, "output SVG path"),
        ("--lattice", "lattice", None, False, False,
         "mark signed lattice points (needs an orientable template)"),
    )),
)


def build_parser():
    """The argparse parser of :data:`COMMANDS`: help, usage and every error."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse with the documented usage-error exit code (1, not 2)."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    parser = _Parser(
        prog="toricorigami",
        description="origami templates of Delzant polytopes: validation, "
        "orientation, quantization, DH densities, weight cones, cohomology",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command_help, handler, options in COMMANDS:
        p = sub.add_parser(name, help=command_help)
        p.add_argument("file", help="template JSON document (or - for stdin)")
        p.set_defaults(handler=handler)
        for option, dest, convert, default, required, help_text in options:
            if convert is None:
                p.add_argument(option, dest=dest, action="store_true", help=help_text)
            else:
                p.add_argument(option, dest=dest, type=convert, default=default,
                               required=required, help=help_text)
    return parser


def _plain_args(argv):
    """What ``build_parser().parse_args(argv)`` returns for a plain argv, or None.

    A plain argv is ``<command> <file>`` and then exact option strings of
    that command, each at most once, each one that takes a value followed by
    a value that does not start with ``-``.  The file does not start with
    ``-`` unless it is ``-``, every required option is given and every
    converter accepts its value.  For anything else (help, abbreviations,
    ``--seed=5``, a negative value, a repeat, every error) this returns None
    and argparse reads the argv.  It never prints and never exits.
    """
    if len(argv) < 2 or not all(isinstance(word, str) for word in argv):
        return None
    command, file, *rest = argv
    if file.startswith("-") and file != "-":
        return None
    for name, _help, handler, options in COMMANDS:
        if name == command:
            break
    else:
        return None
    by_string = {option[0]: option for option in options}
    values = {}
    words = iter(rest)
    for word in words:
        option = by_string.get(word)
        if option is None or option[1] in values:
            return None
        _string, dest, convert = option[:3]
        if convert is None:
            values[dest] = True
            continue
        text = next(words, "-")  # a missing value declines like a dash
        if text.startswith("-"):
            return None
        try:
            values[dest] = convert(text)
        except Exception:
            # argparse runs the converter again; it reports a refusal and lets
            # any other error propagate, so nothing is hidden here
            return None
    args = SimpleNamespace(command=command, file=file, handler=handler)
    for _string, dest, _convert, default, required, _help in options:
        if dest not in values and required:
            return None
        setattr(args, dest, values.get(dest, default))
    return args


# --- entry ------------------------------------------------------------------

def _points_json(per_point: dict) -> str:
    """The points array as ``json.dumps(indent=2, sort_keys=True)`` nests it.

    Each ``{"multiplicity": m, "point": p}`` object comes from one
    %-template built for the dimension, not from a dict per point through
    the encoder, which is pure Python whenever ``indent`` is set.
    """
    if not per_point:
        return "[]"
    dim = len(next(iter(per_point)))
    item = (
        '    {\n      "multiplicity": %d,\n      "point": [\n'
        + ",\n".join(["        %d"] * dim)
        + "\n      ]\n    }"
    )
    return "[\n" + ",\n".join(
        item % (m, *p) for p, m in per_point.items()
    ) + "\n  ]"


def _encode(value, pad: str) -> str:
    """``value`` as ``json.dumps(indent=2, sort_keys=True)`` writes it under
    the indent ``pad``: a str, None, bool, int (whose repr raises the digit
    limit's ValueError), list, tuple or dict of str keys; else TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):  # encode_basestring_ascii refuses a non-str key
        brackets = "{}"
        items = [f"{encode_basestring_ascii(key)}: {_encode(item, inner)}"
                 for key, item in sorted(value.items())]
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        items = [_encode(item, inner) for item in value]
    else:
        raise TypeError(f"a report holds no {type(value).__name__}")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _dumps(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)``, by :func:`_encode`;
    a ``points`` entry is quantize's per-point dict, by ``_points_json``."""
    if "points" not in report:
        return _encode(report, "")
    rest = dict(report)
    points = _points_json(rest.pop("points"))
    # sorted keys: "points" is the last key before "virtual_dimension"; a
    # string value holds no raw newline, so the split finds the key itself
    head, key, tail = _encode(rest, "").partition('\n  "virtual_dimension": ')
    return f'{head}\n  "points": {points},{key}{tail}'


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    head = {"command": args.command, "file": args.file}
    try:
        T = load_template(args.file)
        checked = validate(T)
        if args.command == "validate":
            payload, code = _cmd_validate(checked)
        elif not checked.valid:
            raise ValidationError(checked)
        else:
            payload, code = args.handler(T, args)
        # a payload holds ints, strings, bools, None, lists, dicts and the
        # point table: the one ValueError of _dumps is the digit limit
        text = written(_dumps, head | payload)
    except OrigamiError as exc:
        if isinstance(exc, DocumentError):
            kind, code = "parse", EXIT_USAGE
        else:
            kind, code = type(exc).__name__, EXIT_SEMANTIC
        text = _dumps(head | {"error": {"kind": kind, "message": str(exc)}})
    print(text)
    return code


def _observed() -> bool:
    """Whether a tracer or profiler watches this process.

    ``python -m cProfile`` and ``trace`` print their report after the
    program's ``SystemExit``; on 3.12+ cProfile registers only as a
    ``sys.monitoring`` tool, and ``sys.getprofile()`` stays None.
    """
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # 3.12+, tool ids 0-5
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6))


def entry() -> None:
    """Run :func:`main` as its own process and exit with its code.

    The console script and ``python -m toricorigami.cli`` both come here.

    A report that cannot be written exits 1 with no traceback: after a
    broken pipe (the reader went away, as in ``| head``) quietly, after any
    other write error or a closed stdout with one line on stderr.

    Once the report is flushed, the process ends with ``os._exit`` after
    running the ``atexit`` handlers and flushing stdout and stderr, so CPython
    does not tear down every module and object of the job.  A traced or
    profiled process exits through ``sys.exit``, so that its tracer or
    profiler still reports.
    """
    try:
        code = main()
        if sys.stdout is not None:  # None when started with fd 1 closed
            sys.stdout.flush()
    except OSError as exc:
        # stdout goes to devnull, so that a traced or profiled process, which
        # exits through sys.exit, does not fail again in the flush at exit
        # (the SIGPIPE note in the docs of Python's signal module)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"toricorigami: error: cannot write the report: {exc}",
                  file=sys.stderr)
        code = EXIT_USAGE
    if sys.stdout is None:
        # print wrote nothing; checked after main, so render --out still
        # writes its file
        print("toricorigami: error: cannot write the report: standard output "
              "is closed", file=sys.stderr)
        code = EXIT_USAGE
    if _observed():
        sys.exit(code)
    atexit._run_exitfuncs()
    try:  # what the handlers wrote; at interpreter exit a failure is ignored
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    entry()

"""Command-line front end.

Exit codes: 0 when the computation succeeds and any verdict is positive,
1 for a mathematically negative verdict (not +/-Id, not a member, not a
solution, frieze construction failure, sweep counterexample), 2 for usage,
parse, validation, or cap errors.

Each ``_cmd_*`` is a generator of ``(record, render, ok)`` results: the JSON
object, a function returning the text form, and the verdict.  ``main`` alone
prints them, each before the next is computed, and sets the exit code.  It
lifts CPython's int-to-str digit limit only while it renders a result, as
exact products of long words pass it; parsing input keeps the limit.

Sequences are given inline as comma-separated entries, or as ``@path`` to
process one sequence per line.  Enumeration caps can be raised or lowered
with the environment variables QUIDDITY_MOD2_CAP, QUIDDITY_COUNT_CAP and
QUIDDITY_POLYGON_CAP.  The mod-2 cap bounds ``enumerate N`` and the
sweeps thm1ii and remark, the count cap the sweeps thm1i, thm2 and thm3;
a sweep meets no other cap.  The polygon cap bounds only the walk that
names a failing class of a counted sweep: past it the class is named by
its count.
"""

import argparse
import contextlib
import json
import os
import sys

from .algebra import (
    Mat2Mod,
    MatClass,
    _decimal,
    classify_pm_identity,
    format_seq,
    m_product,
    m_product_mod,
    parse_int_seq,
    parse_mod2_seq,
)
from .dissections import DEFAULT_POLYGON_CAP, Dissection
from .enumeration import (
    DEFAULT_COUNT_CAP,
    DEFAULT_MOD2_CAP,
    SWEEP_NAMES,
    _check_sweep,
    solution_report,
    theorem_sweep,
)
from .frieze import FriezeError, build_frieze, frieze_to_json_dict, render_text
from .surgery import AllEven, NotASolution, realize_dissection, realize_triangulation

# each --sweep choice and the sweeps it runs, in order
_SWEEPS = {
    "all": SWEEP_NAMES,
    "thm1": ("thm1i", "thm1ii"),
    **{name: (name,) for name in SWEEP_NAMES},
}


def _env_cap(name: str, default: int) -> int:
    value = os.environ.get(name)
    try:
        return default if value is None else int(_decimal(value))
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _sequences(arg: str) -> list[str]:
    """Inline sequence, or one sequence per line from ``@path`` (at least one)."""
    if not arg.startswith("@"):
        return [arg]
    with open(arg[1:], encoding="utf-8") as handle:
        texts = [
            line.strip()
            for line in handle
            if line.strip() and not line.lstrip().startswith("#")
        ]
    if not texts:
        raise ValueError(f"no sequences in {arg}")
    return texts


@contextlib.contextmanager
def _all_digits():
    """Lift CPython's int-to-str digit limit; Pythons without it need nothing."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiddity",
        description="Matrix words, polygon dissections, quiddities, and friezes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate M(c1,...,cn) and classify it")
    p.add_argument("sequence", help="comma-separated positive integers, or @file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pm", action="store_true", help="compare against +Id/-Id")
    group.add_argument("--mod", type=int, metavar="N", help="test membership in the level-N congruence subgroup")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("check-mod2", help="test a 0/1 sequence for mod-2 solubility")
    p.add_argument("sequence", help="comma-separated 0/1 entries, or @file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_check_mod2)

    p = sub.add_parser("quiddity", help="read a dissection JSON file and print a quiddity")
    p.add_argument("dissection", help="path to dissection JSON, or - for stdin")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cc", action="store_true", help="cells incident to each vertex")
    group.add_argument("--mod2", action="store_true", help="parity of triangles at each vertex")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_quiddity)

    p = sub.add_parser("realize", help="build a dissection realizing a mod-2 solution")
    p.add_argument("sequence", help="comma-separated 0/1 entries, or @file")
    p.add_argument("--triangulation", action="store_true", help="build a triangulation (needs an odd entry)")
    p.add_argument("--dot", metavar="PATH", help="also write a DOT rendering (one sequence only)")
    p.add_argument("--geometry", choices=["circle"], help="pin DOT vertices to the unit circle")
    p.set_defaults(run=_cmd_realize, json=True)  # realize always prints JSON

    p = sub.add_parser("frieze", help="build and render the frieze of a quiddity")
    p.add_argument("sequence", help="comma-separated positive integers, or @file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_frieze)

    p = sub.add_parser("enumerate", help="enumerate solutions and run verification sweeps")
    p.add_argument("n", type=int)
    p.add_argument("--classes", action="store_true", help="also list rotation-class representatives")
    p.add_argument("--tuples", action="store_true", help="list all solution tuples")
    p.add_argument("--verify-jacobsthal", action="store_true", help="check the count against the closed form")
    p.add_argument("--sweep", choices=_SWEEPS, help="run a verification sweep up to n")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_enumerate)

    # type=int reads only ASCII decimals, and a bad value is still an "invalid int value"
    for p in sub.choices.values():
        p.register("type", int, lambda text: int(_decimal(text)))
    return parser


def _mod_result(seq, n: int, verdict_key: str, **extra):
    """One mod-N verdict; ``check --mod`` and ``check-mod2`` differ only in keys."""
    m = m_product_mod(seq, n)
    ok = m == Mat2Mod.identity(n)
    record = {"schema": 1, "sequence": list(seq), **extra, "matrix": [[m.a, m.b], [m.c, m.d]], verdict_key: ok}
    return record, lambda: f"M({format_seq(seq)}) mod {n} = {m}\n{'true' if ok else 'false'}", ok


def _pm_result(seq):
    m = m_product(seq)
    verdict = classify_pm_identity(m)
    record = {"schema": 1, "sequence": list(seq), "matrix": [[m.a, m.b], [m.c, m.d]], "verdict": verdict.value}
    # str(m) may pass the int-to-str digit limit, which main lifts only to render
    return record, lambda: f"M({format_seq(seq)}) = {m}\n{verdict.value}", verdict is not MatClass.OTHER


def _cmd_check(args):
    for text in _sequences(args.sequence):
        seq = parse_int_seq(text)
        yield _pm_result(seq) if args.pm else _mod_result(seq, args.mod, "member", modulus=args.mod)


def _cmd_check_mod2(args):
    for text in _sequences(args.sequence):
        yield _mod_result(parse_mod2_seq(text), 2, "solution")


def _cmd_quiddity(args):
    if args.dissection == "-":
        text = sys.stdin.read()
    else:
        with open(args.dissection, encoding="utf-8") as handle:
            text = handle.read()
    d = Dissection.from_json(text)
    seq = d.quiddity_cc() if args.cc else d.quiddity_mod2()
    yield {"schema": 1, "n": d.n, "quiddity": list(seq)}, lambda: format_seq(seq), True


def _cmd_realize(args):
    if args.geometry and not args.dot:
        raise ValueError("--geometry needs --dot")
    texts = _sequences(args.sequence)
    if args.dot and len(texts) > 1:
        raise ValueError(f"--dot takes one sequence, got {len(texts)} from {args.sequence}")
    for text in texts:
        seq = parse_mod2_seq(text)
        d = realize_triangulation(seq) if args.triangulation else realize_dissection(seq)
        # a failed write is a usage error, and leaves stdout empty
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(d.to_dot(geometry=args.geometry))
        # to_json_dict's record without its copy of each pair: json.dumps prints a tuple as a list
        yield {"schema": 1, "n": d.n, "diagonals": d.diagonals}, d.to_json, True


def _cmd_frieze(args):
    for pos, text in enumerate(_sequences(args.sequence)):
        pattern = build_frieze(parse_int_seq(text))
        # tables are separated by one blank line
        yield frieze_to_json_dict(pattern), lambda: "\n" * (pos > 0) + render_text(pattern).rstrip("\n"), True


def _sweeps_text(results) -> str:
    lines = []
    for r in results:
        lines.append(
            f"sweep={r.which} range={r.n_lo}..{r.n_hi} "
            f"checked={r.checked} counterexamples={len(r.counterexamples)}"
        )
        lines += (f"  {line}" for line in r.counterexamples)
    return "\n".join(lines)


def _report_text(report, args) -> str:
    lines = [
        f"n={report.n} tuples={report.tuple_count} "
        f"expected={report.expected_count} match={'true' if report.match else 'false'}"
    ]
    if args.classes:
        lines += [f"classes={report.class_count}", *map(format_seq, report.class_reps)]
    if args.tuples:
        lines += map(format_seq, report.tuples)
    return "\n".join(lines)


def _cmd_enumerate(args):
    if args.sweep:
        if args.classes or args.tuples or args.verify_jacobsthal:
            raise ValueError("--sweep cannot be combined with --classes, --tuples or --verify-jacobsthal")
        caps = {cap: getattr(args, cap) for cap in ("polygon_cap", "mod2_cap", "count_cap")}
        # every chosen sweep's range and cap before the first one runs
        for which in _SWEEPS[args.sweep]:
            _check_sweep(which, 3, args.n, mod2_cap=args.mod2_cap, count_cap=args.count_cap)
        results = [theorem_sweep(which, 3, args.n, **caps) for which in _SWEEPS[args.sweep]]
        sweeps = [
            {"which": r.which, "range": [r.n_lo, r.n_hi], "checked": r.checked,
             "counterexamples": list(r.counterexamples)}
            for r in results
        ]
        yield {"schema": 1, "sweeps": sweeps}, lambda: _sweeps_text(results), all(r.ok for r in results)
        return

    report = solution_report(args.n, cap=args.mod2_cap)
    record = {
        "schema": 1,
        "n": report.n,
        "tuples": report.tuple_count,
        "expected": report.expected_count,
        "match": report.match,
        "classes": report.class_count,
    }
    if args.tuples:
        record["solutions"] = [list(t) for t in report.tuples]
    if args.classes:
        record["class_representatives"] = [list(t) for t in report.class_reps]
    yield record, lambda: _report_text(report, args), report.match or not args.verify_jacobsthal


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        args.mod2_cap = _env_cap("QUIDDITY_MOD2_CAP", DEFAULT_MOD2_CAP)
        args.polygon_cap = _env_cap("QUIDDITY_POLYGON_CAP", DEFAULT_POLYGON_CAP)
        args.count_cap = _env_cap("QUIDDITY_COUNT_CAP", DEFAULT_COUNT_CAP)
        ok = True
        for record, render, verdict in args.run(args):
            with _all_digits():
                print(json.dumps(record) if args.json else render())
            ok = ok and verdict
        return 0 if ok else 1
    except (NotASolution, AllEven, FriezeError) as exc:
        print(f"quiddity: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"quiddity: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

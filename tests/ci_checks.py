#!/usr/bin/env python3
"""The checks past tier-1's range, one step at a time.

    python3 tests/ci_checks.py smoke|caps|exit-codes|large|bench|all

``smoke`` runs every sweep through the CLI and checks the walk, the count
and bench/reference.py against each other past the differential tests'
range.  ``caps`` checks that a sweep past its cap stops before any work,
and that the polygon cap changes no sweep's output.  ``exit-codes`` runs
the table ``EXIT_CODES``.  ``large`` runs the CLI on seeded inputs of up
to 1e6 entries from bench/generate.py and compares its output with
bench/reference.py, which shares no code with ``src/``.  ``bench`` runs
bench/reference.py's self-test and one short round of each benchmark
workload.  ``all`` runs the five in that order.

Each command runs as a Python child process from the repository root,
with this repository's ``src/`` first on PYTHONPATH, so the script needs
no install; the children see no QUIDDITY_* cap but the ones a check sets.
Every check prints one line.  A step stops at its first failed check,
except ``exit-codes``, which runs every case first.  The script exits 0
when every step passes, 1 when one fails and 2 on a bad argument.
tests/test_ci_checks.py runs ``EXIT_CODES`` in process through
``cli.main``, so a wrong pin fails in tier-1 too.  Timings below are for a
2-core x86-64 host with Python 3.11.7.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (want, argv): the exit code each command must give, 0 for a positive
# verdict, 1 for a negative one and 2 for a usage error.  Stdin is empty, so
# "quiddity -" reads no input, a usage error.  Numbers are ASCII decimals
# only: "1_0", which int() reads as 10, is a usage error in a sequence and
# as enumerate's N.  "check --mod 8" is the largest level walked on a Cayley
# table, "--mod 9" the smallest past it, which folds the word by blocks.
EXIT_CODES = (
    (0, "check 1,1,1 --pm"),
    (0, "check 2,2 --mod 2"),
    (0, "check-mod2 1,0,1,0"),
    (0, "realize 1,1,1,0,0"),
    (0, "frieze 1,3,1,2,2"),
    (0, "enumerate 10 --verify-jacobsthal"),
    (0, "enumerate 6 --sweep all"),
    (0, "enumerate 13 --sweep thm1i"),
    (0, "enumerate 9 --sweep thm3"),
    (0, "enumerate 8 --sweep thm2"),
    (0, "enumerate 8 --sweep thm1"),
    (1, "check 2,2 --pm"),
    (1, "check 1,1 --mod 2 --json"),
    (1, "check-mod2 0,0,0"),
    (1, "realize 0,0,0"),
    (1, "frieze 2,2,2"),
    (2, "check 1,0,1 --pm"),
    (2, "check-mod2 1,2,1"),
    (2, "realize 1,1"),
    (2, "frieze 1,x,1"),
    (2, "quiddity /nonexistent --cc"),
    (2, "quiddity - --cc"),
    (2, "enumerate 65 --sweep thm1i"),
    (2, "enumerate 2 --sweep all"),
    (2, "enumerate 6 --sweep all --tuples"),
    (2, "nonsense"),
    (2, "check 1_0,2 --pm"),
    (2, "check-mod2 0_1,1"),
    (2, "enumerate 1_0 --sweep thm1i"),
    (0, "check 1,1,1,1,1,1 --mod 8"),
    (1, "check 2,2 --mod 9"),
)

PIPE, QUIET = subprocess.PIPE, subprocess.DEVNULL
LOG = None  # the child's stream goes to this script's


class Failed(Exception):
    """A check failed; the message names it."""


def expect(ok, what):
    if not ok:
        raise Failed(what)


def python(args, *, timeout=None, env=None, stdin=b"", out=QUIET, err=LOG):
    """Run ``python args`` from the repository root; return its exit code and captured stdout.

    A child that outlasts ``timeout`` seconds is killed and gives 124, as
    coreutils' ``timeout`` does.
    """
    child_env = {k: v for k, v in os.environ.items() if not k.startswith("QUIDDITY_")}
    child_env.update(env or {})
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    try:
        done = subprocess.run(
            [sys.executable, *args],
            input=stdin, stdout=out, stderr=err, env=child_env, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return 124, b""
    return done.returncode, done.stdout


def cli(argv, **kwargs):
    """Run ``python -m quiddity.cli`` on ``argv``, as ``python`` runs a child."""
    return python(["-m", "quiddity.cli", *argv], **kwargs)


def write_word(path, word):
    path.write_text(",".join(map(str, word)))
    return path


def sweep_total(argv, want, *, timeout=None, env=None):
    """Run a sweep with ``--json``; its total must be ``want``, with no counterexample."""
    status, out = cli([*argv, "--json"], timeout=timeout, env=env, out=PIPE)
    expect(status == 0, f"{' '.join(argv)}: exit {status}")
    r = json.loads(out)["sweeps"][0]
    print(r["checked"], want)
    expect(r["checked"] == want and r["counterexamples"] == [], f"{' '.join(argv)}: total or counterexamples")


def smoke():
    """Every sweep to n = 10 through the CLI, and the counted sweeps against the reference.

    Exit 0 means no counterexample.  thm1i, thm2 and thm3 count the
    dissections by class instead of walking them.  At n = 12, past the
    n <= 11 range of the differential tests, the enumerated sets, the count
    and the reference recurrence must agree for every kind (518,859 sets
    for "all", the walk taking 2.5-2.9 s), and the sweep's total must match
    the recurrence.  Past the polygon cap, under a raised count cap, thm2
    runs to n = 100, thm3 to n = 40 and thm1i to n = 200 by the count
    alone.  thm2's total must be the Catalan numbers plus its converse
    search (n <= 7), thm3's the reference recurrence's 3d counts plus its
    converse, and thm1i's the {3,4} counts of F = x + F^2 + F^3, which is
    O(n^2) where the reference recurrence is O(n^4) a call, and which must
    match the reference to n = 40.
    """
    status, _ = cli(["enumerate", "10", "--sweep", "all"], out=LOG)
    expect(status == 0, f"enumerate 10 --sweep all: exit {status}")
    walked = sum(1 for _ in enumerate_dissections(12, "34", 12))
    counted = sum(c for _, c in _Counts("34", _OVER_F2, 12).classes(12))
    print(walked, counted, reference.count_34(12))
    expect(walked == counted == reference.count_34(12), "{3,4} dissections of the 12-gon")
    sweep_total(["enumerate", "12", "--sweep", "thm1i"], sum(reference.count_34(n) for n in range(3, 13)))
    ok = True
    for kind, want in (
        ("triangulation", reference.catalan(10)),
        ("3d", reference.count_3d(12)),
        ("all", reference.count_dissections(12, lambda s: s >= 3)),
    ):
        walked = sum(1 for _ in enumerate_dissections(12, kind, 12))
        counted = sum(c for _, c in _Counts(kind, _OVER_Z, 12).classes(12))
        print(kind, walked, counted, want)
        ok = ok and walked == counted == want
    expect(ok, "dissections of the 12-gon by kind")
    converse = [solutions_pm_identity(n) for n in range(3, 8)]
    want = sum(reference.catalan(n - 2) for n in range(3, 101)) + sum(map(len, converse))
    sweep_total(["enumerate", "100", "--sweep", "thm2"], want, timeout=20, env={"QUIDDITY_COUNT_CAP": "100"})
    want = sum(reference.count_3d(n) for n in range(3, 41)) + sum(len({s for s, _ in sols}) for sols in converse)
    sweep_total(["enumerate", "40", "--sweep", "thm3"], want, timeout=20)
    f, sq = [0, 1], [0, 0]  # {3,4} dissections of a segment of L sides: F = x + F^2 + F^3
    for length in range(2, 200):
        sq.append(sum(f[a] * f[length - a] for a in range(1, length)))
        f.append(sq[length] + sum(f[a] * sq[length - a] for a in range(1, length)))
    expect(all(f[n - 1] == reference.count_34(n) for n in range(3, 41)), "F = x + F^2 + F^3 against the reference")
    want = sum(f[n - 1] for n in range(3, 201))
    sweep_total(["enumerate", "200", "--sweep", "thm1i"], want, timeout=20, env={"QUIDDITY_COUNT_CAP": "200"})


def caps():
    """A sweep past its one cap is a usage error (exit 2) before any work.

    thm1ii and the remark meet the mod-2 cap (20), the counted sweeps
    thm1i, thm2 and thm3 the count cap (64).  A sweep that ran up to its
    cap first would run into the timeout (exit 124), and a counted sweep
    that ignored the count cap would finish (exit 0).  At the count cap
    itself, n = 64, each counted sweep must finish and exit 0.  The polygon
    cap bounds only the walk that names a failing class, so lowered to 4,
    below the converse's walks (n <= 7), it must leave "enumerate 12
    --sweep all" exiting 0 with the stdout of the default caps.  With one
    cap per sweep, a command whose later sweep fails its cap exits 2 with
    the same message whether or not the earlier sweeps ran first, so the
    check of every chosen sweep before the first one runs is pinned in
    process: test_enumerate_checks_every_chosen_sweep_before_running_one
    in tests/test_enumeration.py makes every per-n worker and the count
    table raise if called.
    """
    for which in ("thm1i", "thm2", "thm3"):
        status, _ = cli(["enumerate", "64", "--sweep", which], timeout=20)
        print(f"enumerate 64 --sweep {which}: exit {status}")
        expect(status == 0, f"enumerate 64 --sweep {which}")
    for args in ("enumerate 21 --sweep thm1ii", "enumerate 65 --sweep thm1i", "enumerate 65 --sweep thm3"):
        status, _ = cli(args.split(), timeout=10, out=LOG)
        print(f"{args}: exit {status}")
        expect(status == 2, args)
    argv = "enumerate 12 --sweep all".split()
    status, want = cli(argv, timeout=20, out=PIPE)
    low_status, out = cli(argv, timeout=20, env={"QUIDDITY_POLYGON_CAP": "4"}, out=PIPE)
    label = "QUIDDITY_POLYGON_CAP=4 enumerate 12 --sweep all"
    print(f"{label}: exit {low_status}, stdout as with the default caps: {out == want}")
    expect(status == low_status == 0 and out == want, label)


def exit_codes():
    """``EXIT_CODES`` with the CLI as a process, then one round trip through a pipe.

    The dissection realize prints, read back by "quiddity - --mod2", must
    give the realized sequence, both exiting 0.
    """
    wrong = []
    for want, args in EXIT_CODES:
        status, _ = cli(args.split(), err=QUIET)
        print(f"{args}: exit {status}, want {want}")
        if status != want:
            wrong.append(args)
    status, realized = cli(["realize", "1,1,1,0,0"], out=PIPE)
    back_status, out = cli(["quiddity", "-", "--mod2"], stdin=realized, out=PIPE)
    out = out.decode().rstrip("\n")
    print(f"realize 1,1,1,0,0 | quiddity - --mod2: {out}")
    expect(not wrong, f"wrong exit codes: {wrong}")
    expect(status == back_status == 0 and out == "1,1,1,0,0", "realize 1,1,1,0,0 | quiddity - --mod2")


def read_back(path, flags, label):
    """Realize the word in ``path`` and read the dissection back with "quiddity - --mod2": the same text."""
    status, realized = cli(["realize", f"@{path}", *flags], timeout=30, out=PIPE)
    back_status, back = cli(["quiddity", "-", "--mod2"], timeout=30, stdin=realized, out=PIPE)
    expect(status == back_status == 0, f"{label}: realize exit {status}, read-back exit {back_status}")
    expect(back == path.read_bytes() + b"\n", f"{label} read back differs")
    print(f"{label} read back by quiddity - --mod2: identical")


def large():
    """The CLI on long seeded inputs from bench/generate.py, each command under a timeout.

    The inputs: a 1e6-entry mod-2 solution with an odd entry, a 3e5-entry
    uniform 1..5 word whose product is not +-Id, the quiddity of a random
    triangulation of the 1000-gon, and a 1e4-entry mod-2 solution with an
    odd entry.  All run well inside their timeouts; the times below were
    measured with each command as a process.
    """
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sol = generate.mod2_word(random.Random(1), 1_000_000, solution=True, need_odd=True)
        word = generate.other_word(random.Random(2), 300_000)
        _, quid = generate.triangulation(random.Random(3), 1000)
        sol_file, word_file, quid_file = (
            write_word(tmp / name, w) for name, w in (("sol.txt", sol), ("word.txt", word), ("quid.txt", quid))
        )
        # Each realization of the 1e6 solution, plain and as a triangulation,
        # read back by "quiddity - --mod2", which runs none of surgery.py,
        # must give the seeded solution byte for byte.  Each realization
        # took 1.5-2.8 s (1.8-3.3 s when the reduction cut one entry at a
        # time), its read-back 2.7-4.6 s (3.8-6.5 s when the constructor
        # dropped repeats through a set, which it then sorted in hash order).
        for flags in ((), ("--triangulation",)):
            read_back(sol_file, flags, f"realize 1e6 {flags[0] if flags else 'plain'}")
        # So must the realization of 1e6 zeros: the reduction's scan finds no
        # pivot in an all-zero word and leaves it whole to its closing loop
        # (surgery._close), which cuts from the end of a reversed list; cut
        # from the front, the loop is quadratic and this runs into the
        # timeout.  The round trip took 2.9-4.5 s.
        read_back(write_word(tmp / "zeros.txt", [0] * 1_000_000), (), "realize 1e6 zeros")
        # A run of zeros whose pivot sits in the last three entries is cut by
        # the scan up to its wrapping cut; handed to the closing loop whole,
        # it was cut one ear at a time from the far end of its reversed list,
        # and each of these ran past 60 s; now each realization takes
        # 0.5-1.4 s.  The solution 0^999998,1,1,1 must read back, the
        # non-solution 0^999998,1,0 exit 1, in both modes.
        tail = write_word(tmp / "tail.txt", [0] * 999_998 + [1, 1, 1])
        for flags in ((), ("--triangulation",)):
            read_back(tail, flags, f"realize 0^999998,1,1,1 {flags[0] if flags else 'plain'}")
        tail = write_word(tmp / "tail_odd.txt", [0] * 999_998 + [1, 0])
        for flags in ((), ("--triangulation",)):
            status, _ = cli(["realize", f"@{tail}", *flags], timeout=30, err=QUIET)
            print(f"realize 0^999998,1,0 {flags[0] if flags else 'plain'}: exit {status}")
            expect(status == 1, "realize 0^999998,1,0")
        # Each realization of the 1e4 solution must cut the polygon, by
        # bench/reference.py's cells, into triangles and quadrilaterals
        # (plain) or triangles (--triangulation) whose parity_quiddity is the
        # solution; each took about 2.5 s with the reference check.
        sol4 = generate.mod2_word(random.Random(4), 10_000, solution=True, need_odd=True)
        sol4_file = write_word(tmp / "sol4.txt", sol4)
        for flags, sizes in (((), {3, 4}), (("--triangulation",), {3})):
            status, out = cli(["realize", f"@{sol4_file}", *flags], timeout=30, out=PIPE)
            expect(status == 0, f"realize 1e4: exit {status}")
            r = json.loads(out)
            cells = reference.cells(r["n"], r["diagonals"])
            ok = r["n"] == len(sol4) and {len(c) for c in cells} <= sizes
            ok = ok and reference.parity_quiddity(r["n"], cells) == tuple(sol4)
            print("realize 1e4", flags[0] if flags else "plain", len(cells), "cells, ok", ok)
            expect(ok, "realize 1e4 against the reference cells")
        # Checking the word must exit 1 (Other) with every digit of the matrix
        # printed (1.1 s).  Checking it mod 7 (a walk on the Cayley table) and
        # mod 1000003 (past the table, a fold by blocks) must print the matrix
        # of bench/reference.py's product_mod and exit by its membership (each
        # 0.2-0.35 s, the reference product 0.2 s).
        status, _ = cli(["check", f"@{word_file}", "--pm", "--json"], timeout=30)
        print(f"check --pm --json on 3e5 entries: exit {status}")
        expect(status == 1, "check --pm --json on 3e5 entries")
        for mod in (7, 1000003):
            status, out = cli(["check", f"@{word_file}", "--mod", str(mod), "--json"], timeout=30, out=PIPE)
            expect(status in (0, 1), f"check --mod {mod}: exit {status}")
            want = reference.product_mod(word, mod)
            r = json.loads(out)
            got = tuple(x for row in r["matrix"] for x in row)
            member = want == (1, 0, 0, 1)
            print(f"check --mod {mod} --json on 3e5 entries: exit {status}, matrix {got}, reference {want}")
            expect(got == want and r["member"] == member and status == (0 if member else 1), f"check --mod {mod}")
        # The quiddity's frieze must exit 0 with 999 rows equal row for row to
        # bench/reference.py's continuants (0.33-0.51 s, 0.40-0.50 s before
        # rows past the middle were taken as glide images; the comparison
        # 0.8 s).  With its first entry raised by one the quiddity is not
        # closed, and its frieze must exit 1 (0.22-0.36 s).
        status, out = cli(["frieze", f"@{quid_file}", "--json"], timeout=30, out=PIPE)
        print(f"frieze --json on the 1000-gon: exit {status}")
        expect(status == 0, "frieze --json on the 1000-gon")
        rows = json.loads(out)["rows"]
        print(len(rows), "rows")
        want = [list(row) for row in reference.continuant_rows(quid)]
        expect(len(rows) == 999 and rows[-1] == [1] * 1000 and rows == want, "frieze rows against the reference")
        raised = write_word(tmp / "raised.txt", (quid[0] + 1, *quid[1:]))
        status, _ = cli(["frieze", f"@{raised}"], timeout=30, err=QUIET)
        print(f"frieze on the 1000-gon with entry 1 raised by one: exit {status}")
        expect(status == 1, "frieze of the raised quiddity")


def bench():
    """bench/reference.py's self-test, then one seeded second of each workload of bench/run.py.

    run.py exits 0 even on wrong answers, so the JSON object on its last
    line must have ``correct`` true and ``failed`` 0.  The step takes 12-14 s.
    """
    status, _ = python(["bench/reference.py"], out=LOG)
    expect(status == 0, f"bench/reference.py: exit {status}")
    for workload in ("sweep", "realize", "long_words", "cli"):
        argv = ["bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
        _, out = python(argv, out=PIPE)
        try:
            r = json.loads(out.splitlines()[-1])
        except (IndexError, ValueError):
            r = None
        if not isinstance(r, dict):
            raise Failed(f"bench/run.py --workload {workload}: no JSON object on its last line")
        print(workload, r)
        expect(r.get("correct") is True and r.get("failed") == 0, f"bench/run.py --workload {workload}")


STEPS = {"smoke": smoke, "caps": caps, "exit-codes": exit_codes, "large": large, "bench": bench}


def main(argv):
    if len(argv) != 1 or argv[0] not in (*STEPS, "all"):
        print(f"usage: python3 tests/ci_checks.py {'|'.join(STEPS)}|all", file=sys.stderr)
        return 2
    sys.stdout.reconfigure(line_buffering=True)  # keep the order of our lines and the children's
    failed = False
    for name in STEPS if argv[0] == "all" else argv:
        try:
            STEPS[name]()
        except Failed as exc:
            print(f"ci_checks {name}: FAILED: {exc}", file=sys.stderr)
            failed = True
    return int(failed)


if __name__ == "__main__":
    # imported for EXIT_CODES alone, the module touches no path; run, it reads
    # src/ and bench/ without writing bytecode into either
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import generate
    import reference
    from quiddity import solutions_pm_identity
    from quiddity.dissections import _OVER_F2, _OVER_Z, _Counts, enumerate_dissections

    sys.exit(main(sys.argv[1:]))

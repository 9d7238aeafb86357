"""The four workloads: seeded inputs, the operations run on them, and their checks.

A workload has ``generate(rng, workdir)``, which makes the inputs (this and
the package import are the timed set-up), and ``build(q, inputs, env)``,
which computes the expected answers with the reference module and returns
the operations. An operation's ``run`` raises ``OpFailed`` (or any other
exception) when it cannot complete; its ``check`` returns False for a wrong
answer. An expected negative verdict is a correct answer.
"""

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import generate
import reference

# Fixed sizes; README records why each was chosen.
SWEEP_CALLS = [(w, n) for w in ("thm1i", "thm1ii", "thm2", "remark") for n in range(3, 11)] + [
    ("thm3", n) for n in range(3, 9)
]
CONVERSE_HI = 7  # theorem_sweep's default: thm2 runs its converse search up to here
REALIZE_LENGTH = 250
REALIZE_BATCH = 5
WORD_LENGTH = 10_000
WORDS_EACH = 3  # identity words and other words
LEVELS = (2, 3, 4, 5, 7)
MOD2_LENGTH = 1000
MOD2_EACH = 4  # solutions and non-solutions
FRIEZE_PERIOD = 200
FRIEZES_EACH = 3  # quiddities and perturbed non-quiddities
CLI_INT_LENGTH = 5000
CLI_INT_EACH = 3
CLI_MOD2_LENGTH = 300
CLI_MOD2_EACH = 3
CLI_REALIZE_LENGTH = 100
CLI_REALIZE_COUNT = 3
CLI_FRIEZE_PERIOD = 60
CLI_FRIEZE_COUNT = 3
CLI_DISSECTION_N = 80
CLI_TIMEOUT_S = 120


class OpFailed(Exception):
    """The operation did not complete (an error, not a wrong answer)."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    work: Callable[[object], int] = lambda result: 1
    group: str = ""


# --- shared checks --------------------------------------------------------


def realized_ok(seq, n, diagonals, sizes) -> bool:
    """A realized polygon is non-crossing, has cells of the given sizes and parity quiddity seq."""
    if n != len(seq):
        return False
    try:
        cells = reference.cells(n, diagonals)
    except ValueError:
        return False
    return all(len(c) in sizes for c in cells) and reference.parity_quiddity(n, cells) == tuple(seq)


def sweep_count_ok(which, n_lo, n_hi, checked) -> bool:
    """``checked`` against the closed forms and recurrences, summed over n_lo..n_hi."""
    ns = range(max(n_lo, 3), n_hi + 1)
    if which == "thm1i":
        return checked == sum(reference.count_34(n) for n in ns)
    if which == "thm1ii":
        return checked == sum(reference.jacobsthal(n) for n in ns)
    if which == "remark":
        return checked == sum(reference.jacobsthal(n) - (n % 2 == 0) for n in ns)
    if which == "thm2":
        forward = sum(reference.catalan(n - 2) for n in ns)
        return checked == forward if n_lo > CONVERSE_HI else checked >= forward
    return checked >= sum(reference.count_3d(n) for n in ns)


def frieze_rows_ok(rows, expected_rows) -> bool:
    return [tuple(r) for r in rows] == expected_rows


# --- sweep ----------------------------------------------------------------


class Sweep:
    name = "sweep"

    def generate(self, rng, workdir):
        calls = list(SWEEP_CALLS)
        rng.shuffle(calls)
        return calls

    def build(self, q, calls, env):
        ops = []
        for which, n in calls:

            def check(report, which=which, n=n):
                return (
                    report.ok
                    and (report.which, report.n_lo, report.n_hi) == (which, n, n)
                    and sweep_count_ok(which, n, n, report.checked)
                )

            ops.append(
                Op(f"{which} n={n}", lambda w=which, n=n: q.theorem_sweep(w, n, n), check, work=lambda r: r.checked)
            )
        return ops

    def named_metrics(self, s):
        return {
            "sweep_s": (s.round_s, "s"),
            "sweep_checked_per_s": (s.rate(), "objects/s"),
        }


# --- realize --------------------------------------------------------------


class Realize:
    name = "realize"

    def generate(self, rng, workdir):
        return [
            generate.mod2_word(rng, REALIZE_LENGTH, solution=True, need_odd=True)
            for _ in range(REALIZE_BATCH)
        ]

    def build(self, q, batch, env):
        ops = []
        for k, s in enumerate(batch):
            for name, sizes in (("realize_dissection", (3, 4)), ("realize_triangulation", (3,))):
                ops.append(
                    Op(
                        f"{name} #{k}",
                        lambda name=name, s=s: getattr(q, name)(s),
                        lambda d, s=s, sizes=sizes: realized_ok(s, d.n, d.diagonals, sizes),
                        work=lambda d: d.n,
                    )
                )
        return ops

    def named_metrics(self, s):
        return {
            "realize_p50_ms": (s.op_p50_ms, "ms"),
            "realized_vertices_per_s": (s.rate(), "vertices/s"),
        }


# --- long_words -----------------------------------------------------------


class LongWords:
    name = "long_words"

    def generate(self, rng, workdir):
        words = [generate.identity_word(rng, WORD_LENGTH) for _ in range(WORDS_EACH)]
        words += [(generate.other_word(rng, WORD_LENGTH), 0) for _ in range(WORDS_EACH)]
        words = [(w, sign, rng.choice(LEVELS)) for w, sign in words]
        bits = [generate.mod2_word(rng, MOD2_LENGTH, solution=k % 2 == 0) for k in range(2 * MOD2_EACH)]
        quids = [generate.triangulation(rng, FRIEZE_PERIOD)[1] for _ in range(FRIEZES_EACH)]
        quids += [generate.non_quiddity(rng, quids[k]) for k in range(FRIEZES_EACH)]
        return words, bits, quids

    def build(self, q, inputs, env):
        words, bits, quids = inputs
        ops = []
        for k, (w, sign, level) in enumerate(words):
            verdict = {1: "PlusId", -1: "MinusId", 0: "Other"}[sign]
            if reference.integer_class(w) != verdict:
                raise AssertionError(f"word #{k} is not of its constructed class {verdict}")
            residues = {p: reference.product_mod(w, p) for p in reference.PRIMES}
            mod_level = reference.product_mod(w, level)
            member = mod_level == (1, 0, 0, 1)

            def run(w=w, level=level):
                m = q.m_product(w)
                return m, q.classify_pm_identity(m), q.m_product_mod(w, level), q.in_principal_congruence(m, level)

            def check(out, verdict=verdict, residues=residues, mod_level=mod_level, member=member):
                m, cls, mm, is_member = out
                entries = (m.a, m.b, m.c, m.d)
                return (
                    cls.value == verdict
                    and m.a * m.d - m.b * m.c == 1
                    and all(tuple(e % p for e in entries) == r for p, r in residues.items())
                    and (mm.a, mm.b, mm.c, mm.d) == mod_level
                    and is_member == member
                )

            ops.append(Op(f"classify #{k}", run, check, group="classify"))
        for k, w in enumerate(bits):
            solution = reference.is_mod2_solution(w)

            def run(w=w):
                return q.is_gamma2_solution(w), q.reduce_to_base(w)

            def check(out, solution=solution):
                verdict, reduced = out
                return (
                    verdict == solution
                    and reduced.is_solution == solution
                    and (reduced.remainder in ((0, 0), (1, 1, 1))) == solution
                )

            ops.append(Op(f"mod2 #{k}", run, check, group="mod2"))
        for k, quid in enumerate(quids):
            if reference.is_triangulation_quiddity(quid):
                rows = reference.continuant_rows(quid)
                if not reference.frieze_ok(quid, rows):
                    raise AssertionError(f"reference frieze of quiddity #{k} fails its own check")

                def run(quid=quid):
                    f = q.build_frieze(quid)
                    q.validate_frieze(f)
                    return f, q.coxeter_row_check(f)

                def check(out, quid=quid, rows=rows):
                    f, coxeter = out
                    return coxeter is True and f.n == len(quid) and frieze_rows_ok(f.rows, rows)

            else:

                def run(quid=quid):
                    try:
                        q.build_frieze(quid)
                    except q.FriezeError as exc:
                        return exc
                    return None

                def check(out):
                    return isinstance(out, q.FriezeError)

            ops.append(Op(f"frieze #{k}", run, check, group="frieze"))
        return ops

    def named_metrics(self, s):
        return {
            "classify_words_per_s": (s.rate("classify"), "words/s"),
            "mod2_decisions_per_s": (s.rate("mod2"), "words/s"),
            "friezes_per_s": (s.rate("frieze"), "friezes/s"),
        }


# --- cli ------------------------------------------------------------------

CLI_COMMANDS = (
    "check_pm",
    "check_mod3",
    "check_mod2",
    "realize",
    "realize_triangulation",
    "frieze",
    "quiddity_cc",
    "enumerate_8_all",
    "enumerate_9_thm3",
)


class Cli:
    name = "cli"

    def generate(self, rng, workdir):
        ints = [generate.identity_word(rng, CLI_INT_LENGTH) for _ in range(CLI_INT_EACH)]
        ints += [(generate.other_word(rng, CLI_INT_LENGTH), 0) for _ in range(CLI_INT_EACH)]
        bits = [generate.mod2_word(rng, CLI_MOD2_LENGTH, solution=k % 2 == 0) for k in range(2 * CLI_MOD2_EACH)]
        sols = [
            generate.mod2_word(rng, CLI_REALIZE_LENGTH, solution=True, need_odd=True)
            for _ in range(CLI_REALIZE_COUNT)
        ]
        quids = [generate.triangulation(rng, CLI_FRIEZE_PERIOD)[1] for _ in range(CLI_FRIEZE_COUNT)]
        diagonals = [p for p in generate.triangulation(rng, CLI_DISSECTION_N)[0] if rng.random() < 0.5]
        files = {
            "ints.txt": "\n".join(",".join(map(str, w)) for w, _ in ints),
            "bits.txt": "\n".join(",".join(map(str, w)) for w in bits),
            "sols.txt": "\n".join(",".join(map(str, w)) for w in sols),
            "quids.txt": "\n".join(",".join(map(str, w)) for w in quids),
            "dissection.json": json.dumps({"n": CLI_DISSECTION_N, "diagonals": diagonals}),
        }
        for name, text in files.items():
            (workdir / name).write_text(text + "\n", encoding="utf-8")
        return ints, bits, sols, quids, diagonals, workdir

    def commands(self, inputs):
        """(name, argv, expected exit code, output check) for each of CLI_COMMANDS, in order."""
        ints, bits, sols, quids, diagonals, workdir = inputs
        f = {name: f"@{workdir / name}" for name in ("ints.txt", "bits.txt", "sols.txt", "quids.txt")}
        verdicts = [{1: "PlusId", -1: "MinusId", 0: "Other"}[sign] for _, sign in ints]
        residues = [{p: reference.product_mod(w, p) for p in reference.PRIMES} for w, _ in ints]
        mod3 = [reference.product_mod(w, 3) for w, _ in ints]
        sol_flags = [reference.is_mod2_solution(w) for w in bits]
        frieze_rows = [reference.continuant_rows(quid) for quid in quids]
        cc = reference.cc_quiddity(CLI_DISSECTION_N, reference.cells(CLI_DISSECTION_N, diagonals))

        def json_lines(out, count):
            lines = [json.loads(line) for line in out.splitlines() if line.strip()]
            return lines if len(lines) == count else None

        def check_pm(out):
            lines = json_lines(out, len(ints))
            return lines is not None and all(
                d["sequence"] == list(w)
                and d["verdict"] == v
                and all(tuple(e % p for row in d["matrix"] for e in row) == r for p, r in res.items())
                for d, (w, _), v, res in zip(lines, ints, verdicts, residues)
            )

        def check_mod3(out):
            lines = json_lines(out, len(ints))
            return lines is not None and all(
                d["sequence"] == list(w)
                and d["modulus"] == 3
                and tuple(e for row in d["matrix"] for e in row) == m
                and d["member"] == (m == (1, 0, 0, 1))
                for d, (w, _), m in zip(lines, ints, mod3)
            )

        def check_mod2(out):
            lines = json_lines(out, len(bits))
            return lines is not None and all(
                d["sequence"] == list(w)
                and tuple(e for row in d["matrix"] for e in row) == reference.mod2_matrix(w)
                and d["solution"] == s
                for d, w, s in zip(lines, bits, sol_flags)
            )

        def check_realized(sizes):
            def check(out):
                lines = json_lines(out, len(sols))
                return lines is not None and all(
                    realized_ok(s, d["n"], [tuple(p) for p in d["diagonals"]], sizes)
                    for d, s in zip(lines, sols)
                )

            return check

        def check_frieze(out):
            lines = json_lines(out, len(quids))
            return lines is not None and all(
                d["n"] == len(quid) and frieze_rows_ok(d["rows"], rows)
                for d, quid, rows in zip(lines, quids, frieze_rows)
            )

        def check_cc(out):
            return out.strip() == ",".join(map(str, cc))

        def check_sweep_all(out):
            data = json.loads(out)
            sweeps = {s["which"]: s for s in data["sweeps"]}
            return set(sweeps) == {"thm1i", "thm1ii", "thm2", "thm3", "remark"} and all(
                s["range"] == [3, 8] and not s["counterexamples"] and sweep_count_ok(w, 3, 8, s["checked"])
                for w, s in sweeps.items()
            )

        def check_thm3_9(out):
            prefix = "sweep=thm3 range=3..9 checked="
            line = out.strip()
            if not line.startswith(prefix) or not line.endswith(" counterexamples=0"):
                return False
            return sweep_count_ok("thm3", 3, 9, int(line[len(prefix) :].split()[0]))

        any_other = any(v == "Other" for v in verdicts)
        commands = [
            ("check_pm", ["check", f["ints.txt"], "--pm", "--json"], int(any_other), check_pm),
            ("check_mod3", ["check", f["ints.txt"], "--mod", "3", "--json"],
             int(any(m != (1, 0, 0, 1) for m in mod3)), check_mod3),
            ("check_mod2", ["check-mod2", f["bits.txt"], "--json"], int(not all(sol_flags)), check_mod2),
            ("realize", ["realize", f["sols.txt"]], 0, check_realized((3, 4))),
            ("realize_triangulation", ["realize", f["sols.txt"], "--triangulation"], 0, check_realized((3,))),
            ("frieze", ["frieze", f["quids.txt"], "--json"], 0, check_frieze),
            ("quiddity_cc", ["quiddity", str(workdir / "dissection.json"), "--cc"], 0, check_cc),
            ("enumerate_8_all", ["enumerate", "8", "--sweep", "all", "--json"], 0, check_sweep_all),
            ("enumerate_9_thm3", ["enumerate", "9", "--sweep", "thm3"], 0, check_thm3_9),
        ]
        if tuple(c[0] for c in commands) != CLI_COMMANDS:
            raise AssertionError("CLI_COMMANDS does not name the command list")
        return commands

    def build(self, q, inputs, env):
        ops = []
        for name, argv, expected, check in self.commands(inputs):

            def run(argv=argv):
                proc = subprocess.run(
                    [sys.executable, "-m", "quiddity.cli", *argv],
                    capture_output=True,
                    text=True,
                    env=env,
                    timeout=CLI_TIMEOUT_S,
                )
                if proc.returncode not in (0, 1):
                    raise OpFailed(f"exit code {proc.returncode}: {proc.stderr.strip()}")
                return proc.returncode, proc.stdout

            ops.append(
                Op(name, run, lambda out, e=expected, c=check: out[0] == e and c(out[1]))
            )
        return ops

    def in_process_ops(self, q, inputs):
        """The same commands through ``quiddity.cli.main`` in this process, for the traced run."""
        cli = sys.modules["quiddity.cli"]
        ops = []
        for name, argv, expected, check in self.commands(inputs):

            def run(argv=argv):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                if code not in (0, 1):
                    raise OpFailed(f"exit code {code}: {err.getvalue().strip()}")
                return code, out.getvalue()

            ops.append(Op(f"main {name}", run, lambda out, e=expected, c=check: out[0] == e and c(out[1])))
        return ops

    def named_metrics(self, s):
        return {
            "cli_s": (s.round_s, "s"),
            "cli_invocation_p50_ms": (s.op_p50_ms, "ms"),
        }


WORKLOADS = {w.name: w for w in (Sweep(), Realize(), LongWords(), Cli())}

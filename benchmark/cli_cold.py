"""The cli-cold workload: every operation is a fresh ``amalgsep`` process.

    python benchmark/cli_cold.py --seed 1 --seconds 10 --trace 0

This process never imports amalgsep, so at most one library process runs
at a time. It writes the JSON inputs of each round under ``--workdir``,
runs the commands one after another (the README's quick commands plus
seeded witness, member, isolate and compat queries), times each from
spawn to exit, and checks every exit code and report with ``checkers``.
``setup_s`` is the median time to import ``amalgsep.cli`` in a fresh
interpreter. Import and command times are also reported at reference
speed (``speed.Probe`` with the interpreter start-up reference), from
samples this process takes before and after each child. With
``--trace 1`` each command runs under ``traced_cli.py`` for one round,
then untraced for the same round, and the counters of all children are
merged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import checkers as ck
import groups as gr
import spans
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
IMPORT_SAMPLES = 7
TRACE_ROUNDS = 1
CODE_OK, CODE_NEGATIVE, CODE_BOUND = 0, 1, 3
DEFAULT_TARGET_BOUND = 256
# Seeded presentation of each round: p-group amalgams with cyclic
# amalgamated subgroups, so p-mode commands have chain certificates.
CLI_SHAPES = [("D4", "Z8", 4), ("Z3xZ3", "Z9", 3), ("Z2xZ4", "D4", 2), ("Z9", "MC(9,4,3)", 3)]
FREE_DOC = {"schema": 1, "kind": "free", "gens_a": ["a"], "gens_b": ["b"],
            "h_words": ["a^2"], "k_words": ["b^2"]}
FREE_README = ("A:a B:b^7", "A:a B:b A:a B:b A:a B:b A:a^2")


@dataclass
class Cmd:
    argv: list
    check: Callable[[int, dict], None]


@dataclass
class Files:
    """A finite presentation written as JSON: catalog tables relabeled,
    element names tied to the catalog labels (so commands read the same
    whatever the seed)."""

    path: str
    words: ck.FiniteAmalgam
    names: dict
    lattice: ck.PairLattice | None = None

    def letters(self, text: str) -> list:
        return [(s, self.names[s].index(n)) for s, n in
                (tok.split(":") for tok in text.split())]

    def text(self, letters) -> str:
        return " ".join(f"{s}:{self.names[s][x]}" for s, x in letters)

    def pairs(self) -> ck.PairLattice:
        if self.lattice is None:
            self.lattice = ck.PairLattice(self.words)
        return self.lattice


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def write_presentation(workdir: str, stem: str, label: random.Random, shape,
                       gen_a: int, gen_b: int, names0: dict) -> Files:
    """Relabel the catalog tables of ``shape`` and amalgamate <gen_a> = <gen_b>."""
    name_a, name_b, h_order = shape
    tables, names = {}, {}
    for side, cat, prefix in (("A", name_a, "a"), ("B", name_b, "b")):
        t, perm = gr.relabel(gr.table_by_name(cat), label)
        tables[side] = t
        nm = [""] * len(t)
        for old, new in enumerate(perm):
            nm[new] = names0[side][old]
        names[side] = nm
        write_json(os.path.join(workdir, f"{stem}{prefix}.json"),
                   {"schema": 1, "order": len(t), "table": [list(r) for r in t],
                    "names": nm})
    ta, tb = tables["A"], tables["B"]
    phi, hx, ky = {}, 0, 0
    x, y = names["A"].index(names0["A"][gen_a]), names["B"].index(names0["B"][gen_b])
    for _ in range(h_order):
        phi[hx] = ky
        hx, ky = ta[hx][x], tb[ky][y]
    path = os.path.join(workdir, f"{stem}.json")
    write_json(path, {"schema": 1, "kind": "finite", "group_a": f"{stem}a.json",
                      "group_b": f"{stem}b.json", "h": [names["A"][x]], "k": [names["B"][y]],
                      "phi": {names["A"][a]: names["B"][b] for a, b in phi.items()}})
    return Files(path, ck.FiniteAmalgam(ta, tb, phi), names)


# ---------------------------------------------------------------------------
# Checks on CLI reports


def expect(code: int, want: int) -> None:
    ck.require(code == want, f"exit code {code}, expected {want}")


def witness_code(doc: dict) -> int:
    """The exit code the CLI promises for a witness report."""
    if doc["outcome"] == "separated":
        return CODE_OK
    if doc.get("reason") == "bound_exhausted":
        return CODE_BOUND
    return CODE_NEGATIVE


def check_witness(f: Files, h, g, p, code: int, doc: dict) -> None:
    ck.check_witness_report(f.words, h, g, doc, p, (DEFAULT_TARGET_BOUND,), f.letters)
    expect(code, witness_code(doc))


def check_free_readme(code: int, doc: dict) -> None:
    words = ck.FreeCyclicAmalgam(((0, 1), (0, 1)), ((0, 1), (0, 1)))
    h, g = ([(s, ck.parse_free_word(w, ["a"] if s == "A" else ["b"]))
             for s, w in (tok.split(":") for tok in t.split())] for t in FREE_README)
    ck.check_witness_report(words, h, g, doc, 2, ())
    ck.require(doc["outcome"] == "separated", f"outcome {doc['outcome']}")
    expect(code, CODE_OK)


def check_chain_report(f: Files, p: int, code: int, doc: dict) -> None:
    expect(code, CODE_OK)
    cert = doc["certificate"]
    f.pairs().check_certificate(frozenset(doc["R"]), frozenset(doc["S"]),
                                cert["chain_a"], cert["chain_b"], cert["matching"], p)


def check_enum(f: Files, code: int, doc: dict) -> None:
    expect(code, CODE_OK)
    got = [(frozenset(x["R"]), frozenset(x["S"])) for x in doc["pairs"]]
    ck.require(got == f.pairs().plain_pairs() and doc["count"] == len(got),
               "pair list differs")


def check_reduce(f: Files, word: str, code: int, doc: dict) -> None:
    expect(code, CODE_OK)
    letters = f.letters(word)
    ck.require(f.words.equal(f.letters(doc["normal_form"]), letters),
               "normal form is another element")
    red = f.words.reduce(letters)
    length = 0 if len(red) == 1 and red[0][1] in f.words.phi else len(red)
    ck.require(doc["syllable_length"] == length, "wrong syllable length")


def check_member(f: Files, h, g, code: int, doc: dict) -> None:
    verdict = "member" if doc["verdict"] == "member" else "nonmember"
    member = ck.check_membership_outcome(f.words, h, g, verdict, doc["exponent"])
    expect(code, CODE_NEGATIVE if member else CODE_OK)


def check_isolate(f: Files, g, p: int, code: int, doc: dict) -> None:
    # Every g below is a proper power r^q with q != p, hence not isolated.
    expect(code, CODE_NEGATIVE)
    ck.require(doc["isolated"] is False, "isolated verdict for a proper power")
    ck.check_root(f.words, f.letters(doc["root"]["element"]), doc["root"]["prime"], g, p)


def check_sec3_case(code: int, doc: dict) -> None:
    """sec3 with p=2, q=3, n=2: in Z4 *_{<x^2>} Z4 the image h stays
    outside <g>, h^3 falls inside, and the root certifies non-isolation."""
    expect(code, CODE_OK)
    m = 4
    names = {s: ["e", "x"] + [f"x{i}" for i in range(2, m)] for s in "AB"}
    f = Files("", ck.FiniteAmalgam(gr.cyclic(m), gr.cyclic(m), {0: 0, 2: 2}), names)
    art = doc["artifacts"]
    h, g, root = (f.letters(art[k]) for k in ("h_image", "g_image", "root"))
    ck.require(f.words.member_exponent(h, g) is None, "h inside <g>")
    ck.require(f.words.member_exponent(f.words.power(h, 3), g) is not None, "h^3 outside <g>")
    q = int(doc["assertions"][2]["detail"].split()[-1])
    ck.check_root(f.words, root, q, g, 2)
    ck.require(doc["all_passed"], "case assertion failed")


def check_thm21_case(code: int, doc: dict) -> None:
    expect(code, CODE_OK)
    ck.require(doc["all_passed"], "case assertion failed")
    name_a, img_a, _, _ = doc["artifacts"]["order7_witness"]
    T = gr.table_by_name(name_a)
    ck.require(gr.element_order(T, img_a[0]) == 7, "order-7 witness has another order")
    hist = doc["artifacts"]["a_image_order_histogram"]
    ck.require(all(int(o) % 2 for o in hist), "even a-image order")


# ---------------------------------------------------------------------------


def make_round(workdir: str, skel: random.Random, label: random.Random) -> list[Cmd]:
    os.makedirs(workdir, exist_ok=True)
    z4 = {s: ["e", x, f"{x}2", f"{x}3"] for s, x in (("A", "a"), ("B", "b"))}
    g2 = write_presentation(workdir, "g2", label, ("Z4", "Z4", 2), 2, 2, z4)
    g2p = os.path.basename(g2.path)
    write_json(os.path.join(workdir, "free.json"), FREE_DOC)

    shape = CLI_SHAPES[skel.randrange(len(CLI_SHAPES))]
    t0 = {"A": gr.table_by_name(shape[0]), "B": gr.table_by_name(shape[1])}
    gens = {s: skel.choice([e for e in range(len(t)) if gr.element_order(t, e) == shape[2]])
            for s, t in t0.items()}
    s = write_presentation(workdir, "s", label, shape, gens["A"], gens["B"],
                           {side: gr.names_for(side.lower(), len(t)) for side, t in t0.items()})
    sp = os.path.basename(s.path)
    p = 2 if len(t0["A"]) % 2 == 0 else 3
    outside = {side: [x for x in range(len(t)) if x not in gr.generated(t, [gens[side]])]
               for side, t in t0.items()}

    def word(n):
        side = skel.choice("AB")
        out = []
        for _ in range(n):
            out.append((side, skel.choice(outside[side])))
            side = "B" if side == "A" else "A"
        return [(side, s.names[side].index(f"{side.lower()}{x}" if x else "e"))
                for side, x in out]

    h, g = word(skel.choice((1, 2, 3))), word(2)
    r = word(2)
    gm = word(2)
    hm = s.words.power(gm, skel.choice((2, 3, -1)))
    root_g = s.words.power(r, 3 if p == 2 else 2)

    return [
        Cmd(["group", "check", "g2a.json"],
            lambda c, d: (expect(c, CODE_OK), ck.require(d["order"] == 4 and d["valid"], "bad"))),
        Cmd(["amalgam", "build", g2p],
            lambda c, d: (expect(c, CODE_OK), ck.require(
                d["factor_orders"] == [4, 4] and d["amalgamated_order"] == 2, "bad build"))),
        Cmd(["amalgam", "reduce", g2p, "B:b A:a B:b"],
            lambda c, d: check_reduce(g2, "B:b A:a B:b", c, d)),
        Cmd(["amalgam", "member", g2p, "A:a B:b A:a B:b", "A:a B:b"],
            lambda c, d: check_member(g2, g2.letters("A:a B:b A:a B:b"), g2.letters("A:a B:b"), c, d)),
        Cmd(["isolate", g2p, "A:a B:b A:a B:b A:a B:b A:a2", "--p", "2"],
            lambda c, d: check_isolate(g2, g2.letters("A:a B:b A:a B:b A:a B:b A:a2"), 2, c, d)),
        Cmd(["compat", "check", g2p, "--p", "2"], lambda c, d: check_chain_report(g2, 2, c, d)),
        Cmd(["compat", "enum", g2p], lambda c, d: check_enum(g2, c, d)),
        Cmd(["witness", g2p, "A:a B:b3", "A:a B:b"],
            lambda c, d: check_witness(g2, g2.letters("A:a B:b3"), g2.letters("A:a B:b"), None, c, d)),
        Cmd(["witness", "free.json", *FREE_README, "--p", "2"], check_free_readme),
        Cmd(["case", "sec3", "--p", "2", "--q", "3", "--n", "2"], check_sec3_case),
        Cmd(["case", "thm21", "--bound", "21"], check_thm21_case),
        Cmd(["witness", sp, s.text(h), s.text(g)],
            lambda c, d: check_witness(s, h, g, None, c, d)),
        Cmd(["amalgam", "member", sp, s.text(hm), s.text(gm)],
            lambda c, d: check_member(s, hm, gm, c, d)),
        Cmd(["isolate", sp, s.text(root_g), "--p", str(p)],
            lambda c, d: check_isolate(s, root_g, p, c, d)),
        Cmd(["compat", "check", sp, "--p", str(p)], lambda c, d: check_chain_report(s, p, c, d)),
    ]


def spawn(argv: list, cwd: str) -> tuple[float, int, float]:
    """Run to completion; (wall seconds, exit code, peak RSS in MiB)."""
    with open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        dt = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return dt, proc.returncode, usage.ru_maxrss / 1024


def import_time(cwd: str, probe: speed.Probe) -> float:
    """Seconds to import amalgsep.cli in a fresh interpreter, at reference
    speed."""
    code = ("import time; t = time.perf_counter(); import amalgsep.cli; "
            "print(time.perf_counter() - t)")
    probe.sample()
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, check=True,
                         capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    probe.sample()
    return float(out.stdout) * probe.factor(t0, elapsed)


@dataclass
class Rounds:
    times: list = field(default_factory=list)       # seconds per command, per round
    scaled: list = field(default_factory=list)      # the same at reference speed
    attempted: int = 0
    errors: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    summaries: list = field(default_factory=list)   # trace counters per command
    inputs: str = ""                                 # digest of round 0's files and commands


def run_rounds(workdir: str, seed: int, keep_going, traced: bool,
               probe: speed.Probe) -> Rounds:
    out = Rounds()
    r = 0
    while True:
        rdir = os.path.join(workdir, f"round{r}")
        cmds = make_round(rdir, random.Random("skeleton:cli-cold"),
                          random.Random(f"label:cli-cold:{seed}:{r}"))
        if r == 0:
            digest = hashlib.sha256(repr([cmd.argv for cmd in cmds]).encode())
            for name in sorted(os.listdir(rdir)):
                if name.endswith(".json") and not name.startswith(("report", "trace")):
                    with open(os.path.join(rdir, name), "rb") as fh:
                        digest.update(fh.read())
            out.inputs = digest.hexdigest()[:16]
        round_times, starts = [], []
        out.times.append(round_times)
        for i, cmd in enumerate(cmds):
            report = os.path.join(rdir, f"report{i}.json")
            if os.path.exists(report):
                os.remove(report)
            prefix = [sys.executable, "-m", "amalgsep.cli"]
            if traced:
                counters = os.path.join(rdir, f"trace{i}.json")
                prefix = [sys.executable, os.path.join(HERE, "traced_cli.py"), counters]
            probe.due()
            starts.append(time.perf_counter())
            dt, code, peak = spawn(prefix + ["--out", report, *cmd.argv], rdir)
            round_times.append(dt)
            out.peak_rss_mb = max(out.peak_rss_mb, peak)
            out.attempted += 1
            try:
                with open(report, encoding="utf-8") as fh:
                    cmd.check(code, json.load(fh))
            except (AssertionError, OSError, KeyError, ValueError) as exc:
                out.errors.append(f"round {r} {' '.join(cmd.argv)}: {type(exc).__name__} {exc}")
            if traced:
                with open(counters, encoding="utf-8") as fh:
                    out.summaries.append(json.load(fh))
        probe.sample()
        out.scaled.append([probe.scale(t0, dt) for t0, dt in zip(starts, round_times)])
        r += 1
        if not keep_going(r):
            return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    os.makedirs(args.workdir, exist_ok=True)

    probe = speed.Probe(speed.spawn_reference, speed.SPAWN_REFERENCE_S)
    if not args.trace:
        # Import samples are split around the rounds, as in-process set-ups are.
        setup = [import_time(args.workdir, probe)
                 for _ in range(IMPORT_SAMPLES - IMPORT_SAMPLES // 2)]
        t_loop = time.perf_counter()
        run = run_rounds(args.workdir, args.seed,
                         lambda r: time.perf_counter() - t_loop < args.seconds, False, probe)
        setup += [import_time(args.workdir, probe) for _ in range(IMPORT_SAMPLES // 2)]
        result = {"setup_samples": setup, "times": run.scaled,
                  "raw_s": sum(map(sum, run.times))}
        errors, attempted = run.errors, run.attempted
    else:
        run = run_rounds(args.workdir, args.seed, lambda r: r < TRACE_ROUNDS, True, probe)
        plain = run_rounds(args.workdir, args.seed, lambda r: r < TRACE_ROUNDS, False, probe)
        result = {"trace": spans.merge(run.summaries), "traced_s": sum(map(sum, run.times)),
                  "untraced_s": sum(map(sum, plain.times))}
        errors, attempted = run.errors + plain.errors, run.attempted + plain.attempted
    result.update(inputs=run.inputs, attempted=attempted, failed=0, errors=errors,
                  peak_rss_mb=run.peak_rss_mb)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

import json
import os
import re
import subprocess
import sys

import pytest

import amalgsep
from amalgsep import amalgam
from amalgsep.cli import main
from conftest import spy_calls

Z4A = {"schema": 1, "order": 4,
       "table": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
       "names": ["e", "a", "a2", "a3"]}
Z4B = {"schema": 1, "order": 4,
       "table": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
       "names": ["e", "b", "b2", "b3"]}
SRC = os.path.dirname(os.path.dirname(os.path.abspath(amalgsep.__file__)))


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "z4a.json").write_text(json.dumps(Z4A))
    (tmp_path / "z4b.json").write_text(json.dumps(Z4B))
    (tmp_path / "g2.json").write_text(json.dumps({
        "schema": 1, "kind": "finite",
        "group_a": "z4a.json", "group_b": "z4b.json",
        "h": ["a2"], "k": ["b2"], "phi": {"e": "e", "a2": "b2"},
    }))
    (tmp_path / "free.json").write_text(json.dumps({
        "schema": 1, "kind": "free",
        "gens_a": ["a"], "gens_b": ["b"],
        "h_words": ["a^2"], "k_words": ["b^2"],
    }))
    return tmp_path


def run(workdir, *argv):
    out = workdir / "report.json"
    code = main(["--out", str(out), *argv])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


class TestGroupCheck:
    def test_valid_group(self, workdir):
        code, doc = run(workdir, "group", "check", str(workdir / "z4a.json"))
        assert code == 0
        assert doc["order"] == 4 and doc["valid"]

    def test_nonassociative_table_exit_2(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({
            "schema": 1, "order": 5,
            "table": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                      [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]}))
        code, _ = run(workdir, "group", "check", str(bad))
        assert code == 2
        err = capsys.readouterr().err
        assert "associative" in err and "(" in err  # names the triple

    def test_unknown_field_rejected(self, workdir):
        bad = workdir / "extra.json"
        bad.write_text(json.dumps({"schema": 1, "order": 1, "table": [[0]],
                                   "weird": True}))
        code, _ = run(workdir, "group", "check", str(bad))
        assert code == 2

    def test_missing_file(self, workdir):
        code, _ = run(workdir, "group", "check", str(workdir / "nope.json"))
        assert code == 2


class TestAmalgamCommands:
    def test_build(self, workdir):
        code, doc = run(workdir, "amalgam", "build", str(workdir / "g2.json"))
        assert code == 0
        assert doc["factor_orders"] == [4, 4]

    def test_build_free(self, workdir):
        code, doc = run(workdir, "amalgam", "build", str(workdir / "free.json"))
        assert code == 0
        assert doc["ranks"] == [1, 1]

    def test_free_without_schema_names_missing_property(self, workdir, capsys):
        bad = workdir / "free_noschema.json"
        bad.write_text(json.dumps({"kind": "free", "gens_a": ["a"], "gens_b": ["b"],
                                   "h_words": ["a^2"], "k_words": ["b^2"]}))
        code, _ = run(workdir, "amalgam", "build", str(bad))
        assert code == 2
        assert "'schema' is a required property" in capsys.readouterr().err

    def test_reduce(self, workdir):
        code, doc = run(workdir, "amalgam", "reduce", str(workdir / "g2.json"),
                        "A:a A:a")
        assert code == 0
        assert doc["syllable_length"] == 0
        assert doc["core"] == "a2"

    def test_member_power_exits_1(self, workdir):
        code, doc = run(workdir, "amalgam", "member", str(workdir / "g2.json"),
                        "A:a B:b A:a B:b", "A:a B:b")
        assert code == 1
        assert doc["verdict"] == "member" and doc["exponent"] == 2

    def test_nonmember_exits_0(self, workdir):
        code, doc = run(workdir, "amalgam", "member", str(workdir / "g2.json"),
                        "A:a B:b3", "A:a B:b")
        assert code == 0
        assert doc["verdict"] == "nonmember"

    def test_bad_letter_exit_2(self, workdir):
        code, _ = run(workdir, "amalgam", "reduce", str(workdir / "g2.json"),
                      "A:zz")
        assert code == 2


class TestIsolate:
    def test_not_isolated(self, workdir):
        code, doc = run(workdir, "isolate", str(workdir / "g2.json"),
                        "A:a B:b A:a B:b A:a B:b A:a2", "--p", "2")
        assert code == 1
        assert doc["isolated"] is False
        assert doc["root"]["prime"] == 3

    def test_not_isolated_searches_for_roots_once(self, workdir, monkeypatch):
        calls = spy_calls(monkeypatch, amalgam, "find_prime_root")
        code, doc = run(workdir, "isolate", str(workdir / "g2.json"),
                        "A:a B:b A:a B:b A:a B:b A:a2", "--p", "2")
        assert (code, doc["root"]["prime"]) == (1, 3)
        assert len(calls) == 1

    def test_isolated_with_closure(self, workdir):
        code, doc = run(workdir, "isolate", str(workdir / "g2.json"),
                        "A:a B:b A:a B:b", "--p", "2")
        assert code == 0
        assert doc["isolated"] is True
        assert doc["closure"]["index"] == 1

    def test_nonprime_p_rejected(self, workdir):
        code, _ = run(workdir, "isolate", str(workdir / "g2.json"),
                      "A:a B:b", "--p", "4")
        assert code == 2


class TestCompatCommands:
    def test_enum_five_pairs(self, workdir):
        code, doc = run(workdir, "compat", "enum", str(workdir / "g2.json"))
        assert code == 0
        assert doc["count"] == 5
        assert len(doc["pairs"]) == 5

    def test_enum_p_mode(self, workdir):
        code, doc = run(workdir, "compat", "enum", str(workdir / "g2.json"),
                        "--p", "2")
        assert code == 0
        for item in doc["pairs"]:
            assert "chain_a" in item

    def test_check_trivial_p2(self, workdir):
        code, doc = run(workdir, "compat", "check", str(workdir / "g2.json"),
                        "--p", "2")
        assert code == 0
        assert doc["certificate"]["chain_a"][-1] == [0, 1, 2, 3]

    def test_check_trivial_p3_negative(self, workdir):
        code, doc = run(workdir, "compat", "check", str(workdir / "g2.json"),
                        "--p", "3")
        assert code == 1

    def test_check_named_pair(self, workdir):
        code, doc = run(workdir, "compat", "check", str(workdir / "g2.json"),
                        "--r", "a2", "--s", "b2")
        assert code == 0 and doc["compatible"]


class TestWitness:
    def test_member_exit_1(self, workdir):
        code, doc = run(workdir, "witness", str(workdir / "g2.json"),
                        "A:a B:b A:a B:b", "A:a B:b")
        assert code == 1
        assert doc["outcome"] == "member"

    def test_separated_exit_0(self, workdir):
        code, doc = run(workdir, "witness", str(workdir / "g2.json"),
                        "A:a B:b3", "A:a B:b")
        assert code == 0
        assert doc["outcome"] == "separated"
        assert doc["certificate"]["reverified"] is True

    def test_obstructed_exit_1(self, workdir):
        code, doc = run(workdir, "witness", str(workdir / "g2.json"),
                        "A:a B:b A:a2", "A:a B:b A:a B:b A:a B:b A:a2",
                        "--p", "2")
        assert code == 1
        assert doc["outcome"] == "obstructed"
        assert doc["reason"] == "not_isolated"


    def test_free_member_is_exact(self, workdir):
        code, doc = run(workdir, "witness", str(workdir / "free.json"),
                        "A:a B:b A:a B:b A:a B:b A:a B:b", "A:a B:b")
        assert code == 1
        assert (doc["outcome"], doc["exponent"]) == ("member", 4)
        assert "pair" not in doc and "notes" not in doc

    def test_collapsed_free_nonmember_exits_3(self, workdir):
        # h = g^2 b^32, and b^32 = a^32 is central and nontrivial: h lies
        # outside <g>, but no pair up to the default bound 48 shows it.
        code, doc = run(workdir, "witness", str(workdir / "free.json"),
                        "A:a B:b A:a B:b^33", "A:a B:b", "--p", "2")
        assert code == 3
        assert doc["outcome"] == "obstructed"
        assert (doc["reason"], doc["bound"]) == ("bound_exhausted", 48)

    def test_no_length_preserving_pair_replaces_a_stale_report(self, workdir):
        # In a 3-group every element is a power of its square, so no pair
        # keeps a outside the amalgamated image <a^2> and the first pair
        # scan finds nothing: the report says so and names the bound, in
        # place of whatever an earlier run left at --out.
        (workdir / "report.json").write_text("stale")
        code, doc = run(workdir, "witness", str(workdir / "free.json"),
                        "A:a B:b A:a B:b A:a", "A:a B:b", "--p", "3")
        assert code == 3
        assert (doc["outcome"], doc["reason"], doc["bound"]) == (
            "obstructed", "bound_exhausted", 48)


def test_internal_error_exits_4_with_a_report(workdir, monkeypatch, capsys):
    # A crash is not a negative verdict (1): it gets its own code and report.
    def crash(*args, **kwargs):
        raise AssertionError("certificate failed re-verification")

    monkeypatch.setattr(amalgsep.engine, "separate_from_cyclic", crash)
    code, doc = run(workdir, "witness", str(workdir / "g2.json"), "A:a B:b3", "A:a B:b")
    assert code == 4
    assert doc == {"schema": 1, "command": "witness", "outcome": "internal_error",
                   "error": "AssertionError: certificate failed re-verification"}
    err = capsys.readouterr().err
    assert err.startswith("Traceback")
    assert err.endswith("\ninternal error: AssertionError: certificate failed re-verification\n")


def test_internal_error_report_names_both_words_of_the_command(workdir, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(amalgsep.amalgam, "normalize", crash)
    code, doc = run(workdir, "amalgam", "reduce", str(workdir / "g2.json"), "A:a")
    assert code == 4
    assert doc == {"schema": 1, "command": "amalgam reduce", "outcome": "internal_error",
                   "error": "RuntimeError: boom"}


def test_contract_violation_exits_4_also_under_optimize(workdir):
    # A check that only amalgsep's own data can fail is not bad input. With
    # the free quotient's kernel test forced to fail, the README free query
    # crashes with a report, also in a process where asserts are off.
    code = """
import sys
import amalgsep.compat
from amalgsep.cli import main
amalgsep.compat.induced_map = lambda u, v: None
sys.exit(main(["--out", "report.json", "witness", "free.json", "A:a B:b^7",
               "A:a B:b A:a B:b A:a B:b A:a^2", "--p", "2"]))
"""
    out = subprocess.run([sys.executable, "-O", "-c", code], cwd=workdir,
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True)
    assert out.returncode == 4
    assert json.loads((workdir / "report.json").read_text()) == {
        "schema": 1, "command": "witness", "outcome": "internal_error",
        "error": "AssertionError: restriction kernels differ"}
    # A fresh process imports ``traceback`` only here, in the crash path.
    assert out.stderr.startswith("Traceback")
    assert out.stderr.endswith("\ninternal error: AssertionError: restriction kernels differ\n")



def test_broken_quotient_identification_exits_4_also_under_optimize(workdir):
    # ``build_amalgam`` checks a map that presentation files supply, so its
    # failures are input errors; on a map the program built itself, the
    # same failure is a broken contract. Two values of the free quotient's
    # identification are swapped, so it is a bijection but no isomorphism.
    code = """
import sys
import amalgsep.compat
from amalgsep.cli import main
real = amalgsep.compat.induced_map

def swapped(u, v):
    iso = real(u, v)
    if iso is not None and len(iso) > 2:
        a, b = sorted(iso)[1:3]
        iso[a], iso[b] = iso[b], iso[a]
    return iso

amalgsep.compat.induced_map = swapped
sys.exit(main(["--out", "report.json", "witness", "free.json", "A:a B:b^7",
               "A:a B:b A:a B:b A:a B:b A:a^2", "--p", "2"]))
"""
    out = subprocess.run([sys.executable, "-O", "-c", code], cwd=workdir,
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True)
    assert out.returncode == 4, out.stderr
    error = "AssertionError: map is not an isomorphism: fails on pair (2, 2)"
    assert json.loads((workdir / "report.json").read_text()) == {
        "schema": 1, "command": "witness", "outcome": "internal_error", "error": error}
    assert out.stderr.startswith("Traceback")
    assert out.stderr.endswith(f"\ninternal error: {error}\n")

S3 = {"schema": 1, "order": 6,
      "table": [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
                [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]],
      "names": ["e", "t", "u", "r", "r2", "v"]}
BAD_INPUTS = {
    "s3.json": S3,
    "s3z4.json": {"schema": 1, "kind": "finite", "group_a": "s3.json",
                  "group_b": "z4b.json", "h": [], "k": [], "phi": {"e": "e"}},
    "nonhom.json": {"schema": 1, "kind": "finite", "group_a": "z4a.json",
                    "group_b": "z4b.json", "h": ["a"], "k": ["b"],
                    "phi": {"e": "e", "a": "b", "a2": "b3", "a3": "b2"}},
    "two-words.json": {"schema": 1, "kind": "free", "gens_a": ["a", "c"],
                       "gens_b": ["b", "d"], "h_words": ["a", "c^2"], "k_words": ["b", "d^2"]},
    "powers.json": {"schema": 1, "kind": "free", "gens_a": ["a"], "gens_b": ["b"],
                    "h_words": ["a^2", "a^3"], "k_words": ["b^2", "b^3"]},
    "repeated-word.json": {"schema": 1, "kind": "free", "gens_a": ["a", "c"],
                           "gens_b": ["b", "d"], "h_words": ["a", "c"],
                           "k_words": ["b d", "b d"]},
    "unequal.json": {"schema": 1, "kind": "free", "gens_a": ["a"], "gens_b": ["b"],
                     "h_words": ["a^2"], "k_words": ["b^2", "b^3"]},
    "repeated-gen.json": {"schema": 1, "kind": "free", "gens_a": ["a", "a"], "gens_b": ["b"],
                          "h_words": ["a^2"], "k_words": ["b^2"]},
    "trivial-word.json": {"schema": 1, "kind": "free", "gens_a": ["a"], "gens_b": ["b"],
                          "h_words": ["a^2"], "k_words": ["b b^-1"]},
}


@pytest.mark.parametrize("argv, message", [
    (["isolate", "g2.json", "A:a", "--p", "2"],
     "precondition violated: infinite-order (element has finite order)"),
    (["compat", "check", "s3z4.json", "--r", "t"], "R is not normal in A"),
    (["amalgam", "build", "nonhom.json"], "map is not an isomorphism: fails on pair (1, 1)"),
    (["case", "sec3", "--p", "3", "--q", "3"], "p and q must be distinct primes"),
    (["witness", "g2.json", "A:a", "A:e"], "g must be nontrivial"),
    (["witness", "two-words.json", "A:a", "B:b"],
     "free-side separation supports cyclic amalgamated subgroups "
     "(exactly one basis word per side)"),
    (["amalgam", "build", "unequal.json"], "amalgamated bases must have equal length"),
    (["amalgam", "build", "repeated-gen.json"], "generator names of side A repeat: ['a', 'a']"),
    (["witness", "trivial-word.json", "A:a", "A:a^2"],
     "basis word 1 of side B reduces to the identity, so the basis is not free"),
    (["amalgam", "build", "powers.json"], "the basis words of side A generate a subgroup "
     "of rank 1, not 2, so the basis is not free"),
    (["amalgam", "build", "repeated-word.json"], "the basis words of side B generate a "
     "subgroup of rank 1, not 2, so the basis is not free"),
], ids=["finite-order", "non-normal-r", "phi-not-homomorphism", "equal-primes",
        "trivial-g", "two-basis-words", "unequal-bases", "repeated-generator",
        "trivial-basis-word", "non-free-powers", "non-free-repeated-word"])
def test_user_reachable_check_is_an_input_error(workdir, monkeypatch, capsys, argv, message):
    # Checks made on the user's behalf below the CLI: exit 2, one line, no report.
    for name, doc in BAD_INPUTS.items():
        (workdir / name).write_text(json.dumps(doc))
    monkeypatch.chdir(workdir)
    assert run(workdir, *argv) == (2, None)
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["amalgam", "build", "g2.json"],
    ["group", "check", "z4a.json"],
], ids=["amalgam-build", "group-check"])
def test_unwritable_out_is_an_input_error(workdir, monkeypatch, capsys, argv):
    # The report is written before the summary is printed, so a path that
    # cannot be written leaves stdout empty and says why in one line.
    monkeypatch.chdir(workdir)
    missing = workdir / "missing" / "r.json"
    code = main(["--out", str(missing), *argv])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(missing) in err
    assert not missing.exists()


@pytest.mark.parametrize("argv", [
    ["witness", "g2.json", "A:a B:b3", "A:a B:b", "--max-order", "0"],
    ["case", "thm21", "--bound", "0"],
    ["case", "cyclic-remark", "--trials", "-1"],
    ["case", "sec3", "--n", "0"],
], ids=["max-order", "bound", "trials", "n"])
def test_bound_below_1_is_an_input_error(workdir, capsys, argv):
    # Not "bound exhausted" (3), a failed case (1) or a default run.
    with pytest.raises(SystemExit) as exc:
        run(workdir, *argv)
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not (workdir / "report.json").exists()


def test_python_dash_m_runs_the_cli():
    out = subprocess.run([sys.executable, "-m", "amalgsep", "--help"],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.startswith("usage: amalgsep")


class TestCase:
    def test_sec3(self, workdir):
        code, doc = run(workdir, "case", "sec3", "--p", "2", "--q", "3", "--n", "2")
        assert code == 0
        assert doc["all_passed"] is True
        assert len(doc["assertions"]) == 3

    def test_sec3_searches_for_roots_once(self, workdir, monkeypatch):
        calls = spy_calls(monkeypatch, amalgam, "find_prime_root")
        code, doc = run(workdir, "case", "sec3")
        assert code == 0 and doc["artifacts"]["root"] is not None
        assert len(calls) == 1

    def test_cyclic_remark_smoke(self, workdir):
        code, doc = run(workdir, "case", "cyclic-remark", "--trials", "5")
        assert code == 0

    def test_reports_are_byte_identical(self, workdir, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        main(["--out", str(out1), "case", "sec3", "--p", "2", "--q", "3", "--n", "2"])
        main(["--out", str(out2), "case", "sec3", "--p", "2", "--q", "3", "--n", "2"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_reports_reparse_and_validate(self, workdir):
        code, doc = run(workdir, "case", "sec3")
        assert json.loads(json.dumps(doc)) == doc
        assert doc["schema"] == 1


class TestSchemasAndFlags:
    def test_large_group_verified_exactly(self, workdir, capsys):
        n = 70
        big = {"schema": 1, "order": n,
               "table": [[(i + j) % n for j in range(n)] for i in range(n)]}
        path = workdir / "z70.json"
        path.write_text(json.dumps(big))
        code, doc = run(workdir, "group", "check", str(path))
        assert code == 0
        assert doc["associativity"] == "verified"
        assert capsys.readouterr().out == "group OK: order 70, associativity verified\n"

    def test_nonassociative_order_256_table_exit_2(self, workdir, capsys):
        # Z256 with one intercalate swapped: cells (5, 1) and (133, 129) hold
        # 6, cells (5, 129) and (133, 1) hold 134. The result is a Latin
        # square with identity that fails associativity on (1, 4, 1), and
        # that no sample of random triples is bound to hit.
        n = 256
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        for a, b in ((5, 1), (5, 129), (133, 1), (133, 129)):
            table[a][b] = 134 if table[a][b] == 6 else 6
        assert table[table[1][4]][1] != table[1][table[4][1]]
        path = workdir / "z256-swapped.json"
        path.write_text(json.dumps({"schema": 1, "order": n, "table": table}))
        code, doc = run(workdir, "group", "check", str(path))
        assert (code, doc) == (2, None)
        err = capsys.readouterr().err
        x, y, z = map(int, re.fullmatch(
            r"error: table is not associative on triple \((\d+), (\d+), (\d+)\)\n", err).groups())
        assert table[table[x][y]][z] != table[x][table[y][z]]


import json

import pytest

from amalgsep.cli import main

Z4A = {"schema": 1, "order": 4,
       "table": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
       "names": ["e", "a", "a2", "a3"]}
Z4B = {"schema": 1, "order": 4,
       "table": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
       "names": ["e", "b", "b2", "b3"]}


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


class TestCase:
    def test_sec3(self, workdir):
        code, doc = run(workdir, "case", "sec3", "--p", "2", "--q", "3", "--n", "2")
        assert code == 0
        assert doc["all_passed"] is True
        assert len(doc["assertions"]) == 3

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
    def test_large_group_flagged_unverified(self, workdir):
        n = 70
        big = {"schema": 1, "order": n,
               "table": [[(i + j) % n for j in range(n)] for i in range(n)]}
        path = workdir / "z70.json"
        path.write_text(json.dumps(big))
        code, doc = run(workdir, "group", "check", str(path))
        assert code == 0
        assert doc["associativity"] == "unverified-associativity"

    def test_element_schema_roundtrip(self):
        from amalgsep.cli import validate_document
        doc = {"schema": 1, "letters": "A:a B:b A:a3"}
        validate_document(doc, "element")
        with pytest.raises(Exception):
            validate_document({"schema": 1, "letters": "A:a", "extra": 1},
                              "element")

    def test_group_json_roundtrip(self, workdir):
        from amalgsep.fingrp import group_from_json, group_to_json, load_group
        G = load_group(str(workdir / "z4a.json"))
        doc = group_to_json(G)
        again = group_from_json(doc)
        assert again.table == G.table and again.names == G.names

    def test_job_document_validates(self):
        from amalgsep.cli import JobSpec, validate_document
        job = JobSpec(command="witness", inputs=["g2.json"],
                      parameters={"p": 2, "max_order": 64}, output="r.json")
        validate_document(job.to_json(), "job")
        with pytest.raises(Exception):
            JobSpec(command="witness", inputs=[], parameters={"p": 6},
                    output=None)

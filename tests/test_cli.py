import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from functools import cache
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from zham import GraphError, cli, verifier
from zham.cli import main
from zham.core import MASK_N
from zham.fileio import MAX_HEADER_N, parse_graph_text
from zham.verifier import CLAIMS, Claim, run_suite

C3_TEXT = "D 3\n1 2\n2 3\n3 1\n"
ZK3_TEXT = "B 3\n1 2\n1 3\n2 1\n2 3\n3 1\n3 2\n"
ZC3_TEXT = "B 3\n1 2\n2 3\n3 1\n"

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schemas" / "cli-output.schema.json"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden(name):
    """Exact stdout of one subcommand, as first recorded in tests/golden."""
    return (GOLDEN / name).read_text(encoding="utf-8")


def _validate(payload, def_name):
    if jsonschema is None:
        pytest.skip("jsonschema not installed")
    schema = json.loads(SCHEMA_PATH.read_text())
    resolved = {"$ref": f"#/$defs/{def_name}", "$defs": schema["$defs"]}
    jsonschema.validate(payload, resolved)


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.txt"
    path.write_text(C3_TEXT)
    return str(path)


@pytest.fixture
def zk3_file(tmp_path):
    path = tmp_path / "zk3.txt"
    path.write_text(ZK3_TEXT)
    return str(path)


class TestZmapCommand:
    def test_triangle_maps_to_its_pairs(self, c3_file, capsys):
        assert main(["zmap", c3_file]) == 0
        assert capsys.readouterr().out == "B 3\n1 2\n2 3\n3 1\n"

    def test_self_loop_exits_3_and_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "loop.txt"
        path.write_text("D 2\n1 1\n")
        assert main(["zmap", str(path)]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_empty_digraph_gives_header_only(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("D 4\n")
        assert main(["zmap", str(path)]) == 0
        assert capsys.readouterr().out == "B 4\n"

    def test_dot_export_marks_parts(self, c3_file, tmp_path):
        out = tmp_path / "image.txt"
        dot = tmp_path / "image.dot"
        assert main(["zmap", c3_file, "-o", str(out), "--dot", str(dot)]) == 0
        text = dot.read_text()
        assert "node [shape=box];" in text and "node [shape=circle];" in text

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("D x\n")
        assert main(["zmap", str(path)]) == 2

    def test_wrong_kind_exits_3(self, zk3_file):
        assert main(["zmap", zk3_file]) == 3

    def test_round_trip_through_unzmap(self, c3_file, tmp_path, capsys):
        image = tmp_path / "image.txt"
        assert main(["zmap", c3_file, "-o", str(image)]) == 0
        assert main(["unzmap", str(image)]) == 0
        assert capsys.readouterr().out == C3_TEXT

    def test_file_round_trip_for_every_three_vertex_digraph(self, tmp_path, capsys):
        from zham import serialize_graph
        from zham.verifier import enumerate_digraphs

        source = tmp_path / "d.txt"
        image = tmp_path / "b.txt"
        for d in enumerate_digraphs(3):
            normalized = serialize_graph(d)
            source.write_text(normalized)
            assert main(["zmap", str(source), "-o", str(image)]) == 0
            assert main(["unzmap", str(image)]) == 0
            assert capsys.readouterr().out == normalized


class TestSolverCommands:
    def test_ham_finds_the_triangle(self, c3_file, capsys):
        assert main(["ham", c3_file]) == 0
        out = capsys.readouterr().out
        assert out == _golden("ham.json")
        payload = json.loads(out)
        assert payload["found"] is True and payload["cycle"] == [1, 2, 3]
        _validate(payload, "solve")

    def test_ham_not_found_still_exits_0(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("D 3\n1 2\n2 3\n")
        assert main(["ham", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["found"] is False

    def test_ham_on_a_long_cycle_needs_no_recursion(self, tmp_path, capsys):
        n = 3000
        path = tmp_path / "c3000.txt"
        path.write_text(f"D {n}\n" + "".join(f"{v} {v % n + 1}\n" for v in range(1, n + 1)))
        assert main(["ham", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["found"] is True and payload["nodes_explored"] == n
        assert payload["cycle"] == list(range(1, n + 1))

    def test_ham_budget_exhaustion_exits_4(self, tmp_path, capsys):
        path = tmp_path / "k5.txt"
        arcs = [(u, v) for u in range(1, 6) for v in range(1, 6) if u != v]
        path.write_text("D 5\n" + "".join(f"{u} {v}\n" for u, v in arcs))
        assert main(["ham", str(path), "--budget", "2"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["exhausted"] is True
        _validate(payload, "solve")

    @pytest.mark.parametrize("cmd", ["ham", "pushforward"])
    def test_negative_budget_flag_exits_2(self, c3_file, cmd, capsys):
        assert main([cmd, c3_file, "--budget", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --budget must be at least 0, got -5\n"

    def test_negative_budget_exits_2_before_a_sweep(self, capsys):
        assert main(["verify", "--claims", "thm-gz", "--n-max", "1", "--budget", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "budget must be None or a non-negative integer, got -3"
        assert captured.err == f"error: {message}\n"

    def test_budget_zero_still_exhausts_at_once(self, c3_file, capsys):
        assert main(["ham", c3_file, "--budget", "0"]) == 4
        assert json.loads(capsys.readouterr().out)["nodes_explored"] == 1

    def test_bipham_reports_tagged_cycle(self, zk3_file, capsys):
        assert main(["bipham", zk3_file]) == 0
        out = capsys.readouterr().out
        assert out == _golden("bipham.json")
        payload = json.loads(out)
        assert payload["cycle"] == ["x1", "y2", "x3", "y1", "x2", "y3"]
        _validate(payload, "solve")

    def test_gham(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("G 3\n1 2\n2 3\n1 3\n")
        assert main(["gham", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == _golden("gham.json")
        assert json.loads(out)["cycle"] == [1, 2, 3]

    def test_match(self, tmp_path, capsys):
        path = tmp_path / "zc3.txt"
        path.write_text(ZC3_TEXT)
        assert main(["match", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == _golden("match.json")
        payload = json.loads(out)
        assert payload == {"pairs": [[1, 2], [2, 3], [3, 1]], "perfect": True, "size": 3}
        _validate(payload, "match")

    def test_pm2(self, zk3_file, capsys):
        assert main(["pm2", zk3_file]) == 0
        out = capsys.readouterr().out
        assert out == _golden("pm2.json")
        payload = json.loads(out)
        assert payload["found"] is True
        assert not set(map(tuple, payload["first"])) & set(map(tuple, payload["second"]))
        _validate(payload, "pm2")

    def test_pm2_on_a_long_cycle_needs_no_recursion(self, tmp_path, capsys):
        # the 6,000-cycle x_i ~ y_i, y_(i+1): exactly two perfect matchings
        n = 3000
        path = tmp_path / "b6000.txt"
        lines = [f"{i} {i}\n{i} {i % n + 1}\n" for i in range(1, n + 1)]
        path.write_text(f"B {n}\n" + "".join(lines))
        assert main(["pm2", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["found"] is True and payload["nodes_explored"] == n
        assert payload["first"] == [[i, i] for i in range(1, n + 1)]
        assert sorted(payload["second"]) == [[i, i % n + 1] for i in range(1, n + 1)]

    def test_match_on_a_long_augmenting_path_needs_no_recursion(self, tmp_path, capsys):
        # x_i ~ y_i, y_(i+1) for i < n and x_n ~ y_1: the last phase augments
        # along one path of 2n - 1 edges
        n = 3000
        lines = [f"{i} {i}\n{i} {i + 1}\n" for i in range(1, n)] + [f"{n} 1\n"]
        path = tmp_path / "long_path.txt"
        path.write_text(f"B {n}\n" + "".join(lines))
        assert main(["match", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["size"] == n and payload["perfect"] is True

    def test_pushforward_triangle(self, c3_file, capsys):
        assert main(["pushforward", c3_file]) == 0
        out = capsys.readouterr().out
        assert out == _golden("pushforward.json")
        payload = json.loads(out)
        assert payload["matching"] == [[1, 2], [2, 3], [3, 1]]
        assert payload["perfect"] is True
        _validate(payload, "pushforward")

    def test_pullback_splits_the_six_cycle(self, zk3_file, capsys):
        assert main(["pullback", zk3_file]) == 0
        out = capsys.readouterr().out
        assert out == _golden("pullback.json")
        payload = json.loads(out)
        assert payload["first_half"] == [[1, 2], [2, 3], [3, 1]]
        assert payload["second_half"] == [[1, 3], [2, 1], [3, 2]]
        assert payload["first_half_is_cycle_factor"] is True
        _validate(payload, "pullback")

    def test_pullback_without_cycle_reports_not_found(self, tmp_path, capsys):
        path = tmp_path / "zc3.txt"
        path.write_text(ZC3_TEXT)
        assert main(["pullback", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["found"] is False


class TestConditionsCommand:
    def test_woodall_on_triangle_lists_the_pair(self, c3_file, capsys):
        assert main(["conditions", c3_file, "--id", "woodall"]) == 0
        payload = json.loads(capsys.readouterr().out)
        _validate(payload, "conditions")
        report = payload["reports"][0]
        assert report["condition_id"] == "woodall"
        assert report["hypothesis_holds"] is False
        assert {"pair": [2, 1], "degree_sum": 2} in report["violating_items"]

    def test_all_applicable_conditions_run(self, c3_file, capsys):
        assert main(["conditions", c3_file]) == 0
        out = capsys.readouterr().out
        assert out == _golden("conditions.json")
        payload = json.loads(out)
        ids = {r["condition_id"] for r in payload["reports"]}
        assert ids == {"ghouila-houri", "zhu", "cor1-disjoint-hc", "woodall", "cor2-woodall-plus2"}

    def test_bipartite_runs_moon_moser_per_admissible_k(self, tmp_path, capsys):
        path = tmp_path / "k33.txt"
        path.write_text("B 3\n" + "".join(f"{i} {j}\n" for i in (1, 2, 3) for j in (1, 2, 3)))
        assert main(["conditions", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        ks = [r["parameters"]["k"] for r in payload["reports"] if r["condition_id"] == "moon-moser-k"]
        assert ks == [2]

    def test_unknown_id_is_a_flag_error(self, c3_file):
        assert main(["conditions", c3_file, "--id", "nope"]) == 2

    def test_inapplicable_id_exits_3(self, c3_file):
        assert main(["conditions", c3_file, "--id", "dirac"]) == 3

    def test_bad_k_exits_3(self, tmp_path):
        path = tmp_path / "k33.txt"
        path.write_text("B 3\n1 1\n")
        assert main(["conditions", str(path), "--id", "moon-moser-k", "--k", "9"]) == 3

    def test_moon_moser_k_on_digraph_input_exits_3(self, c3_file, capsys):
        assert main(["conditions", c3_file, "--id", "moon-moser-k"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: moon-moser-k applies to bipartite input only\n"

    def test_moon_moser_k_on_part_size_two_exits_3(self, tmp_path, capsys):
        # 1 < k < n admits no k when n = 2
        path = tmp_path / "k22.txt"
        path.write_text("B 2\n1 1\n1 2\n2 1\n2 2\n")
        assert main(["conditions", str(path), "--id", "moon-moser-k"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no admissible k for part size 2 (need 1 < k < n)\n"

    def test_k_on_digraph_input_exits_3(self, c3_file, capsys):
        assert main(["conditions", c3_file, "--k", "7"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--k is read by moon-moser-k only" in captured.err

    def test_k_beside_another_id_exits_3(self, tmp_path, capsys):
        path = tmp_path / "k33.txt"
        path.write_text("B 3\n" + "".join(f"{i} {j}\n" for i in (1, 2, 3) for j in (1, 2, 3)))
        assert main(["conditions", str(path), "--id", "las-vergnas", "--k", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--k is read by moon-moser-k only" in captured.err

    def test_table_format(self, c3_file, capsys):
        assert main(["conditions", c3_file, "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "woodall" in out and "condition" in out
        assert out == _golden("conditions_table.txt")


class TestVerifyCommand:
    def test_clean_established_run_exits_0(self, tmp_path, capsys):
        assert main(["verify", "--claims", "thm-gz", "--n-max", "3"]) == 0
        out = capsys.readouterr().out
        assert "thm-gz" in out and "ok" in out

    def test_adjudicated_counterexamples_exit_0(self, capsys):
        assert main(["verify", "--claims", "mm-k", "--n-max", "3"]) == 0
        assert "FALSIFIED" in capsys.readouterr().out

    def test_json_report_validates_and_counts(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "verify", "--claims", "thm-gz", "--n-max", "4",
                "--format", "json", "--report", str(report_path),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        _validate(payload, "verifyReport")
        assert payload == json.loads(report_path.read_text())
        claim = payload["claims"][0]
        assert claim["instances_scanned"] == 1 + 4 + 64 + 4096
        assert claim["counterexample_count"] == 0

    def test_store_lines_validate(self, tmp_path):
        store = tmp_path / "ce.jsonl"
        assert main(["verify", "--claims", "mm-k", "--n-max", "3", "--store", str(store)]) == 0
        for line in store.read_text().splitlines():
            _validate(json.loads(line), "storeLine")

    def test_default_json_report_is_byte_stable(self, capsys):
        assert main(["verify", "--n-max", "3", "--format", "json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "daf0285d786d7ac09dd65727777ac840834a61206687f5357e68f19f2433899c"

    def test_exhaustive_size_above_cap_exits_3_before_sweeping(self, monkeypatch, capsys):
        def no_decode(n, mask, universe=None):
            raise AssertionError("an instance was decoded before the size cap was checked")

        monkeypatch.setitem(verifier._KIND_UNIVERSE, "digraph", (verifier.arc_universe, no_decode))
        assert main(["verify", "--claims", "thm-gz", "--n-min", "6", "--n-max", "6"]) == 3
        assert "capped at n=5" in capsys.readouterr().err

    def test_random_mode_has_no_size_cap(self, capsys):
        args = [
            "verify", "--claims", "thm-gz", "--n-min", "6", "--n-max", "6",
            "--mode", "random", "--samples", "20", "--seed", "1",
        ]
        assert main(args) == 0
        assert "thm-gz" in capsys.readouterr().out

    def test_random_size_above_mask_n_exits_3(self, capsys):
        n = str(MASK_N + 1)
        args = [
            "verify", "--claims", "dirac", "--n-min", n, "--n-max", n,
            "--mode", "random", "--samples", "1",
        ]
        assert main(args) == 3
        assert f"capped at n={MASK_N}" in capsys.readouterr().err

    def test_random_mode_is_reproducible(self, capsys):
        args = [
            "verify", "--claims", "thm-zg", "--n-max", "4", "--mode", "random",
            "--samples", "150", "--seed", "42", "--format", "json",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_a_repeated_claim_id_is_listed_once(self, capsys):
        assert main(["verify", "--claims", "thm-gz,thm-gz", "--n-max", "3"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[:3] for row in rows] == [["thm-gz", "digraph", "69"]]

    def test_unknown_claim_exits_2(self):
        assert main(["verify", "--claims", "nope"]) == 2

    def test_unknown_claims_are_named_as_the_sweep_names_them(self, capsys):
        assert main(["verify", "--claims", "foo,thm-gz,bar"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        with pytest.raises(GraphError) as exc:
            run_suite(["foo", "thm-gz", "bar"], [1])
        assert captured.err == f"error: {exc.value}\n"
        assert captured.err.startswith("error: unknown claim id(s) foo, bar; known: ")

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_random_mode_needs_a_positive_sample_count(self, samples, capsys):
        args = ["verify", "--claims", "thm-zg", "--mode", "random", "--samples", samples]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"samples must be a positive integer in random mode, got {samples}"
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("claims", [",", " , ,"])
    def test_claims_naming_no_id_exit_2(self, claims, capsys):
        assert main(["verify", "--claims", claims]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        with pytest.raises(GraphError) as exc:  # the sweep's own message
            run_suite([], [1])
        assert captured.err == f"error: {exc.value}\n"
        assert captured.err.startswith("error: claim_ids names no claim id; known: ")

    @pytest.mark.parametrize("claims", ["", "all"])
    def test_empty_or_all_claims_sweep_every_claim(self, claims, capsys):
        assert main(["verify", "--claims", claims, "--n-max", "1"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert sorted(row.split()[0] for row in rows) == sorted(CLAIMS)

    def test_bad_range_exits_2(self, capsys):
        for n_min, n_max, message in (
            (3, 2, "n_values names no instance size"),
            (0, 2, "instance size must be a positive integer, got 0"),
        ):
            assert main(["verify", "--n-min", str(n_min), "--n-max", str(n_max)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            with pytest.raises(GraphError) as exc:  # the sweep's own message
                run_suite(None, range(n_min, n_max + 1))
            assert captured.err == f"error: {exc.value}\n" == f"error: {message}\n"

    def test_store_io_failure_exits_6(self, tmp_path):
        assert (
            main(["verify", "--claims", "mm-k", "--n-max", "3", "--store", str(tmp_path)])
            == 6
        )

    def test_unwritable_report_exits_6_before_sweeping(self, tmp_path, monkeypatch, capsys):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the report path was checked")

        monkeypatch.setattr("zham.cli.run_suite", no_sweep)
        store = tmp_path / "store.jsonl"
        for report in (tmp_path / "no" / "such" / "dir" / "r.json", tmp_path):
            assert main(["verify", "--report", str(report), "--store", str(store)]) == 6
            assert capsys.readouterr().err == f"error: cannot write report {report}\n"
        assert not store.exists()

    def test_the_report_check_leaves_an_earlier_report_whole(self, tmp_path):
        # a size-cap refusal after the check must not have truncated the file
        report = tmp_path / "report.json"
        report.write_text("earlier\n")
        args = ["verify", "--claims", "thm-gz", "--n-max", "6", "--report", str(report)]
        assert main(args) == 3
        assert report.read_text() == "earlier\n"

    def test_established_counterexample_exits_5(self, monkeypatch, capsys):
        real = CLAIMS["thm-gz"]

        def broken_conclusion(instance, budget):
            return False, {"sabotaged": True}

        monkeypatch.setitem(
            CLAIMS,
            "thm-gz",
            Claim(
                real.claim_id,
                real.instance_kind,
                real.established,
                real.description,
                real.hypothesis,
                broken_conclusion,
            ),
        )
        assert main(["verify", "--claims", "thm-gz", "--n-max", "2"]) == 5
        assert "BUG" in capsys.readouterr().out

    def test_missing_subcommand_exits_2(self):
        assert main([]) == 2

    def test_report_file_and_json_stdout_are_one_encoding(self, tmp_path, monkeypatch, capsys):
        calls = []
        real = verifier.indented_chunks

        def counting(report):
            calls.append(1)
            return real(report)

        monkeypatch.setattr("zham.cli.indented_chunks", counting)
        report = tmp_path / "report.json"
        args = ["verify", "--n-max", "2", "--format", "json", "--report", str(report)]
        assert main(args) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.encode() == report.read_bytes()


class TestOneParserPerProcess:
    def test_later_calls_build_no_parser(self, c3_file, monkeypatch, capsys):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        monkeypatch.setattr(cli, "_parser", cache(cli.build_parser))  # not yet built
        after_each = []
        for _ in range(10):
            assert main(["ham", c3_file]) == 0
            after_each.append(len(built))
        assert after_each[0] > 0
        assert after_each == after_each[:1] * 10

    def test_no_state_leaks_from_one_call_to_the_next(self, tmp_path, c3_file, capsys):
        k5 = tmp_path / "k5.txt"
        arcs = [(u, v) for u in range(1, 6) for v in range(1, 6) if u != v]
        k5.write_text("D 5\n" + "".join(f"{u} {v}\n" for u, v in arcs))
        assert main(["ham", str(k5), "--budget", "2"]) == 4
        capsys.readouterr()
        assert main(["ham", str(k5)]) == 0  # the default budget again
        assert json.loads(capsys.readouterr().out)["exhausted"] is False
        assert main(["conditions", c3_file, "--id", "woodall"]) == 0
        capsys.readouterr()
        assert main(["conditions", c3_file]) == 0  # every report again
        assert capsys.readouterr().out == _golden("conditions.json")

    @pytest.mark.parametrize(
        "command, name",
        [
            ("ham", "find_hamiltonian_cycle"),
            ("pm2", "find_two_disjoint_perfect_matchings"),
            ("zmap", "zmap"),
        ],
    )
    def test_a_function_rebound_after_a_call_is_the_one_used(
        self, command, name, c3_file, zk3_file, monkeypatch, capsys
    ):
        path = zk3_file if command == "pm2" else c3_file
        assert main([command, path]) == 0
        first = capsys.readouterr().out
        calls = []
        real = getattr(cli, name)

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, name, spy)
        assert main([command, path]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == first


class TestInputLimits:
    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bom16.txt"
        path.write_bytes(b"\xff\xfeD 3\n1 2\n")
        assert main(["ham", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "UTF-8" in err

    def test_header_above_cap_is_a_validation_error(self):
        with pytest.raises(GraphError, match="cap"):
            parse_graph_text(f"D {MAX_HEADER_N + 1}\n")

    @pytest.mark.parametrize("kind", ["D", "B", "G"])
    def test_header_above_cap_exits_3(self, kind, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text(f"{kind} {MAX_HEADER_N + 1}\n")
        assert main(["ham" if kind == "D" else "conditions", str(path)]) == 3
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["D", "B", "G"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_header_below_one_exits_3(self, kind, n, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text(f"{kind} {n}\n")
        assert main(["conditions", str(path)]) == 3
        assert capsys.readouterr().err == f"error: header size {n} is below 1 at line 1\n"


# ---------------------------------------------------------------------------
# Module entry points


@pytest.mark.parametrize("module", ["zham", "zham.cli"])
def test_python_dash_m_runs_the_command_line(module):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", module, "verify", "--n-max", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert lines[0].split()[:3] == ["claim", "kind", "scanned"]
    assert len(lines) == 1 + len(CLAIMS)


# runs the command line with its address space capped at 1 GB
CAPPED_MAIN = """\
import resource, sys
from zham.cli import main

resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
sys.exit(main(sys.argv[1:]))
"""


def test_an_over_long_size_range_is_refused_at_its_cap():
    # the request check reads --n-min..--n-max by its bounds, so the cap
    # refuses n = 6 without a billion sizes listed; listed, they ended in
    # a MemoryError traceback
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = ["verify", "--claims", "thm-gz", "--n-max", "1000000000"]
    done = subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, *argv],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "error: digraph enumeration capped at n=5, got n=6\n"


# sha256 of the report `zham verify` writes at its defaults
DEFAULT_REPORT_SHA256 = "216c15eadd00bad5b912d1329c89b6f94c23c6ba94d7742c9fc1d7bca7deddcc"

# runs `zham verify` as its own child and prints its exit code and peak RSS
# in MB.  On Linux a process's ru_maxrss starts from the peak of the process
# that spawned it (a vfork child takes its parent's across exec), so the
# command is spawned from this small interpreter, not from the test process.
DEFAULT_VERIFY = """\
import resource, subprocess, sys

argv = [sys.executable, "-m", "zham", "verify", "--report", sys.argv[1], "--store", sys.argv[2]]
code = subprocess.run(argv, stdout=subprocess.DEVNULL).returncode
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
"""


class TestDefaultVerify:
    """``zham verify --report R --store S`` at its defaults, in a fresh
    interpreter: 15 claims on every instance with n <= 4, 41,664
    counterexamples and a 26.8 MB report.  The report is written chunk by
    chunk, one per counterexample entry, so the process peaks near 39 MB;
    writing the whole report as one bytes buffer it peaked near 63 MB, and
    holding it as bytes and text at once, with fresh details per
    counterexample, near 123 MB."""

    PEAK_MB = 50
    STORE_LINES = 41_664

    def test_report_store_and_peak_memory(self, tmp_path):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        report, store = tmp_path / "report.json", tmp_path / "store.jsonl"
        done = subprocess.run(
            [sys.executable, "-c", DEFAULT_VERIFY, str(report), str(store)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert (done.returncode, done.stderr) == (0, "")
        code, peak_mb = done.stdout.split()
        assert code == "0"
        assert hashlib.sha256(report.read_bytes()).hexdigest() == DEFAULT_REPORT_SHA256
        assert store.read_bytes().count(b"\n") == self.STORE_LINES
        assert float(peak_mb) < self.PEAK_MB


# ---------------------------------------------------------------------------
# Exit-code contract under fuzzed input

FUZZ_MAX_N = 64
FUZZ_COMMANDS = (
    ["ham", "--budget", "5"],
    ["bipham", "--budget", "5"],
    ["gham", "--budget", "5"],
    ["match"],
    ["pm2", "--budget", "5"],
    ["conditions"],
    ["zmap"],
    ["unzmap"],
)


def _header_n(data):
    """The n of the header ``parse_graph_text`` would read, or None."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            fields = line.split()
            try:
                return int(fields[1]) if len(fields) == 2 else None
            except ValueError:
                return None
    return None


_junk = st.one_of(
    st.sampled_from(["0 1", "1 99", "-1 2", "1", "1 2 3", "a b", "1 x", "D 3", "\x00"]),
    st.text(max_size=8),
)


def _text_for(kind, n):
    endpoint = st.integers(1, max(n, 1))
    return st.builds(
        lambda pairs, junk: "\n".join(
            [f"{kind} {n}", "# comment", ""] + [f"{u} {v}" for u, v in pairs] + junk
        ).encode(),
        st.lists(st.tuples(endpoint, endpoint), max_size=16),
        st.lists(_junk, max_size=1),
    )


_structured = st.tuples(st.sampled_from(["D", "B", "G", "X"]), st.integers(-1, 8)).flatmap(
    lambda header: _text_for(*header)
)


@given(st.one_of(st.binary(max_size=64), _structured), st.sampled_from(FUZZ_COMMANDS))
def test_any_input_exits_with_a_documented_code(data, command):
    n = _header_n(data)
    assume(n is None or n <= FUZZ_MAX_N)  # conditions lists O(n^2) pairs
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "input.txt"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], str(path), *command[1:]])
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    if code in (2, 3):
        assert err.getvalue().startswith("error:")


def test_schema_admits_no_floats():
    # every output validates against the schema and is written by
    # verifier.dumps_indented, whose C encoder spells floats unlike the
    # stdlib (1e+16, NaN) without falling back; no "number" keeps them out
    pending = [json.loads(SCHEMA_PATH.read_text())]
    types = []
    while pending:
        node = pending.pop()
        if isinstance(node, dict):
            kind = node.get("type")
            types.extend(kind if isinstance(kind, list) else [kind])
            pending.extend(node.values())
        elif isinstance(node, list):
            pending.extend(node)
    assert "integer" in types
    assert "number" not in types


def test_store_load_checks_the_schema_store_line_keys():
    line = json.loads(SCHEMA_PATH.read_text())["$defs"]["storeLine"]
    assert set(line["required"]) == set(line["properties"]) == set(verifier._STORE_LINE)

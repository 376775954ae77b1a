import hashlib
import json
from pathlib import Path

import pytest

from zham import verifier
from zham.cli import main
from zham.verifier import CLAIMS, Claim

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

    def test_ham_budget_exhaustion_exits_4(self, tmp_path, capsys):
        path = tmp_path / "k5.txt"
        arcs = [(u, v) for u in range(1, 6) for v in range(1, 6) if u != v]
        path.write_text("D 5\n" + "".join(f"{u} {v}\n" for u, v in arcs))
        assert main(["ham", str(path), "--budget", "2"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["exhausted"] is True
        _validate(payload, "solve")

    def test_budget_env_var(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "k5.txt"
        arcs = [(u, v) for u in range(1, 6) for v in range(1, 6) if u != v]
        path.write_text("D 5\n" + "".join(f"{u} {v}\n" for u, v in arcs))
        monkeypatch.setenv("ZHAM_BUDGET", "2")
        assert main(["ham", str(path)]) == 4
        monkeypatch.setenv("ZHAM_BUDGET", "not-a-number")
        assert main(["ham", str(path)]) == 2

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

    def test_random_mode_is_reproducible(self, capsys):
        args = [
            "verify", "--claims", "thm-zg", "--n-max", "4", "--mode", "random",
            "--samples", "150", "--seed", "42", "--format", "json",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_unknown_claim_exits_2(self):
        assert main(["verify", "--claims", "nope"]) == 2

    def test_bad_range_exits_2(self):
        assert main(["verify", "--n-min", "3", "--n-max", "2"]) == 2

    def test_store_io_failure_exits_6(self, tmp_path):
        assert (
            main(["verify", "--claims", "mm-k", "--n-max", "3", "--store", str(tmp_path)])
            == 6
        )

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

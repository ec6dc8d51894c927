import ast
import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from semilink import cli
from semilink.cli import export_dot, main
from semilink.digraph import (_MAX_ORDER, Digraph, digraph_from_arc_list,
                              digraph_to_arc_list)
from semilink.generators import _KINDS, rotational_tournament
from semilink.instances import adjustment_stress_instance

from conftest import run_optimized


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def last_json(out: str) -> dict:
    return json.loads(out[out.index("{"):])


class TestGen:
    def test_writes_arc_list(self, tmp_path, capsys):
        target = tmp_path / "g.txt"
        code, _ = run(capsys, "gen", "--kind", "rotational", "--n", "9",
                      "--out", str(target))
        assert code == 0
        assert digraph_from_arc_list(target.read_text()) == \
            rotational_tournament(9)

    def test_byte_stable(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(capsys, "gen", "--kind", "random_tournament", "--n", "30",
            "--seed", "5", "--out", str(a))
        run(capsys, "gen", "--kind", "random_tournament", "--n", "30",
            "--seed", "5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_every_kind_is_a_choice(self, capsys):
        for kind in _KINDS:
            code, out = run(capsys, "gen", "--kind", kind, "--n", "5",
                            "--u-size", "2", "--w-size", "3")
            assert code == 0 and out.startswith("5 ")
        assert run(capsys, "gen", "--kind", "mystery", "--n", "5")[0] == 2

    def test_oversized_order_is_usage_error(self, capsys, no_large_allocation):
        # the bipartite kind builds its matrix with np.zeros, which the
        # fixture refuses, so a missing check fails instead of allocating
        code = main(["gen", "--kind", "bipartite_tournament", "--u-size", "1",
                     "--w-size", str(_MAX_ORDER)])
        assert code == 2
        assert "exceeds the supported maximum" in capsys.readouterr().err

    def test_negative_order_is_usage_error(self, capsys):
        code = main(["gen", "--kind", "transitive", "--n", "-5"])
        assert code == 2
        assert "order -5 is negative" in capsys.readouterr().err

    def test_stdout_mode(self, capsys):
        code, out = run(capsys, "gen", "--kind", "transitive", "--n", "3")
        assert code == 0
        assert out.startswith("3 3\n")


class TestConnectivity:
    def test_exact(self, tmp_path, capsys):
        f = tmp_path / "r9.txt"
        run(capsys, "gen", "--kind", "rotational", "--n", "9", "--out", str(f))
        code, out = run(capsys, "connectivity", "--in", str(f), "--exact")
        assert code == 0
        report = last_json(out)
        assert report["verdicts"]["vertex_connectivity"] == 4

    def test_exact_threshold(self, tmp_path, capsys):
        f = tmp_path / "r9.txt"
        run(capsys, "gen", "--kind", "rotational", "--n", "9", "--out", str(f))
        code, out = run(capsys, "connectivity", "--in", str(f), "--exact",
                        "--target", "3")
        assert code == 0
        assert last_json(out)["verdicts"]["target_met"] is True

    def test_target_failure_exit_code(self, tmp_path, capsys):
        f = tmp_path / "r9.txt"
        run(capsys, "gen", "--kind", "rotational", "--n", "9", "--out", str(f))
        code, _ = run(capsys, "connectivity", "--in", str(f), "--exact",
                      "--target", "5")
        assert code == 1

    def test_sample_requires_target(self, tmp_path, capsys):
        f = tmp_path / "r9.txt"
        run(capsys, "gen", "--kind", "rotational", "--n", "9", "--out", str(f))
        code = main(["connectivity", "--in", str(f), "--sample", "4"])
        assert code == 2
        assert capsys.readouterr().err == "error: --sample requires --target\n"

    def test_target_below_one_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "r9.txt"
        run(capsys, "gen", "--kind", "rotational", "--n", "9", "--out", str(f))
        for target in ("-3", "0"):
            code, out = run(capsys, "connectivity", "--in", str(f), "--target", target)
            assert code == 2 and "target_met" not in out
            code, _ = run(capsys, "connectivity", "--in", str(f), "--sample", "4",
                          "--target", target)
            assert code == 2

    def test_exact_and_sample_are_exclusive(self, tmp_path, capsys):
        f = tmp_path / "r9.txt"
        run(capsys, "gen", "--kind", "rotational", "--n", "9", "--out", str(f))
        code, out = run(capsys, "connectivity", "--in", str(f), "--exact",
                        "--sample", "5", "--target", "3")
        assert code == 2 and out == ""

    def test_sample_below_one_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "r9.txt"
        run(capsys, "gen", "--kind", "rotational", "--n", "9", "--out", str(f))
        for pairs in ("0", "-2"):
            code, out = run(capsys, "connectivity", "--in", str(f), "--sample", pairs,
                            "--target", "3")
            assert code == 2 and out == ""

    def test_threads_option_is_gone(self, tmp_path, capsys):
        f = tmp_path / "r9.txt"
        run(capsys, "gen", "--kind", "rotational", "--n", "9", "--out", str(f))
        code, out = run(capsys, "connectivity", "--in", str(f), "--sample", "2",
                        "--target", "3", "--threads", "2")
        assert code == 2 and out == ""


class TestPaths:
    def test_minimized_paths(self, tmp_path, capsys):
        f = tmp_path / "r15.txt"
        run(capsys, "gen", "--kind", "rotational", "--n", "15", "--out", str(f))
        code, out = run(capsys, "paths", "--in", str(f), "--sources", "0,1",
                        "--sinks", "8,9", "--count", "2", "--minimize")
        assert code == 0
        report = last_json(out)
        assert report["verdicts"]["count"] == 2
        for path in report["verdicts"]["paths"]:
            assert path[0] in (0, 1) and path[-1] in (8, 9)

    def test_infeasible_exit_code(self, tmp_path, capsys):
        f = tmp_path / "b.txt"
        d = Digraph.from_arcs(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
        f.write_text(digraph_to_arc_list(d))
        code, out = run(capsys, "paths", "--in", str(f), "--sources", "0,1",
                        "--sinks", "3,4", "--count", "2", "--minimize")
        assert code == 1
        assert last_json(out)["verdicts"]["cut"] == [2]


class TestDominators:
    def test_find_and_check(self, tmp_path, capsys):
        f = tmp_path / "tt.txt"
        run(capsys, "gen", "--kind", "transitive", "--n", "8", "--out", str(f))
        code, out = run(capsys, "dominators", "--in", str(f), "--find-out")
        assert code == 0 and last_json(out)["verdicts"]["vertex"] == 0
        code, out = run(capsys, "dominators", "--in", str(f), "--check", "0",
                        "--cmax", "8")
        assert code == 0
        assert last_json(out)["verdicts"]["nearly_out_dominating"] is True

    def test_missing_mode_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "tt.txt"
        run(capsys, "gen", "--kind", "transitive", "--n", "5", "--out", str(f))
        code, _ = run(capsys, "dominators", "--in", str(f))
        assert code == 2

    @pytest.mark.parametrize("modes", [["--find-out", "--check", "3"],
                                       ["--find-out", "--find-in"],
                                       ["--find-in", "--check", "0"]])
    def test_modes_are_exclusive(self, tmp_path, capsys, modes):
        f = tmp_path / "tt.txt"
        run(capsys, "gen", "--kind", "transitive", "--n", "5", "--out", str(f))
        code = main(["dominators", "--in", str(f), *modes])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "not allowed with argument" in captured.err

    @pytest.mark.parametrize("cmax", ["0", "-3", "9", "3000000"])
    def test_cmax_out_of_range_is_usage_error(self, tmp_path, capsys, monkeypatch, cmax):
        f = tmp_path / "tt.txt"
        run(capsys, "gen", "--kind", "transitive", "--n", "8", "--out", str(f))
        built = []
        monkeypatch.setattr("semilink.cli.nearly_out_dominating_profile",
                            lambda *a, **kw: built.append(a))
        code = main(["dominators", "--in", str(f), "--check", "0", "--cmax", cmax])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --cmax must lie in 1..8\n"
        assert not built

    @pytest.mark.parametrize("vertex", ["-1", "5", "-6"])
    def test_check_out_of_range_is_usage_error(self, tmp_path, capsys, vertex):
        f = tmp_path / "tt.txt"
        run(capsys, "gen", "--kind", "transitive", "--n", "5", "--out", str(f))
        code = main(["dominators", "--in", str(f), "--check", vertex])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"vertex {vertex} out of range" in captured.err


class TestLink:
    def test_end_to_end_with_artifacts(self, tmp_path, capsys):
        d, pairs = adjustment_stress_instance()
        f = tmp_path / "inst.txt"
        f.write_text(digraph_to_arc_list(d))
        cert = tmp_path / "cert.json"
        trace = tmp_path / "trace.json"
        code, out = run(capsys, "link", "--in", str(f), "--pairs", "0:1",
                        "--cert", str(cert), "--trace", str(trace))
        assert code == 0
        assert last_json(out)["verdicts"]["linked"] is True
        cert_data = json.loads(cert.read_text())
        assert cert_data["pairs"] == [[0, 1]]
        trace_data = json.loads(trace.read_text())
        assert any(e["phase"] == "adjust-round" for e in trace_data)

    def test_failure_exit_code(self, tmp_path, capsys):
        from semilink.instances import planted_cut_instance
        d, pairs = planted_cut_instance(2)
        f = tmp_path / "cut.txt"
        f.write_text(digraph_to_arc_list(d))
        spec = ",".join(f"{x}:{y}" for x, y in pairs)
        code, out = run(capsys, "link", "--in", str(f), "--pairs", spec)
        assert code == 1
        assert last_json(out)["verdicts"]["step"] == "initial-paths"

    def test_empty_hypothesis_sample_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "r9.txt"
        run(capsys, "gen", "--kind", "rotational", "--n", "9", "--out", str(f))
        code, out = run(capsys, "link", "--in", str(f), "--pairs", "0:1",
                        "--check-hypotheses", "sample:0")
        assert code == 2 and out == ""


class TestOracle:
    def test_yes_and_no(self, tmp_path, capsys):
        f = tmp_path / "r15.txt"
        run(capsys, "gen", "--kind", "rotational", "--n", "15", "--out", str(f))
        code, out = run(capsys, "oracle", "--in", str(f), "--pairs", "0:7,3:11")
        assert code == 0
        assert last_json(out)["verdicts"]["verdict"] == "yes"

    def test_unknown_exit_code(self, tmp_path, capsys):
        f = tmp_path / "r15.txt"
        run(capsys, "gen", "--kind", "rotational", "--n", "15", "--out", str(f))
        code, out = run(capsys, "oracle", "--in", str(f), "--pairs", "0:7,3:11",
                        "--node-limit", "2")
        assert code == 1
        assert last_json(out)["verdicts"]["verdict"] == "unknown"

    def test_deep_search_is_unknown_not_a_traceback(self, tmp_path, capsys):
        # a directed path on 1200 vertices: the one linkage is deeper than
        # the search goes
        f = tmp_path / "path.txt"
        f.write_text("1200 1199\n" + "".join(f"{v} {v + 1}\n" for v in range(1199)))
        code, out = run(capsys, "oracle", "--in", str(f), "--pairs", "0:1199")
        assert code == 1
        verdicts = last_json(out)["verdicts"]
        assert verdicts["verdict"] == "unknown" and verdicts["nodes_explored"] == 501

    @pytest.mark.parametrize("limit", ["nan", "inf", "-inf"])
    def test_non_finite_time_limit_is_usage_error(self, tmp_path, capsys, limit):
        f = tmp_path / "r15.txt"
        run(capsys, "gen", "--kind", "rotational", "--n", "15", "--out", str(f))
        code, out = run(capsys, "oracle", "--in", str(f), "--pairs", "0:7,3:11",
                        "--time-limit", limit)
        assert code == 2 and out == ""


class TestExport:
    def test_three_cycle_dot(self, tmp_path, capsys):
        f = tmp_path / "c3.txt"
        f.write_text("3 3\n0 1\n1 2\n2 0\n")
        code, out = run(capsys, "export", "--in", str(f))
        assert code == 0
        assert out.startswith("digraph semilink {")
        assert "0 -> 1;" in out and "2 -> 0;" in out
        assert out.count("->") == 3

    def test_single_vertex(self, tmp_path, capsys):
        f = tmp_path / "one.txt"
        f.write_text("1 0\n")
        code, out = run(capsys, "export", "--in", str(f))
        assert code == 0 and "0;" in out

    @pytest.mark.parametrize("layout", [
        '{"k": 42}',
        '[1, 2, 3]',
        '{"k": 1, "n": 3, "l": 0, "roles": [0, 1, 2]}',
        '{"k": 1, "n": 3, "l": 0, "roles": {"tracks": [[0]], "core": 1, "relays": [],'
        ' "targets": [], "mirrors": [], "starts": [], "outlet": 2}}',
        '{"k": 1, "n": 3, "l": 0, "roles": {"tracks": [[0]], "core": null,'
        ' "relays": [], "targets": [], "mirrors": [], "starts": [], "outlet": 2}}',
        '{"k": 1, "n": 4, "l": 0, "roles": {"tracks": [[0]], "core": [1], "relays": [],'
        ' "targets": [], "mirrors": [], "starts": [], "bypass": 1, "outlet": 2}}',
        '{"k": 1, "n": 3, "l": 0, "roles": {"tracks": [[0]], "core": [1], "relays": [],'
        ' "targets": [], "mirrors": [], "starts": [], "bypass": 0, "outlet": 2}}',
        '{"k": 1, "n": 3, "l": 0, "roles": {"tracks": [[0]], "core": [1], "relays": [],'
        ' "targets": [], "mirrors": [], "starts": [], "outlet": 2}}',
        # a well-formed 3-vertex layout but for one id, once read as vertex 0, 1 and 1
        '{"k": 1, "n": 3, "l": 1, "roles": {"tracks": [[0, 1, 2]], "core": [0], "relays": [0.5],'
        ' "targets": [0], "mirrors": [0], "starts": [0], "bypass": 0, "outlet": 2}}',
        '{"k": 1, "n": 3, "l": 1, "roles": {"tracks": [[0, 1, 2]], "core": [0], "relays": [0],'
        ' "targets": ["1"], "mirrors": [0], "starts": [0], "bypass": 0, "outlet": 2}}',
        '{"k": 1, "n": 3, "l": 1, "roles": {"tracks": [[0, 1, 2]], "core": [0], "relays": [0],'
        ' "targets": [0], "mirrors": [0], "starts": [0], "bypass": 0, "outlet": true}}',
        '{"k": 2, "n": 5, "l": 1, "roles": {"tracks": [[0, 1, 2], [3, 4]], "core": [0],'
        ' "relays": [0, 1], "targets": [0, 1], "mirrors": [0, 1], "starts": [0, 1],'
        ' "bypass": 0, "outlet": 2}}',
    ])
    def test_malformed_layout_is_usage_error(self, tmp_path, capsys, layout):
        g, bad = tmp_path / "g.txt", tmp_path / "bad.json"
        g.write_text("3 3\n0 1\n1 2\n2 0\n")
        bad.write_text(layout)
        assert main(["export", "--in", str(g), "--layout", str(bad)]) == 2
        assert "error: layout" in capsys.readouterr().err

    def test_clustered_by_layout(self):
        from semilink.counterexample import build_counterexample
        d, lay = build_counterexample(42, 1764)
        text = export_dot(d.induced(range(5)), None)
        assert text.count("->") == d.induced(range(5)).arc_count
        clustered = export_dot(d, lay)
        assert "cluster_track" in clustered
        assert "cluster_core" in clustered
        assert "cluster_outlet" in clustered

    def test_clustered_text_pinned(self, reference_counterexample):
        d, lay = reference_counterexample
        text = export_dot(d, lay)
        assert text.count("->") == d.arc_count
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "d3cb0ffcda08ca91b45136275fc699f6c9de63fe3cc49081565aad309057e717"


class TestAcceptSubcommand:
    def test_single_criterion(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, out = run(capsys, "accept", "--criteria", "7", "--out", str(report))
        assert code == 0
        assert "criterion 7" in out
        data = json.loads(report.read_text())
        assert data[0]["passed"] is True

    @pytest.mark.parametrize("criteria", ["9", "0,9"])
    def test_unknown_criterion_is_usage_error(self, capsys, criteria):
        code = main(["accept", "--criteria", criteria])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown criterion numbers" in captured.err
        assert "criterion" not in captured.out  # nothing ran

    def test_all_criteria_under_optimize(self):
        proc = run_optimized("-m", "semilink.cli", "accept")
        assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
        assert proc.stdout.count("[PASS]") == 8

    def test_profile_option_is_gone(self, capsys):
        assert main(["accept", "--profile", "quick"]) == 2
        assert "unrecognized arguments: --profile quick" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_file(self, capsys):
        assert main(["connectivity", "--in", "/definitely/not/here",
                     "--exact"]) == 2

    @pytest.mark.parametrize("argv", [
        ["connectivity", "--exact", "--in"],
        ["gen", "--kind", "rotational", "--n", "7", "--out"]])
    def test_directory_path_is_usage_error(self, tmp_path, capsys, argv):
        # IsADirectoryError, not a traceback and exit 1 (a verdict failure)
        code = main(argv + [str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ")

    def test_version(self, capsys):
        assert main(["--version"]) == 0

    @pytest.mark.parametrize("argv, message", [
        (["link", "--pairs", "0-2"], "--pairs: malformed pair '0-2' (expected u:v)"),
        (["link", "--pairs", "0:1,1:2:0"],
         "--pairs: malformed pair '1:2:0' (expected u:v)"),
        (["oracle", "--pairs", "0:x"], "--pairs: malformed pair '0:x' (expected u:v)"),
        (["paths", "--sources", "x", "--sinks", "1", "--count", "1"],
         "--sources: malformed vertex 'x' (expected an integer)"),
        (["paths", "--sources", "0", "--sinks", "1,2.5", "--count", "1"],
         "--sinks: malformed vertex '2.5' (expected an integer)"),
        (["accept", "--criteria", "a"],
         "--criteria: malformed criterion number 'a' (expected an integer)"),
    ])
    def test_malformed_list_names_option_and_token(self, tmp_path, capsys, argv,
                                                  message):
        f = tmp_path / "c3.txt"
        f.write_text("3 3\n0 1\n1 2\n2 0\n")
        if argv[0] != "accept":
            argv = argv[:1] + ["--in", str(f)] + argv[1:]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_huge_order_header_is_usage_error(self, tmp_path, capsys, no_large_allocation):
        f = tmp_path / "huge.txt"
        f.write_text("1000000 0\n")
        assert main(["connectivity", "--in", str(f), "--exact"]) == 2


def test_main_is_the_one_report_path():
    # The subcommands only compute; main alone reads the clock and prints
    # the report, so every report is timed and shaped the same way.
    tree = ast.parse(Path(cli.__file__).read_text())
    owners = []
    for top in tree.body:
        if not isinstance(top, ast.FunctionDef):
            continue
        calls = {ast.unparse(node.func) for node in ast.walk(top)
                 if isinstance(node, ast.Call)}
        if top.name.startswith("_cmd_"):
            assert not calls & {"print", "time.monotonic", "monotonic"}, top.name
        owners += [top.name for node in ast.walk(top)
                   if isinstance(node, ast.Name) and node.id == "_report"]
    assert owners == ["main"]


class TestReportStability:
    def test_reports_byte_stable_modulo_timings(self, tmp_path, capsys):
        f = tmp_path / "r11.txt"
        run(capsys, "gen", "--kind", "rotational", "--n", "11", "--out", str(f))

        def strip_timings(report):
            report.pop("timings", None)
            return report

        _, out1 = run(capsys, "connectivity", "--in", str(f), "--exact")
        _, out2 = run(capsys, "connectivity", "--in", str(f), "--exact")
        assert strip_timings(last_json(out1)) == strip_timings(last_json(out2))


class TestCounterexampleCommand:
    def test_build_verify_and_layout(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        layout = tmp_path / "t.layout"
        code, text = run(capsys, "counterexample", "--k", "42", "--n", "1764",
                         "--out", str(out), "--layout", str(layout),
                         "--verify")
        assert code == 0
        report = last_json(text)
        assert report["verdicts"]["rules_passed"] is True
        # the rules are checked; the non-linkage they imply is not computed
        assert report["verdicts"]["non_linkage"].startswith("not computed")
        assert report["verdicts"]["min_out_degree"] >= 86
        data = json.loads(layout.read_text())
        assert data["k"] == 42 and len(data["roles"]["tracks"]) == 42
        head = out.read_text().splitlines()[0]
        assert head == "1764 1554966"

    def test_oversized_order_is_usage_error(self, tmp_path, capsys, no_large_allocation):
        code = main(["counterexample", "--k", "42", "--n", str(_MAX_ORDER + 1),
                     "--out", str(tmp_path / "x.txt")])
        assert code == 2
        assert "exceeds the supported maximum" in capsys.readouterr().err

    def test_invalid_width_is_usage_error(self, tmp_path, capsys):
        code, _ = run(capsys, "counterexample", "--k", "41", "--n", "1764",
                      "--out", str(tmp_path / "x.txt"))
        assert code == 2


# Every subcommand that prints a report, with a verdict failure where it
# has one.  Inputs are relative paths, so the reports do not depend on the
# directory the corpus runs in.
GOLDEN_CORPUS = {
    "gen-rotational": ["gen", "--kind", "rotational", "--n", "15", "--out", "r15.txt"],
    "gen-near-regular": ["gen", "--kind", "near_regular", "--n", "41", "--seed", "2",
                         "--out", "nr41.txt"],
    "connectivity-exact": ["connectivity", "--in", "r15.txt", "--exact"],
    "connectivity-met": ["connectivity", "--in", "r15.txt", "--exact", "--target", "7"],
    "connectivity-not-met": ["connectivity", "--in", "r15.txt", "--target", "8"],
    "connectivity-sample": ["connectivity", "--in", "nr41.txt", "--sample", "12",
                            "--target", "9", "--seed", "3"],
    "paths-max": ["paths", "--in", "r15.txt", "--sources", "0,1,2",
                  "--sinks", "8,9,10", "--count", "3"],
    "paths-max-infeasible": ["paths", "--in", "neck.txt", "--sources", "0,1",
                             "--sinks", "3,4", "--count", "2"],
    "paths-min": ["paths", "--in", "r15.txt", "--sources", "0,1,2",
                  "--sinks", "8,9,10", "--count", "3", "--minimize"],
    "paths-min-infeasible": ["paths", "--in", "neck.txt", "--sources", "0,1",
                             "--sinks", "3,4", "--count", "2", "--minimize"],
    "dominators-find-out": ["dominators", "--in", "nr41.txt", "--find-out"],
    "dominators-find-in": ["dominators", "--in", "nr41.txt", "--find-in"],
    "dominators-check": ["dominators", "--in", "nr41.txt", "--check", "0",
                         "--cmax", "8"],
    "link": ["link", "--in", "stress.txt", "--pairs", "0:1", "--cert", "cert.json",
             "--trace", "trace.json"],
    "oracle": ["oracle", "--in", "r15.txt", "--pairs", "0:7,3:11"],
    "counterexample": ["counterexample", "--k", "42", "--n", "1764", "--out", "k42.txt",
                       "--layout", "k42.json", "--verify"],
}

# (exit code, first 16 hex digits of the sha256 of the report without timings)
GOLDEN_DIGESTS = {
    "gen-rotational": (0, "b5e76ec4b2c55861"),
    "gen-near-regular": (0, "e161ee6681d9498b"),
    "connectivity-exact": (0, "350380326d7cc0b0"),
    "connectivity-met": (0, "079a8a8a19f97fa2"),
    "connectivity-not-met": (1, "9e713b839238c427"),
    "connectivity-sample": (0, "071c4e8a45ca6705"),
    "paths-max": (0, "66e057e88af25bbc"),
    "paths-max-infeasible": (1, "f2e3937c62792572"),
    "paths-min": (0, "03c63cf4c5a6e706"),
    "paths-min-infeasible": (1, "0ad0017c3bd3ac90"),
    "dominators-find-out": (0, "e8091e2d0a255a63"),
    "dominators-find-in": (0, "78cf6cdd9697d80c"),
    "dominators-check": (0, "75a0aba3236e8363"),
    "link": (0, "a13ab0d25067cc2b"),
    "oracle": (0, "26a0fa77738a4a6c"),
    "counterexample": (0, "515efe3bcacad2da"),
}


@pytest.fixture(scope="module")
def golden_reports(tmp_path_factory):
    """Run the corpus in order through ``main``: ``{name: (exit code, report)}``."""
    work = tmp_path_factory.mktemp("golden")
    d, _ = adjustment_stress_instance()
    (work / "stress.txt").write_text(digraph_to_arc_list(d))
    (work / "neck.txt").write_text("5 4\n0 2\n1 2\n2 3\n2 4\n")
    reports = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        for name, argv in GOLDEN_CORPUS.items():
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(argv)
            report = json.loads(out.getvalue())
            # the report is the canonical dump, so its digest pins every byte
            assert out.getvalue() == json.dumps(report, indent=2, sort_keys=True) + "\n"
            reports[name] = code, report
    return reports


class TestGoldenReports:
    def test_reports_pinned_modulo_timings(self, golden_reports):
        pinned = {}
        for name, (code, report) in golden_reports.items():
            rest = {key: value for key, value in report.items() if key != "timings"}
            text = json.dumps(rest, indent=2, sort_keys=True)
            pinned[name] = code, hashlib.sha256(text.encode()).hexdigest()[:16]
        assert pinned == GOLDEN_DIGESTS

    def test_every_report_times_the_whole_command(self, golden_reports):
        for name, (_, report) in golden_reports.items():
            seconds = report["timings"].get("seconds")
            assert isinstance(seconds, float) and seconds >= 0, name

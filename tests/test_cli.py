"""Checks of the command line front end, in process and, for what a
command imports, in a fresh one."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import rhodf
from rhodf import SatisfactionReport, Violation, closure, load_interpretation, check_model, parse_graph
from rhodf import cli
from rhodf.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
MEDICAL = str(FIXTURES / "medical.rnt")
EXTENDED = str(FIXTURES / "medical_negative.rnt")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestClose:
    def test_fixture_closure_contains_derived_types(self, capsys):
        assert main(["close", MEDICAL]) == 0
        out = capsys.readouterr().out
        assert "morphine type drugTreatment .\n" in out
        assert "brainTumour type illness .\n" in out

    def test_empty_input_closes_to_nothing(self, tmp_path, capsys):
        path = write(tmp_path, "empty.rnt", "")
        assert main(["close", path]) == 0
        assert capsys.readouterr().out == ""

    def test_subclass_statement_closes_to_four_lines(self, tmp_path, capsys):
        path = write(tmp_path, "sc.rnt", "a sc b .\n")
        assert main(["close", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sorted(lines) == [
            "!b cdisj a .",
            "!b sc !a .",
            "a cdisj !b .",
            "a sc b .",
        ]

    def test_mode_switch_separates_the_rule_sets(self, tmp_path, capsys):
        path = write(tmp_path, "botc.rnt", "a cdisj b .\n")
        assert main(["close", "--mode", "rdf", path]) == 0
        rdf_out = capsys.readouterr().out
        assert "a sc !b ." not in rdf_out
        assert main(["close", "--mode", "full", path]) == 0
        full_out = capsys.readouterr().out
        assert "a sc !b .\n" in full_out

    def test_trace_output_is_still_parseable(self, capsys):
        assert main(["close", MEDICAL]) == 0
        plain = parse_graph(capsys.readouterr().out)
        assert main(["close", "--trace", MEDICAL]) == 0
        traced_text = capsys.readouterr().out
        assert "# " in traced_text
        assert parse_graph(traced_text) == plain

    def test_cap_overflow_exits_with_its_own_code(self, capsys):
        assert main(["close", "--cap", "2", EXTENDED]) == 3
        assert "error:" in capsys.readouterr().err

    def test_out_writes_the_named_file(self, tmp_path, capsys):
        target = tmp_path / "closure.rnt"
        assert main(["close", MEDICAL, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert "morphine type drugTreatment .\n" in target.read_text(encoding="utf-8")

    def test_out_dash_writes_stdout(self, capsys):
        assert main(["close", MEDICAL]) == 0
        plain = capsys.readouterr().out
        assert main(["close", MEDICAL, "--out", "-"]) == 0
        assert capsys.readouterr().out == plain

    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys):
        assert main(["close", MEDICAL, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestEntail:
    def test_negative_judgment_holds(self, tmp_path, capsys):
        query = write(tmp_path, "q.rnt", "ebola !hasTreatment paracetamol .\n")
        assert main(["entail", EXTENDED, query]) == 0
        assert capsys.readouterr().out.startswith("entailed")

    def test_unsupported_judgment_is_reported(self, tmp_path, capsys):
        query = write(tmp_path, "q.rnt", "ebola !hasTreatment ebola .\n")
        assert main(["entail", EXTENDED, query]) == 1
        out = capsys.readouterr().out
        assert out.startswith("not entailed")
        assert "unmatched ebola !hasTreatment ebola ." in out

    def test_blank_query_prints_its_witness_map(self, tmp_path, capsys):
        query = write(
            tmp_path,
            "q.rnt",
            "brainTumour hasTreatment _:x .\n_:x type !antipyretic .\n",
        )
        assert main(["entail", EXTENDED, query]) == 0
        out = capsys.readouterr().out
        map_lines = [l for l in out.splitlines() if l.startswith("map ")]
        assert len(map_lines) == 1
        assert map_lines[0] in ("map _:x -> morphine", "map _:x -> radioTherapy")

    def test_proof_option_prints_numbered_steps(self, tmp_path, capsys):
        query = write(tmp_path, "q.rnt", "_:y type !antipyretic .\n")
        assert main(["entail", "--proof", EXTENDED, query]) == 0
        out = capsys.readouterr().out
        steps = [l for l in out.splitlines() if l.startswith("(")]
        assert steps
        assert "by rule 1a" in steps[-1]

    def test_proof_of_an_empty_query_has_no_lines(self, tmp_path, capsys):
        query = write(tmp_path, "empty.rnt", "")
        assert main(["entail", "--proof", EXTENDED, query]) == 0
        assert capsys.readouterr().out == "entailed\n"

    def test_budget_exhaustion_reports_unknown(self, tmp_path, capsys):
        query = write(
            tmp_path,
            "q.rnt",
            "brainTumour hasTreatment _:x .\n_:x type !antipyretic .\n",
        )
        assert main(["entail", "--budget", "1", EXTENDED, query]) == 4
        assert "unknown:" in capsys.readouterr().err

    def test_rdf_mode_misses_negation_consequences(self, tmp_path, capsys):
        query = write(tmp_path, "q.rnt", "ebola !hasTreatment paracetamol .\n")
        assert main(["entail", "--mode", "rdf", EXTENDED, query]) == 1
        capsys.readouterr()

    def test_long_chain_query_is_entailed(self, tmp_path, capsys):
        # One pattern per chain link: a search that recursed once per
        # placed pattern would overflow the stack long before the end.
        n = 1500
        graph = write(tmp_path, "chain.rnt", "".join(f"n{i} e n{i + 1} .\n" for i in range(n)))
        query = write(tmp_path, "q.rnt", "".join(f"_:x{i} e _:x{i + 1} .\n" for i in range(n)))
        assert main(["entail", graph, query]) == 0
        out = capsys.readouterr().out
        assert out.startswith("entailed\n")
        assert f"map _:x{n} -> n{n}\n" in out


class TestModel:
    def test_fixture_model_is_satisfiable_and_reloadable(self, capsys):
        assert main(["model", EXTENDED]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[-1] == "satisfiable"
        loaded = load_interpretation("\n".join(lines[:-1]) + "\n")
        graph = parse_graph(pathlib.Path(EXTENDED).read_text(encoding="utf-8"))
        assert check_model(loaded, graph).satisfied

    def test_a_violation_is_listed_and_exits_1(self, capsys, monkeypatch):
        violation = Violation("Simple.1", "x")
        monkeypatch.setattr(cli, "check_model", lambda model, g: SatisfactionReport(False, (violation,)))
        assert main(["model", EXTENDED]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["not satisfied", f"violation {violation}"]


class TestGen:
    def test_chain_family_round_trips(self, capsys):
        assert main(["gen", "spchain", "10"]) == 0
        g = parse_graph(capsys.readouterr().out)
        assert len(g) == 9

    def test_cubic_family_round_trips(self, capsys):
        assert main(["gen", "cubic", "3"]) == 0
        g = parse_graph(capsys.readouterr().out)
        assert len(g) == 8

    def test_nonpositive_size_is_a_usage_error(self, capsys):
        assert main(["gen", "spchain", "0"]) == 2
        capsys.readouterr()


class TestStats:
    def test_summary_lines(self, capsys):
        assert main(["stats", MEDICAL]) == 0
        out = capsys.readouterr().out
        assert "input triples: 12" in out
        assert "closure triples:" in out
        assert "iterations:" in out
        assert "fired:" in out
        assert "wall time:" in out

    def test_round_deltas_and_rule_candidates_lines(self, capsys):
        assert main(["stats", EXTENDED]) == 0
        fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        stats = closure(parse_graph(pathlib.Path(EXTENDED).read_text())).stats
        deltas = [int(x) for x in fields["round deltas"].split()]
        assert deltas == list(stats.round_deltas)
        assert sum(deltas) == int(fields["closure triples"]) - int(fields["input triples"])
        listed = dict(item.split("=") for item in fields["rule candidates"].split())
        assert {rule: int(count) for rule, count in listed.items()} == {
            rule: count for rule, count in stats.rule_candidates.items() if count
        }
        for rule, count in stats.rule_fire_counts.items():
            if count:
                assert int(fields[f"rule {rule} fired"]) == count <= int(listed[rule])


class TestDiagnostics:
    def test_parse_errors_carry_path_line_and_column(self, tmp_path, capsys):
        path = write(tmp_path, "bad.rnt", "a b\nx y z .\n")
        assert main(["close", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{path}:1:")
        assert "structural error" in err

    def test_missing_file_is_reported(self, capsys):
        assert main(["close", "no-such-file.rnt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_internal_error_has_its_own_code(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("broken on purpose")

        monkeypatch.setattr(cli, "cmd_close", broken)
        assert main(["close", MEDICAL]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback (most recent call last)" in captured.err
        assert "RuntimeError: broken on purpose" in captured.err

    def test_internal_value_error_is_not_a_usage_error(self, capsys, monkeypatch):
        def broken(args):
            raise ValueError("broken on purpose")

        monkeypatch.setattr(cli, "cmd_close", broken)
        assert main(["close", MEDICAL]) == 5
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert "ValueError: broken on purpose" in err

    def test_undecodable_input_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.rnt"
        path.write_bytes("caf\u00e9 type drink .\n".encode("latin-1"))
        assert main(["close", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_color_opt_in_wraps_the_verdict(self, tmp_path, capsys, monkeypatch):
        held = write(tmp_path, "held.rnt", "ebola !hasTreatment paracetamol .\n")
        failed = write(tmp_path, "failed.rnt", "ebola !hasTreatment ebola .\n")
        monkeypatch.setenv("RHODF_COLOR", "1")
        assert main(["entail", EXTENDED, held]) == 0
        assert capsys.readouterr().out == "\x1b[32mentailed\x1b[0m\n"
        assert main(["entail", EXTENDED, failed]) == 1
        assert capsys.readouterr().out.startswith("\x1b[31mnot entailed\x1b[0m\n")
        monkeypatch.delenv("RHODF_COLOR")
        assert main(["entail", EXTENDED, held]) == 0
        assert capsys.readouterr().out == "entailed\n"


# Runs ``python -m rhodf.cli ARGS...`` and prints, last on stderr, the
# rhodf modules and dataclasses the command has imported when it exits.
PROBE = """
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(m for m in sys.modules if m.startswith("rhodf") or m == "dataclasses")), file=sys.stderr))
sys.argv[0] = "rhodf"
runpy.run_module("rhodf.cli", run_name="__main__", alter_sys=True)
"""


def loaded_modules(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(rhodf.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *args], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stderr.splitlines()[-1]))


class TestStartUp:
    """Each command compiles only the modules it runs."""

    def test_each_command_loads_only_what_it_runs(self, tmp_path):
        query = write(tmp_path, "q.rnt", "morphine type drugTreatment .\n")
        base = {"rhodf", "rhodf.core", "rhodf.parser", "rhodf.reasoner"}  # rhodf.cli runs as __main__
        expected = {
            ("close", MEDICAL): base,
            ("stats", MEDICAL): base,
            ("entail", "--proof", MEDICAL, query): base | {"rhodf.entailment"},
            ("model", MEDICAL): base | {"rhodf.semantics"},
            ("gen", "cubic", "2"): base | {"rhodf.generators"},
        }
        for args, modules in expected.items():
            assert loaded_modules(tmp_path, *args) == modules, args

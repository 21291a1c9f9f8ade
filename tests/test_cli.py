import json
import subprocess
import sys
import time

import pytest

from limlaw import efgame, logic
from limlaw.cli import main
from limlaw.logic import MAX_NESTING

PAIR = "exists x. exists y. (x E y & !(x = y))"
FIRST_TWO = ("exists x. exists y. (!(exists z. z < x) & x < y"
             " & !(exists z. (x < z & z < y)) & x E y)")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(capsys, *argv, option):
    """The command line is rejected with exit 2, naming ``option``."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"argument {option}: must be >= " in capsys.readouterr().err


def count_solves(monkeypatch):
    """The chains of every exact limit solve made from now on."""
    from limlaw import limitchain

    solved = []
    solve = limitchain.limiting_distribution

    def counted(chain):
        solved.append(chain)
        return solve(chain)

    monkeypatch.setattr(limitchain, "limiting_distribution", counted)
    return solved


class TestLimit:
    def test_pair_sentence(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--theory", "convex",
                               "--formula", PAIR)
        assert code == 0
        assert "limit = 1/1" in out
        assert "chain states:" in out

    def test_limit_solves_once(self, capsys, monkeypatch, tmp_path):
        solved = count_solves(monkeypatch)
        code, _, _ = run_cli(capsys, "limit", "--formula", PAIR)
        assert code == 0
        assert len(solved) == 1
        code, _, _ = run_cli(capsys, "limit", "--formula", PAIR,
                             "--emit-json", str(tmp_path / "chain.json"))
        assert code == 0
        assert len(solved) == 2

    def test_layered_descent(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--theory", "layered",
                               "--formula", "exists x. exists y. (x <1 y & y <2 x)")
        assert code == 0
        assert "limit = 1/1" in out

    def test_tautology_with_k1(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--formula", "forall x. x = x")
        assert code == 0
        assert "limit = 1/1" in out
        assert "k: 1" in out
        assert "chain states: 1" in out

    def test_depth3_exact_half(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--formula", FIRST_TWO)
        assert code == 0
        assert "limit = 1/2" in out

    def test_verify_and_exports(self, capsys, tmp_path):
        json_path = tmp_path / "chain.json"
        dot_path = tmp_path / "chain.dot"
        code, out, _ = run_cli(capsys, "limit", "--formula", PAIR, "--verify",
                               "--emit-json", str(json_path),
                               "--emit-dot", str(dot_path))
        assert code == 0
        doc = json.loads(json_path.read_text())
        assert doc["limit_probability"] == "1/1"
        from fractions import Fraction

        accepting_mass = sum(
            (Fraction(p) for s, p in zip(doc["states"], doc["limit"])
             if s["accepting"]), Fraction(0))
        assert accepting_mass == 1
        assert "⊕• 1/2" in dot_path.read_text()

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "limit", "--formula", "exists x (x = x")
        assert code == 2
        assert "error" in err

    def test_foreign_symbol_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "limit", "--theory", "convex",
                             "--formula", "exists x. exists y. x p1 y")
        assert code == 2

    def test_free_variable_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "limit", "--formula", "x < y")
        assert code == 2

    def test_deep_nesting_exit_2(self, capsys):
        for text in ("exists x. " + "(" * 10_000 + "x = x" + ")" * 10_000,
                     "exists x. " + "!" * 10_000 + "x = x"):
            code, _, err = run_cli(capsys, "limit", "--formula", text)
            assert code == 2
            assert "nests deeper than" in err

    def test_every_stage_runs_at_the_nesting_cap(self, capsys):
        inner = MAX_NESTING - 1
        negations = "!" * inner + "x = x"
        for text, limit in (
                ("exists x. " + "(" * inner + "x = x" + ")" * inner, "1/1"),
                ("exists x. " + negations, "0/1" if inner % 2 else "1/1"),
                ("exists x. " * MAX_NESTING + "x = x", "1/1"),
                ("exists x. " + " & ".join(["x = x"] * MAX_NESTING), "1/1")):
            code, out, _ = run_cli(capsys, "limit", "--formula", text)
            assert code == 0
            assert f"limit = {limit}" in out

    def test_bad_budget_exit_2(self, capsys):
        for budget in ("0", "-5"):
            assert_usage_error(capsys, "limit", "--formula", PAIR,
                               "--budget", budget, option="--budget")

    def test_budget_help_names_the_verify_solver(self, capsys):
        with pytest.raises(SystemExit):
            main(["limit", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--verify game-tree solver only" in help_text

    def test_formula_file(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text(PAIR)
        code, out, _ = run_cli(capsys, "limit", "--formula-file", str(path))
        assert code == 0
        assert "limit = 1/1" in out

    def test_no_k_flag(self, capsys):
        # the reported k is always the quantifier depth of the sentence
        with pytest.raises(SystemExit) as exc:
            main(["limit", "--formula", PAIR, "--k", "2"])
        assert exc.value.code == 2
        assert "--k" in capsys.readouterr().err


class TestEstimate:
    def test_compare_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--formula", FIRST_TWO, "--n", "200",
            "--samples", "20000", "--seed", "42", "--compare-limit")
        assert code == 0
        assert "limit = 1/2" in out
        gap = [l for l in out.splitlines() if "|estimate - limit|" in l]
        assert gap and float(gap[0].split("≈")[1]) < 0.01

    def test_compare_limit_compiles_once(self, capsys, monkeypatch):
        from limlaw import limitchain

        compiled = []
        compile_sentence = limitchain.compile_sentence

        def counted(f):
            compiled.append(f)
            return compile_sentence(f)

        monkeypatch.setattr(limitchain, "compile_sentence", counted)
        code, _, _ = run_cli(capsys, "estimate", "--formula", PAIR, "--n",
                             "50", "--samples", "1000", "--compare-limit")
        assert code == 0
        assert len(compiled) == 1

    def test_bad_counts_rejected_before_compiling(self, capsys, monkeypatch):
        from limlaw import limitchain

        def never(f):
            raise AssertionError("compiled before the counts were checked")

        monkeypatch.setattr(limitchain, "compile_sentence", never)
        for argv in (("--n", "0", "--samples", "10"),
                     ("--n", "5", "--samples", "0")):
            with pytest.raises(SystemExit) as exc:
                main(["estimate", "--formula", PAIR, *argv, "--compare-limit"])
            assert exc.value.code == 2
            assert "must be >= 1" in capsys.readouterr().err

    def test_negative_seed_names_the_option(self, capsys):
        assert_usage_error(capsys, "estimate", "--formula", PAIR, "--n", "5",
                           "--samples", "3", "--seed", "-1", option="--seed")

    def test_trivially_false(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--formula", "false",
                               "--n", "5", "--samples", "100", "--seed", "1")
        assert code == 0
        assert "estimate = 0/1" in out

    def test_byte_identical_repeat_runs(self, capsys):
        args = ("estimate", "--formula", PAIR, "--n", "50",
                "--samples", "5000", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_no_threads_or_k_flag(self, capsys):
        for flag in ("--threads", "--k"):
            with pytest.raises(SystemExit) as exc:
                main(["estimate", "--formula", PAIR, "--n", "5",
                      "--samples", "10", flag, "2"])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err


class TestTranslate:
    def test_layered_expansion_verbatim(self, capsys):
        code, out, _ = run_cli(capsys, "translate", "--from", "layered",
                               "--formula", "exists x. exists y. x <2 y")
        assert code == 0
        assert out.strip() == ("exists x. exists y. "
                               "((x E y & y < x) | (!(x E y) & x < y))")

    def test_composition_bullet(self, capsys):
        code, out, _ = run_cli(capsys, "translate", "--from", "composition",
                               "--formula", "exists x. exists y. x p1 y")
        assert code == 0
        assert out.strip() == "exists x. exists y. (!(x E y) & x < y)"

    def test_identity_on_pure_e_sentence(self, capsys):
        code, out, _ = run_cli(capsys, "translate", "--from", "composition",
                               "--formula", "exists x. exists y. x E y")
        assert code == 0
        assert out.strip() == "exists x. exists y. x E y"

    def test_foreign_symbol_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "translate", "--from", "layered",
                             "--formula", "exists x. exists y. x p1 y")
        assert code == 2


class TestEf:
    def test_linear_order_duplicator(self, capsys):
        code, out, _ = run_cli(capsys, "ef", "1,1,1", "1,1,1,1,1", "--k", "2")
        assert code == 0
        assert out.splitlines()[0] == "duplicator"

    def test_linear_order_spoiler(self, capsys):
        code, out, _ = run_cli(capsys, "ef", "1,1", "1,1,1", "--k", "2")
        assert code == 0
        assert out.splitlines()[0] == "spoiler"

    def test_self_play(self, capsys):
        for k in range(5):
            code, out, _ = run_cli(capsys, "ef", "2,1,3", "2,1,3",
                                   "--k", str(k))
            assert code == 0
            assert out.splitlines()[0] == "duplicator"

    def test_oracle_reports_nodes(self, capsys):
        code, out, _ = run_cli(capsys, "ef", "2,1", "1,2", "--k", "2",
                               "--oracle")
        assert code == 0
        assert "nodes:" in out

    def test_budget_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "ef", "1,1,1,1,1,1,1,1", "1,1,1,1,1,1,1",
                               "--k", "3", "--oracle", "--budget", "4")
        assert code == 3
        assert "budget" in err

    def test_oversized_board_exit_3(self, capsys, monkeypatch):
        # the pair-code table of an 11-point board has 121 cells
        monkeypatch.setattr(logic, "MAX_EVALUATION_CELLS", 100)
        code, out, err = run_cli(capsys, "ef", "--oracle", "11", "1",
                                 "--k", "1")
        assert (code, out) == (3, "")
        assert "11 points" in err and "bound of 100" in err

    def test_other_theories(self, capsys):
        code, out, _ = run_cli(capsys, "ef", "--theory", "composition",
                               "2,1", "1,2", "--k", "1")
        assert code == 0
        assert out.splitlines()[0] == "duplicator"

    def test_bad_k_and_budget_exit_2(self, capsys):
        assert_usage_error(capsys, "ef", "1,2", "2,1", "--k", "-1",
                           option="--k")
        for oracle in ((), ("--oracle",)):
            assert_usage_error(capsys, "ef", "1", "1", "--k", "1", *oracle,
                               "--budget", "-5", option="--budget")

    def test_budget_help_names_the_game_tree_solver(self, capsys):
        with pytest.raises(SystemExit):
            main(["ef", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert ("bound on the new segment types of the convex decider or, "
                "under --oracle or another theory, on the nodes of the "
                "game-tree solver") in help_text

    def test_budget_bounds_the_segment_decider(self, capsys):
        # one block of 2000 points needs 9,996 segment types at depth 3
        # and takes seconds; the budget stops it after 1,000.  Each query
        # starts from an empty memo, whatever ran before it
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "ef", "2000", "1", "--k", "3",
                                 "--budget", "1000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert "segment budget exhausted" in err and "1000 entries" in err
        code, out, _ = run_cli(capsys, "ef", "300", "1", "--k", "3")
        assert (code, out.split()) == (0, ["spoiler", "method:", "segment",
                                           "nodes:", "1496"])
        code, out, _ = run_cli(capsys, "ef", "300", "1", "--k", "3",
                               "--budget", "1496")
        assert (code, out.split()[0]) == (0, "spoiler")
        code, _, err = run_cli(capsys, "ef", "300", "1", "--k", "3",
                               "--budget", "1495")
        assert code == 3 and "1495 entries" in err

    def test_same_query_reports_the_same_nodes(self, capsys):
        # a warm memo must neither shrink the count nor stretch --budget
        runs = [run_cli(capsys, "ef", "5,3,2", "4,1,3", "--k", "3")
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and "nodes: 90" in runs[0][1].splitlines()
        code, _, err = run_cli(capsys, "ef", "5,3,2", "4,1,3", "--k", "3",
                               "--budget", "45")
        assert code == 3 and "45 entries" in err

    def test_budget_is_exact(self, capsys):
        # a query answers exactly when its budget covers the segment types
        # it needs from an empty memo, and the memo never grows past the
        # budget, answered or not
        code, out, err = run_cli(capsys, "ef", "5,3,2", "4,1,3", "--k", "3",
                                 "--budget", "89")
        assert (code, out) == (3, "") and "89 entries" in err
        code, out, _ = run_cli(capsys, "ef", "5,3,2", "4,1,3", "--k", "3",
                               "--budget", "90")
        assert code == 0 and "nodes: 90" in out.splitlines()
        for query, need in ((("5,3,2", "4,1,3"), 90), (("300", "1"), 1496)):
            for budget in range(80, 96):
                code, out, _ = run_cli(capsys, "ef", *query, "--k", "3",
                                       "--budget", str(budget))
                assert (code == 0) == (budget >= need), (query, budget)
                assert code in (0, 3)
                if code == 0:
                    nodes = int(out.split("nodes:")[1])
                    assert nodes == need <= budget, (query, budget)
                assert efgame.fast_memo_size() <= budget, (query, budget)

    def test_bad_literal_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "ef", "2,0", "1,1", "--k", "1")
        assert code == 2


class TestStates:
    def test_k0_and_k1(self, capsys):
        for k in ("0", "1"):
            code, out, _ = run_cli(capsys, "states", "--k", k)
            assert code == 0
            assert "states: 1" in out
            assert "0: 1 " in out

    def test_k2_count(self, capsys):
        code, out, _ = run_cli(capsys, "states", "--k", "2")
        assert code == 0
        assert "states: 57" in out

    def test_k3_budget_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "states", "--k", "3",
                               "--budget", "500")
        assert code == 3
        assert "budget" in err or "closure" in err

    def test_budget_help_names_both_bounds(self, capsys):
        with pytest.raises(SystemExit):
            main(["states", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert ("--budget BUDGET bound on the chain's states and, under "
                "--verify, on the game types the solver computes") in help_text

    def test_budget_bounds_the_verify_types(self, capsys):
        # the depth-2 chain has 57 states and its check computes 396 types
        code, out, _ = run_cli(capsys, "states", "--k", "2", "--verify",
                               "--budget", "396")
        assert code == 0 and "states: 57" in out
        code, _, err = run_cli(capsys, "states", "--k", "2", "--verify",
                               "--budget", "395")
        assert code == 3
        assert "after 396 nodes typing convex" in err

    def test_bad_k_and_budget_exit_2(self, capsys):
        assert_usage_error(capsys, "states", "--k", "-1", option="--k")
        assert_usage_error(capsys, "states", "--k", "2", "--budget", "0",
                           option="--budget")

    def test_solves_only_for_json(self, capsys, monkeypatch, tmp_path):
        solved = count_solves(monkeypatch)
        assert run_cli(capsys, "states", "--k", "1")[0] == 0
        assert not solved
        assert run_cli(capsys, "states", "--k", "1", "--emit-json",
                       str(tmp_path / "states.json"))[0] == 0
        assert len(solved) == 1

    def test_emit_json_round_trip(self, capsys, tmp_path):
        path = tmp_path / "states.json"
        code, _, _ = run_cli(capsys, "states", "--k", "2",
                             "--emit-json", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["k"] == 2
        assert len(doc["states"]) == 57
        assert all(s["accepting"] is None for s in doc["states"])


class TestCheck:
    def test_pinned_examples(self, capsys):
        code, out, _ = run_cli(capsys, "check", "2,1", "--formula", PAIR)
        assert code == 0 and out.strip() == "true"
        code, out, _ = run_cli(capsys, "check", "1,1,1", "--formula", PAIR)
        assert code == 0 and out.strip() == "false"
        code, out, _ = run_cli(capsys, "check", "--theory", "composition",
                               "2,1", "--formula", "exists x. exists y. x p1 y")
        assert code == 0 and out.strip() == "true"

    def test_signature_mismatch_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "check", "2,1",
                             "--formula", "exists x. exists y. x <2 y")
        assert code == 2

    def test_wide_sentence_exit_3(self, capsys):
        # seven variables free at once on 40 points is 40^7 cells for one
        # node, refused before any is allocated
        cycle = ("exists a. exists b. exists c. exists d. exists e. "
                 "exists f. exists g. (a < b & b < c & c < d & d < e "
                 "& e < f & f < g & g < a)")
        code, out, err = run_cli(capsys, "check", ",".join(["1"] * 40),
                                 "--formula", cycle)
        assert code == 3
        assert out == ""
        assert "budget exhausted" in err and str(40 ** 7) in err

    def test_one_variable_at_a_time_on_3000_points(self, capsys):
        # each node has at most one variable free: 3000 cells, no matrix
        for text in ("exists x. x = x", "forall x. !(x < x)"):
            code, out, _ = run_cli(capsys, "check", ",".join(["1"] * 3000),
                                   "--formula", text)
            assert code == 0 and out.strip() == "true", text


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "limlaw.cli", "limit", "--formula",
         "exists x. x = x"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "limit = 1/1" in proc.stdout

import json
import os
import subprocess
import sys
import time
from itertools import count
from pathlib import Path

import pytest

import dormantops
from dormantops import cli, fusion
from dormantops.fp import PRIME_TEST_BOUND, is_odd_prime
from dormantops.fusion import BaseTable
from dormantops.hyperg import MAX_ORACLE_P
from dormantops.radii import canonical
from dormantops.verlinde import verlinde_sum


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def _prime_above(n):
    return next(q for q in count(n + 1) if is_odd_prime(q))


def test_kernel_full_chain(capsys):
    code, data, _ = run_json(capsys, "kernel", "--p", "7", "--alpha", "6,4,2", "--beta", "5,3")
    assert code == 0
    assert data["rank"] == 3
    assert data["t_set"] == [0, 1, 2]
    assert data["full_solutions"] is True
    assert data["oracle_rank"] == 3


def test_kernel_generic_skips_oracle(capsys):
    code, data, _ = run_json(capsys, "kernel", "--p", "5", "--alpha", "generic,1", "--beta", "2")
    assert code == 0
    assert data["alpha"] == ["generic", 1]
    assert data["oracle_rank"] is None
    assert data["rank"] == 1


def test_kernel_basis_is_verified(capsys):
    code, data, _ = run_json(
        capsys, "kernel", "--p", "5", "--alpha", "1,3", "--beta", "2", "--basis"
    )
    assert code == 0
    assert len(data["basis"]) == 2 == data["rank"]
    assert data["basis_verified"] is True


def test_kernel_above_the_oracle_bound_skips_the_oracle(capsys):
    p = str(_prime_above(MAX_ORACLE_P))
    code, out, _ = run(capsys, "kernel", "--p", p, "--alpha", "1,2", "--beta", "3")
    assert code == 0
    assert f"oracle rank = skipped (p above MAX_ORACLE_P = {MAX_ORACLE_P})" in out
    assert "rank = 1" in out
    code, data, _ = run_json(capsys, "kernel", "--p", p, "--alpha", "1,2", "--beta", "3")
    assert code == 0
    assert data["oracle_rank"] is None and data["rank"] == 1 and "basis" not in data


def test_kernel_basis_above_the_oracle_bound_is_an_error(capsys):
    p = str(_prime_above(MAX_ORACLE_P))
    code, out, err = run(capsys, "kernel", "--p", p, "--alpha", "1,2", "--beta", "3", "--basis", "--json")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "MAX_ORACLE_P" in err


def test_kernel_at_a_large_prime_answers_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "kernel", "--p", str(2**61 - 1), "--alpha", "1,2", "--beta", "3")
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    assert "rank = 1" in out


def test_kernel_refuses_p_at_or_above_the_primality_bound(capsys):
    code, out, err = run(capsys, "kernel", "--p", str(PRIME_TEST_BOUND), "--alpha", "1,2", "--beta", "3")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "PRIME_TEST_BOUND" in err


def test_kernel_rejects_bad_input(capsys):
    code, _, err = run(capsys, "kernel", "--p", "4", "--alpha", "1", "--beta", "1")
    assert code == 1 and "odd prime" in err
    code, _, err = run(capsys, "kernel", "--p", "5", "--alpha", "1,x", "--beta", "1")
    assert code == 1


def test_xi_listing(capsys):
    code, data, _ = run_json(capsys, "xi", "--p", "7", "--n", "3")
    assert code == 0
    assert data["size"] == 5
    assert data["classes"] == [[0, 1, 2], [0, 1, 3], [0, 1, 4], [0, 1, 5], [0, 2, 4]]


def test_hyp_listing(capsys):
    code, data, _ = run_json(capsys, "hyp", "--p", "5", "--n", "2")
    assert code == 0
    assert data["size"] == 5
    code, data, _ = run_json(capsys, "hyp", "--p", "7", "--n", "3")
    assert data["size"] == 52


@pytest.mark.parametrize("n", ["1", "9"])
def test_xi_rejects_out_of_range_rank(capsys, n):
    code, _, err = run(capsys, "xi", "--p", "7", "--n", n)
    assert code == 1 and "1 < n < p" in err


def test_exponents_tolerates_repeats(capsys):
    code, data, _ = run_json(capsys, "exponents", "--p", "5", "--alpha", "1,1,2", "--beta", "1,2")
    assert code == 0
    assert data["radii"] == [[0, 0, 4], [0, 1, 2], [0, 0, 1]]
    assert data["in_xi"] == [False, True, False]


def test_count_closed_genus_two(capsys):
    code, data, _ = run_json(capsys, "count", "--p", "7", "--n", "3", "--g", "2")
    assert code == 0
    assert data["count"] == 56
    assert data["trace"]
    assert all(row["rule"] and row["N"] >= 0 for row in data["trace"])


def test_count_three_point_override_entry(capsys):
    code, data, _ = run_json(
        capsys, "count", "--p", "7", "--n", "3", "--g", "0", "--radii", "0,2,4/0,2,4/0,2,4"
    )
    assert code == 0
    assert data["count"] == 2
    assert data["trace"][0]["rule"] == "jacobi-trudi"


def test_count_accepts_any_translate(capsys):
    code, data, _ = run_json(
        capsys, "count", "--p", "7", "--n", "3", "--g", "0", "--radii", "1,3,5/0,2,4/2,4,6"
    )
    assert code == 0
    assert data["count"] == 2
    assert data["radii"] == [[0, 2, 4]] * 3


def test_count_former_unknown_entry_resolves_to_two(capsys):
    code, out, _ = run(
        capsys, "count", "--p", "11", "--n", "3", "--g", "0", "--radii", "0,2,5/0,2,5/0,2,5"
    )
    assert code == 0
    assert out.splitlines()[0] == "count = 2"
    assert "0,2,5 / 0,2,5 / 0,2,5 -> 2  [jacobi-trudi]" in out


def test_count_trace_names_every_rule(capsys):
    code, data, _ = run_json(capsys, "count", "--p", "11", "--n", "4", "--g", "2")
    assert code == 0
    assert data["count"] == 18755
    rules = [row["rule"] for row in data["trace"]]
    assert {r: rules.count(r) for r in set(rules)} == {"hyp": 1576, "jacobi-trudi": 946, "dual:hyp": 89}


# (13, 4) at genus 3 prints a trace of about 10^5 entries; the library test covers it
@pytest.mark.parametrize("p,n,g", [(11, 3, 2), (11, 3, 3), (13, 4, 2)])
def test_count_on_completed_tables_matches_the_closed_form(capsys, p, n, g):
    code, data, _ = run_json(capsys, "count", "--p", str(p), "--n", str(n), "--g", str(g))
    assert code == 0
    assert data["count"] == verlinde_sum(p, n, g)


def test_count_refuses_a_table_too_large_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "--p", "17", "--n", "8", "--g", "2")
    assert time.perf_counter() - start < 1
    assert code == 1 and not out
    assert err.startswith("error:") and "1430 classes" in err


@pytest.mark.parametrize("argv", [("count", "--g", "2"), ("axioms",)])
def test_a_basis_far_past_the_limit_is_refused_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], "--p", "1000003", "--n", "500001", *argv[1:])
    assert time.perf_counter() - start < 1
    assert code == 1 and not out
    assert err.startswith("error:") and "has more than" in err


def test_count_at_genus_400_matches_the_closed_form(capsys):
    code, data, _ = run_json(capsys, "count", "--p", "5", "--n", "2", "--g", "400")
    assert code == 0
    assert data["count"] == verlinde_sum(5, 2, 400)


def test_verlinde_command(capsys):
    code, data, _ = run_json(capsys, "verlinde", "--p", "7", "--n", "3", "--g", "2")
    assert code == 0 and data["count"] == 56
    code, _, err = run(capsys, "verlinde", "--p", "7", "--n", "5", "--g", "2")
    assert code == 1 and "validity window" in err


def test_verlinde_checks_the_prime_before_the_window(capsys):
    code, out, err = run(capsys, "verlinde", "--p", "4", "--n", "3", "--g", "2")
    assert code == 1 and not out
    assert err == "error: modulus must be an odd prime, got 4\n"


def test_verlinde_accepts_rank_one(capsys):
    code, data, _ = run_json(capsys, "verlinde", "--p", "7", "--n", "1", "--g", "2")
    assert code == 0 and data["count"] == 1


@pytest.mark.parametrize("p,n", [("101", "50"), ("1009", "1")])
def test_verlinde_refuses_oversized_input_at_once(capsys, p, n):
    start = time.perf_counter()
    code, out, err = run(capsys, "verlinde", "--p", p, "--n", n, "--g", "2")
    assert time.perf_counter() - start < 1
    assert code == 1 and not out
    assert err.startswith("error:") and "over the limit of" in err


def test_axioms_command(capsys):
    code, data, _ = run_json(capsys, "axioms", "--p", "5", "--n", "2")
    assert code == 0 and data["passed"] is True


def test_axioms_failure_exits_three(capsys, monkeypatch):
    w1 = canonical(7, (0, 1, 2))

    def corrupted(p, n):
        return BaseTable(p, n).with_value((w1, w1, w1), 2)

    monkeypatch.setattr(fusion, "BaseTable", corrupted)
    code, data, _ = run_json(capsys, "axioms", "--p", "7", "--n", "3")
    assert code == 3
    assert data["passed"] is False


def test_axioms_refuses_a_basis_too_large(capsys):
    code, out, err = run(capsys, "axioms", "--p", "13", "--n", "4")
    assert code == 1 and not out
    assert err.startswith("error:") and "55 classes" in err


def test_axioms_refuses_before_building_the_table(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "axioms", "--p", "13", "--n", "6")
    assert time.perf_counter() - start < 1
    assert code == 1 and not out
    assert err.startswith("error:") and "132 classes" in err


@pytest.mark.parametrize("p", ["3", "5", "7"])
def test_verify_passes_for_published_primes(capsys, p):
    code, data, _ = run_json(capsys, "verify", "--p", p)
    assert code == 0
    assert data["passed"] is True
    assert all(row["ok"] for row in data["checks"])


def test_verify_rejects_other_primes(capsys):
    assert run(capsys, "verify", "--p", "11") == (1, "", "error: verify covers p in {3, 5, 7}, got 11\n")
    with pytest.raises(ValueError, match="got 11"):
        cli.run_verify(11)


def test_verify_mismatch_exits_three(capsys, monkeypatch):
    real = cli.published_counts

    def broken(p, n):
        counts = dict(real(p, n))
        key = next(iter(counts))
        counts[key] += 1
        return counts

    monkeypatch.setattr(cli, "published_counts", broken)
    code, data, _ = run_json(capsys, "verify", "--p", "3")
    assert code == 3
    assert data["passed"] is False
    bad = [row for row in data["checks"] if not row["ok"]]
    assert bad and bad[0]["check"] == "count-table"
    assert bad[0]["detail"]


@pytest.mark.parametrize("argv", [("count", "--p", "7", "--n", "3", "--g", "2"), ("verify", "--p", "7")])
def test_a_failed_self_check_exits_three(capsys, monkeypatch, argv):
    real = fusion._closure

    def dropped(basis, pieri, w):
        # as in test_hyp_witness_refuses_a_disagreement: slot 0 of row 0 goes to 0
        for a, rows in enumerate(real(basis, pieri, w)):
            if a == 0:
                rows = list(rows)
                rows[0] -= 1
            yield rows

    monkeypatch.setattr(fusion, "_closure", dropped)
    code, out, err = run(capsys, *argv)
    assert code == 3 and not out
    assert err.startswith("error: p=7, n=") and err.count("\n") == 1


def test_only_the_plain_arithmetic_error_of_a_self_check_exits_three(capsys, monkeypatch):
    fault = ArithmeticError("count came out as 1/2, not a nonnegative integer")

    def broken(p, n, g):
        raise fault

    monkeypatch.setattr(cli, "verlinde_count", broken)
    argv = ["verlinde", "--p", "7", "--n", "2", "--g", "2"]
    assert run(capsys, *argv) == (3, "", f"error: {fault}\n")
    fault = ZeroDivisionError("division by zero")
    with pytest.raises(ZeroDivisionError):
        cli.main(argv)


def test_verify_reports_a_published_class_outside_xi(capsys, monkeypatch):
    real = cli.published_counts
    outside = canonical(3, (0, 0))
    assert not outside.in_xi

    def extended(p, n):
        counts = dict(real(p, n))
        counts[(outside, outside, outside)] = 1
        return counts

    monkeypatch.setattr(cli, "published_counts", extended)
    code, data, _ = run_json(capsys, "verify", "--p", "3")
    assert code == 3
    bad = [row for row in data["checks"] if not row["ok"]]
    assert [row["check"] for row in bad] == ["count-table"]
    assert bad[0]["detail"] == [{"triple": [[0, 0]] * 3, "computed": 0, "published": 1}]
    code, out, _ = run(capsys, "verify", "--p", "3")
    assert code == 3
    assert "n=2 count-table: MISMATCH" in out.splitlines()
    assert '  [{"computed": 0, "published": 1, "triple": [[0, 0], [0, 0], [0, 0]]}]' in out.splitlines()


def test_json_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--p", "5", "--json")
    _, out2, _ = run(capsys, "verify", "--p", "5", "--json")
    assert out1 == out2
    _, x1, _ = run(capsys, "xi", "--p", "7", "--n", "4", "--json")
    data = json.loads(x1)
    assert json.dumps(data, sort_keys=True) + "\n" == x1


@pytest.mark.parametrize("p,inside", [(3, ()), (5, (2,)), (7, (2, 3))])
def test_verify_names_each_genus_two_row_by_the_validity_window(p, inside):
    names = {
        row["n"]: row["check"]
        for row in cli.run_verify(p)["checks"]
        if row["check"].startswith("genus-2") and row["check"] != "genus-2 polynomial"
    }
    outside = "genus-2 (outside validity window)"
    assert names == {n: "genus-2" if n in inside else outside for n in range(2, p)}


def test_run_verify_report_shape():
    report = cli.run_verify(3)
    assert report["p"] == 3 and report["passed"] is True
    checks = {row["check"] for row in report["checks"]}
    assert {"xi-list", "count-table", "axioms", "genus-1"} <= checks


def test_a_reader_that_closes_stdout_early_gets_exit_141_and_no_error():
    """xi --p 19 --n 9 writes about 100 kB; the reader takes 100 bytes and leaves."""
    src = Path(dormantops.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "dormantops.cli", "xi", "--p", "19", "--n", "9"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""

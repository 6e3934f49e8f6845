import json

import pytest

from dormantops import cli
from dormantops.fusion import BaseTable
from dormantops.radii import canonical
from dormantops.verlinde import verlinde_sum


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


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
    assert data["trace"][0]["rule"].startswith("dual:override:")


def test_count_accepts_any_translate(capsys):
    code, data, _ = run_json(
        capsys, "count", "--p", "7", "--n", "3", "--g", "0", "--radii", "1,3,5/0,2,4/2,4,6"
    )
    assert code == 0
    assert data["count"] == 2
    assert data["radii"] == [[0, 2, 4]] * 3


def test_count_unknown_base_entry_exits_two(capsys):
    code, _, err = run(
        capsys, "count", "--p", "11", "--n", "3", "--g", "0", "--radii", "0,2,5/0,2,5/0,2,5"
    )
    assert code == 2
    assert "p=11" in err and "[0, 2, 5]" in err


def test_count_overrides_file_extends_table(capsys, tmp_path):
    path = tmp_path / "ext.json"
    path.write_text(
        json.dumps([{"p": 11, "n": 3, "triple": [[0, 2, 5]] * 3, "N": 4, "source": "ext"}])
    )
    code, data, _ = run_json(
        capsys, "count", "--p", "11", "--n", "3", "--g", "0",
        "--radii", "0,2,5/0,2,5/0,2,5", "--overrides", str(path),
    )
    assert code == 0
    assert data["count"] == 4


def test_count_at_genus_400_matches_the_closed_form(capsys):
    code, data, _ = run_json(capsys, "count", "--p", "5", "--n", "2", "--g", "400")
    assert code == 0
    assert data["count"] == verlinde_sum(5, 2, 400)


@pytest.mark.parametrize("entries,says", [
    ([{"p": 7, "n": 3, "triple": [[0, 2, 4]] * 3, "source": "no N"}], "has no key 'N'"),
    ({"p": 7, "n": 3, "triple": [[0, 2, 4]] * 3, "N": 2}, "must be a list of records"),
    ([{"p": 7, "n": 3, "triple": [[0, 2, 4]] * 3, "N": True}], "nonnegative integer, got True"),
], ids=["record-without-N", "object-not-list", "boolean-N"])
def test_count_malformed_overrides_file_exits_one(capsys, tmp_path, entries, says):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(entries))
    code, out, err = run(
        capsys, "count", "--p", "7", "--n", "3", "--g", "2", "--overrides", str(path)
    )
    assert code == 1 and not out
    assert err.startswith("error:") and "override" in err and says in err
    assert "Traceback" not in err


def test_count_missing_overrides_file(capsys):
    code, _, err = run(
        capsys, "count", "--p", "7", "--n", "3", "--g", "2", "--overrides", "/nonexistent.json"
    )
    assert code == 1


def test_verlinde_command(capsys):
    code, data, _ = run_json(capsys, "verlinde", "--p", "7", "--n", "3", "--g", "2")
    assert code == 0 and data["count"] == 56
    code, _, err = run(capsys, "verlinde", "--p", "7", "--n", "5", "--g", "2")
    assert code == 1 and "validity window" in err


def test_axioms_command(capsys):
    code, data, _ = run_json(capsys, "axioms", "--p", "5", "--n", "2")
    assert code == 0 and data["passed"] is True


def test_axioms_failure_exits_three(capsys, monkeypatch):
    w1 = canonical(7, (0, 1, 2))

    def corrupted(p, n, overrides=None):
        return BaseTable(p, n).with_value((w1, w1, w1), 2)

    monkeypatch.setattr(cli, "BaseTable", corrupted)
    code, data, _ = run_json(capsys, "axioms", "--p", "7", "--n", "3")
    assert code == 3
    assert data["passed"] is False


@pytest.mark.parametrize("p", ["3", "5", "7"])
def test_verify_passes_for_published_primes(capsys, p):
    code, data, _ = run_json(capsys, "verify", "--p", p)
    assert code == 0
    assert data["passed"] is True
    assert all(row["ok"] for row in data["checks"])


def test_verify_rejects_other_primes(capsys):
    code, _, err = run(capsys, "verify", "--p", "11")
    assert code == 1


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


def test_json_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--p", "5", "--json")
    _, out2, _ = run(capsys, "verify", "--p", "5", "--json")
    assert out1 == out2
    _, x1, _ = run(capsys, "xi", "--p", "7", "--n", "4", "--json")
    data = json.loads(x1)
    assert json.dumps(data, sort_keys=True) + "\n" == x1


def test_run_verify_report_shape():
    report = cli.run_verify(3)
    assert report["p"] == 3 and report["passed"] is True
    checks = {row["check"] for row in report["checks"]}
    assert {"xi-list", "count-table", "axioms", "genus-1"} <= checks

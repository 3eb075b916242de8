"""The `verify` suite runner: one instance per check, failures never outnumber them."""

from faadibruno import verification
from faadibruno.coefficients import IntegralityError, coefficient_table


def only_suite(monkeypatch, key):
    # run_all reads SUITES at call time, so a one-suite registry runs one suite
    (entry,) = [entry for entry in verification.SUITES if entry[0] == key]
    monkeypatch.setattr(verification, "SUITES", (entry,))


def test_registry_shape():
    keys = [key for key, _statement, _runner, _info in verification.SUITES]
    assert len(keys) == 30 and len(set(keys)) == 30
    assert [key for key, _s, _r, info in verification.SUITES if info] == [
        "stirling_convolution_unweighted",
        "stirling_recurrence_unshifted",
    ]


def test_unbuildable_table_is_one_failing_instance(monkeypatch):
    real = verification.coefficient_table

    def table(n, s, cap):
        if n == 0:
            raise IntegralityError(f"table (n={n}, s={s}) is not integral")
        return real(n, s, cap=cap)

    monkeypatch.setattr(verification, "coefficient_table", table)
    only_suite(monkeypatch, "coefficient_integrality")
    for max_n in (0, 3):
        report = verification.run_all(max_n=max_n, max_s=0)
        (result,) = report["identities"]
        others = sum(len(coefficient_table(n, 0).entries) for n in range(1, max_n + 1))
        assert result["instances"] == others + 1
        assert result["failures"] == 1
        assert result["failures"] <= result["instances"]
        assert result["counterexample"] == {
            "n": 0,
            "s": 0,
            "error": "table (n=0, s=0) is not integral",
        }
        assert result["passed"] is False and report["passed"] is False


def test_passing_integrality_report_counts_every_entry(monkeypatch):
    only_suite(monkeypatch, "coefficient_integrality")
    (result,) = verification.run_all(max_n=4, max_s=2)["identities"]
    entries = sum(
        len(coefficient_table(n, s).entries) for s in range(3) for n in range(5)
    )
    assert (result["instances"], result["failures"]) == (entries, 0)
    assert result["passed"] is True and result["counterexample"] is None

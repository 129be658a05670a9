import pytest

from inducibility import verify
from inducibility.verify import SUITES, CheckResult, run_suite


@pytest.mark.parametrize("suite", list(SUITES))
def test_suite_passes(suite, verified):
    results = [verified(check) for check in SUITES[suite]]
    failed = [r for r in results if not r.ok]
    assert not failed, [f"{r.name}: {r.detail}" for r in failed]


def test_all_runs_every_suite(monkeypatch):
    def stub(name):
        return lambda: CheckResult(name, True, "")

    tables = {
        suite: tuple(stub(f"{suite}.{i}") for i in range(len(checks)))
        for suite, checks in SUITES.items()
    }
    monkeypatch.setattr(verify, "SUITES", tables)
    names = [r.name for r, seconds in run_suite("all")]
    assert names == [check().name for table in tables.values() for check in table]
    assert len(names) == sum(map(len, SUITES.values())) > 0


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")

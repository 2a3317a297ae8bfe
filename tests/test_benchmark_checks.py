"""The benchmark's two CLI checks, passed in process: the verify-grid job's
`verify` output and the towers-beta job's four `beta-integers` outputs each
pass the checker of `perfbench/workloads.py` with no failed operation.  A
change that breaks those outputs fails here, not first as failed operations
of the benchmark.  Reads `perfbench/` only.
"""

from pathlib import Path

import pytest

from betawords import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    return workloads


def outcome(argv, capsys):
    """(exit code, stdout bytes) of `argv` run through `cli.main`, as the
    benchmark's checkers read a child's."""
    try:
        cli.main(argv)
        code = 0
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out.encode()


def test_verify_grid_output_passes_its_check(workloads, capsys):
    job = workloads.make_job("verify-grid", 1)
    outputs = [outcome(args, capsys) for target, args in job.commands]
    assert [target for target, _ in job.commands] == ["cli"]
    assert workloads.check_verify_grid(outputs, job.inputs) == 0


def test_beta_integers_outputs_pass_their_check(workloads, capsys):
    job = workloads.make_job("towers-beta", 1)
    beta = [args for target, args in job.commands if target == "cli"]
    assert len(beta) == 4 and all(args[0] == "beta-integers" for args in beta)
    outputs = [outcome(args, capsys) for args in beta]
    # the fixed-point prefixes of the gap-coding check, read as the
    # benchmark reads them, from `word`
    words = {}
    for d in job.inputs["digits"]:
        code, stdout = outcome(["word", "--digits", d, "--length",
                                str(workloads.BETA_COUNT - 1), "--format", "json"],
                               capsys)
        assert code == 0
        words[d] = workloads.load_json(stdout)["word"]
    assert workloads.check_beta_integers(outputs, job.inputs, words) == 0

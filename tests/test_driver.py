import csv
import dataclasses
import gc
import hashlib
import io
import json
import logging
import math
import os
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import cycsim
from references import seven_gate_trial
from cycsim import crt_reduction, dlog_pipeline, driver, gates, halting_program, hilbert
from cycsim import mq_circuits
from cycsim.driver import ExperimentConfig, cli_main, run_experiment, run_sweep
from cycsim.hilbert import GateLedger, LocalUnitary, Permutation, Sequence, SparseState
from cycsim.numtheory import (DomainError, classical_dlog, find_primitive_root, is_prime,
                              make_group_spec)
from cycsim.oracle import OracleSpec, make_subspace_oracle


def test_run_experiment_example():
    rep = run_experiment(ExperimentConfig(p=13, hidden_s=7))
    v = rep.verification
    assert v["success"] is True
    assert rep.recovered_s == 7
    assert [c["recovered_s_k"] for c in rep.components] == [1, 3]
    assert rep.dlog_demo["agrees_with_classical"] is True
    assert abs(rep.euler_filter_weight - 1 / 3) < 1e-12
    assert len(rep.halting_ledger) == 2  # one removed register per component pass


def test_run_experiment_zero_index():
    rep = run_experiment(ExperimentConfig(p=13, hidden_s=0))
    assert rep.recovered_s == 0
    assert all(c["recovered_s_k"] == 0 for c in rep.components)
    assert rep.verification["success"] is True


def test_success_tracks_classical_oracle():
    for s in (1, 5, 9):
        rep = run_experiment(ExperimentConfig(p=13, hidden_s=s, run_demo=False))
        b = pow(rep.group["g"], s, 13)
        assert rep.verification["classical_dlog_agrees"] is True
        assert rep.recovered_s == classical_dlog(13, rep.group["g"], b)
        assert rep.verification["success"] is True


def test_oracle_call_budget():
    rep = run_experiment(ExperimentConfig(p=13, hidden_s=11, run_demo=False))
    m_r = max(c["m_k"] for c in rep.components)
    for comp in rep.components:
        assert comp["oracle_calls"] <= m_r
    # total = search calls + two verification calls
    assert rep.oracle_calls_total == sum(c["oracle_calls"] for c in rep.components) + 2
    assert rep.gate_counts["oracle-call"] == rep.oracle_calls_total


@pytest.mark.parametrize("p,most_calls", [(13, 4), (43, 7)])
def test_a_search_sweep_keeps_the_papers_counts(p, most_calls):
    # exact mode: a trial reads 0 or 1, only the last trial of a component
    # hits, and no component calls the oracle more than the largest
    # subgroup order, which some hidden index reaches; trials run x = 0, 1, ...
    # so component k calls the oracle s mod m_k + 1 times, and the
    # verification adds two calls to the report's total
    largest = make_group_spec(p).largest_order
    assert largest == most_calls
    calls = []
    for s, rep in enumerate(run_sweep(ExperimentConfig(p=p, run_demo=False))):
        for comp in rep.components:
            probs = comp["trial_probabilities"]
            assert all(min(abs(q), abs(1 - q)) < 1e-12 for q in probs), (s, comp["k"], probs)
            assert [q > 0.5 for q in probs] == [False] * (len(probs) - 1) + [True]
            assert comp["oracle_calls"] == len(probs) <= largest
            assert comp["oracle_calls"] == s % comp["m_k"] + 1 == comp["recovered_s_k"] + 1
            calls.append(comp["oracle_calls"])
        assert rep.oracle_calls_total == sum(c["oracle_calls"] for c in rep.components) + 2
    assert max(calls) == largest


def test_hidden_index_quarantined_outside_verification():
    rep = run_experiment(ExperimentConfig(p=13, hidden_s=7, run_demo=False))
    payload = rep.as_dict()
    verification = payload.pop("verification")
    assert verification["hidden_s"] == 7
    assert "hidden_s" not in json.dumps(payload)


def test_hidden_index_read_only_by_oracle_and_driver():
    # the secret may be consumed only by oracle constructors and the driver's
    # config/verification plumbing; pipeline modules receive gates
    import pathlib

    import cycsim
    src = pathlib.Path(cycsim.__file__).parent
    allowed = {"oracle.py", "driver.py"}
    for path in src.glob("*.py"):
        if path.name in allowed:
            continue
        assert "hidden_index" not in path.read_text(), path.name
        assert "marked_value" not in path.read_text(), path.name


def test_success_implies_crt_composition():
    from cycsim.numtheory import crt_compose, make_group_spec
    rep = run_experiment(ExperimentConfig(p=29, hidden_s=17, run_demo=False))
    assert rep.verification["success"] is True
    spec = make_group_spec(29)
    residues = tuple(c["recovered_s_k"] % c["m_k"] for c in rep.components)
    assert crt_compose(residues, spec.basis) == rep.recovered_s


def test_reports_byte_identical():
    a = run_experiment(ExperimentConfig(p=13, hidden_s=5)).to_json()
    b = run_experiment(ExperimentConfig(p=13, hidden_s=5)).to_json()
    assert a == b
    c = run_experiment(ExperimentConfig(p=13, hidden_random=True, seed=3)).to_json()
    d = run_experiment(ExperimentConfig(p=13, hidden_random=True, seed=3)).to_json()
    assert c == d


def test_config_validation():
    with pytest.raises(DomainError):
        ExperimentConfig(p=12, hidden_s=1).validate()
    with pytest.raises(DomainError):
        ExperimentConfig(p=13, hidden_s=12).validate()
    with pytest.raises(DomainError):
        ExperimentConfig(p=13, hidden_s=1, epsilon=1.5).validate()


def test_sweep_small_prime():
    reports = run_sweep(ExperimentConfig(p=7, run_demo=False))
    assert len(reports) == 6
    assert all(r.verification["success"] for r in reports)
    assert [r.verification["hidden_s"] for r in reports] == list(range(6))


@pytest.mark.slow
def test_search_only_sweep_recovers_every_index_up_to_p127_and_at_p257():
    # every relabeling on search layouts of one word and, at p = 67, 127 and
    # 257, of two words per row
    missed = []
    for p in [q for q in range(5, 128) if is_prime(q)] + [257]:
        reports = run_sweep(ExperimentConfig(p=p, run_demo=False))
        assert [r.verification["hidden_s"] for r in reports] == list(range(p - 1))
        missed += [(p, r.verification["hidden_s"]) for r in reports
                   if not r.verification["success"]]
    assert missed == []


def test_leakage_degrades_probabilities_monotonically():
    tops = []
    for eps in (0.0, 0.1, 0.2):
        rep = run_experiment(ExperimentConfig(p=13, hidden_s=7, epsilon=eps,
                                              gamma=0.3, run_demo=False))
        tops.append(max(c["max_probability"] for c in rep.components))
        assert rep.verification["success"] is True
    assert tops[0] > tops[1] > tops[2]


def test_cli_single_run(tmp_path):
    out = tmp_path / "r.json"
    code = cli_main(["--p", "13", "--hidden-s", "7", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verification"]["success"] is True
    assert payload["verification"]["recovered_s"] == 7


@pytest.mark.parametrize("log,argv,fragment", [
    (None, ["--p", "12", "--hidden-s", "1"], "must be an odd prime"),
    (None, ["--p", "2", "--hidden-s", "0"], "p must be an odd prime, got 2"),
    (None, ["--p", "13", "--g", "4", "--hidden-s", "1"], "4 is not a primitive root mod 13"),
    (None, ["--p", "13", "--g", "15", "--hidden-s", "1"], "15 is not a primitive root mod 13"),
    (None, ["--p", "13", "--hidden-s", "1", "--trotter-m", "0"], "trotter_m"),
    (None, ["--p", "13", "--hidden-s", "1", "--mode", "grover", "--grover-m", "-1"], "grover_m"),
    (None, ["--p", "13", "--hidden-s", "1", "--grover-m", "3"], "grover_m applies only to mode"),
    (None, ["--p", "13", "--hidden-s", "3", "--no-demo", "--epsilon", "0.1", "--gamma", "nan"],
     "gamma must be finite"),
    (None, ["--p", "13", "--hidden-s", "3", "--no-demo", "--epsilon", "0.1", "--gamma", "inf"],
     "gamma must be finite"),
    (None, ["--p", "13", "--csv", "/nonexistent/x.csv"],
     "--csv /nonexistent/x.csv: /nonexistent is not a writable directory"),
    (None, ["--p", "13", "--hidden-s", "7", "--out", "/nonexistent/r.json"],
     "--out /nonexistent/r.json: /nonexistent is not a writable directory"),
    (None, ["--p", "7", "--csv", "same.csv", "--out", "./same.csv"],
     "--out and --csv name the same file: ./same.csv"),
    (None, ["--p", "5", "--hidden-s", "1", "--no-demo", "--out", "dir"],
     "--out dir: is a directory"),
    (None, ["--p", "5", "--no-demo", "--csv", "dir/"], "--csv dir/: is a directory"),
    ("basic_format", ["--p", "5", "--hidden-s", "1", "--no-demo"],
     "CYCSIM_LOG='basic_format' is not DEBUG, INFO, WARNING, ERROR or CRITICAL"),
    ("nonsense", ["--p", "5", "--hidden-s", "1", "--no-demo"], "CYCSIM_LOG='nonsense' is not"),
    ("notset", ["--p", "5", "--hidden-s", "1", "--no-demo"], "CYCSIM_LOG='notset' is not"),
], ids=["nonprime", "p-two", "g-not-primitive", "g-out-of-range", "trotter-m-zero",
        "grover-m-negative", "grover-m-without-grover-mode", "gamma-nan", "gamma-inf",
        "csv-dir-missing", "out-dir-missing", "out-is-csv", "out-is-a-directory",
        "csv-is-a-directory", "log-basic-format", "log-nonsense", "log-notset"])
def test_cli_rejects_bad_config(log, argv, fragment, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if log is None:
        monkeypatch.delenv("CYCSIM_LOG", raising=False)
    else:
        monkeypatch.setenv("CYCSIM_LOG", log)
    (tmp_path / "dir").mkdir()
    monkeypatch.setattr(driver, "run_experiment", lambda config: pytest.fail("run started"))
    assert cli_main(argv) == 2
    assert fragment in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["dir"] and not any(
        (tmp_path / "dir").iterdir())


@pytest.mark.parametrize("argv,fragment", [
    (["--p", "13"], "one of the arguments --hidden-s --hidden-random --csv is required"),
    (["--p", "13", "--hidden-s", "5", "--hidden-random", "--seed", "1"],
     "argument --hidden-random: not allowed with argument --hidden-s"),
    (["--p", "13", "--hidden-s", "5", "--csv", "sweep.csv"],
     "argument --csv: not allowed with argument --hidden-s"),
    (["--p", "7", "--hidden-random", "--csv", "sweep.csv"],
     "argument --csv: not allowed with argument --hidden-random"),
    (["--p", "13", "--hidden-s", "7", "--theta", "1.0"], "unrecognized arguments: --theta 1.0"),
], ids=["no-index-source", "hidden-s-with-hidden-random", "hidden-s-with-csv",
        "hidden-random-with-csv", "theta"])
def test_the_parser_exits_2_before_any_run(argv, fragment, capsys, tmp_path, monkeypatch):
    # exactly one of --hidden-s, --hidden-random and --csv picks the hidden
    # index, and theta is no option: argparse exits 2 before any run
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(driver, "run_experiment", lambda config: pytest.fail("run started"))
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert fragment in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_theta_is_the_searchs_fixed_pi_rotation():
    # the trial threshold assumes a pi rotation, so no config can set another
    with pytest.raises(TypeError):
        ExperimentConfig(p=13, theta=1.0)
    config = dataclasses.replace(ExperimentConfig(p=13, run_demo=False), hidden_s=7)
    assert config.theta == math.pi
    assert run_experiment(config).config["theta"] == 3.141592653589793


@pytest.fixture
def own_logger(monkeypatch):
    """The `cycsim` logger's level and handlers, restored after the test."""
    monkeypatch.setattr(driver.log, "level", driver.log.level)
    monkeypatch.setattr(driver.log, "handlers", [])
    return driver.log


def test_cli_reads_a_log_level_in_any_case(monkeypatch, own_logger):
    levels = []
    for value in ("debug", "Info", "ERROR", "critical", "wArNiNg"):
        monkeypatch.setenv("CYCSIM_LOG", value)
        assert cli_main(["--p", "5", "--hidden-s", "1", "--no-demo"]) == 0
        levels.append(logging.getLevelName(own_logger.level))
    monkeypatch.delenv("CYCSIM_LOG")
    assert cli_main(["--p", "5", "--hidden-s", "1", "--no-demo", "--verbose"]) == 0
    levels.append(logging.getLevelName(own_logger.level))
    assert levels == ["DEBUG", "INFO", "ERROR", "CRITICAL", "WARNING", "INFO"]
    assert len(own_logger.handlers) == 1


def test_a_second_cli_call_sets_its_own_log_level(monkeypatch, own_logger, capsys):
    # the instance is built in the first call, and its log line comes from the run
    monkeypatch.setenv("CYCSIM_LOG", "DEBUG")
    assert cli_main(["--p", "5", "--hidden-s", "1", "--no-demo"]) == 0
    assert "INFO cycsim: instance p=5" in capsys.readouterr().err
    monkeypatch.setenv("CYCSIM_LOG", "ERROR")
    assert cli_main(["--p", "5", "--hidden-s", "2", "--no-demo"]) == 0
    assert "INFO cycsim:" not in capsys.readouterr().err
    assert len(own_logger.handlers) == 1


def test_a_configured_root_logger_prints_each_record_once(monkeypatch, own_logger, capsys):
    # records propagate to the root logger, whose handler prints to stderr
    # too, so the `cycsim` handler leaves them to it
    root = logging.StreamHandler(sys.stderr)
    root.setFormatter(logging.Formatter("root-handler %(message)s"))
    monkeypatch.setattr(logging.getLogger(), "handlers", logging.getLogger().handlers + [root])
    monkeypatch.setenv("CYCSIM_LOG", "INFO")
    assert cli_main(["--p", "5", "--hidden-s", "1", "--no-demo"]) == 0
    assert capsys.readouterr().err.count("instance p=5") == 1
    # with the root handler gone, the `cycsim` handler prints the record
    monkeypatch.setattr(logging.getLogger(), "handlers", [])
    assert cli_main(["--p", "5", "--hidden-s", "2", "--no-demo"]) == 0
    assert capsys.readouterr().err.count("INFO cycsim: instance p=5") == 1


def test_cli_refuses_a_prime_too_wide_for_the_verification_register(monkeypatch, capsys):
    # 4099 has 13 bits: building its instance alone would allocate a dense
    # 8192 x 8192 rotation, so the refusal must come before any gate is built
    monkeypatch.setattr(driver, "_instance", lambda *args: pytest.fail("instance built"))
    assert cli_main(["--p", "4099", "--hidden-s", "1", "--no-demo"]) == 2
    assert "p = 4099 needs more than the 12 verification qubits" in capsys.readouterr().err


def test_a_wide_p_is_refused_before_trial_division(monkeypatch, capsys):
    # is_prime divides by trial up to sqrt(p): a minute for a 19-digit p
    calls = []
    monkeypatch.setattr(driver, "is_prime", calls.append)
    assert cli_main(["--p", "1000000000000000003", "--hidden-s", "0"]) == 2
    assert calls == []
    assert ("p = 1000000000000000003 needs more than the 12 verification qubits"
            in capsys.readouterr().err)


def test_cli_deterministic_reports(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["--p", "13", "--hidden-random", "--seed", "1",
                     "--out", str(p1)]) == 0
    assert cli_main(["--p", "13", "--hidden-random", "--seed", "1",
                     "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_sweep_csv(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    assert cli_main(["--p", "7", "--csv", str(csv_path), "--no-demo"]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("p,hidden_s,recovered_s,success")
    assert len(lines) == 7
    assert all(line.split(",")[3] == "True" for line in lines[1:])


def test_cli_sweep_writes_the_reports_beside_the_csv(tmp_path):
    csv_path, json_path = tmp_path / "sweep.csv", tmp_path / "sweep.json"
    assert cli_main(["--p", "7", "--csv", str(csv_path), "--out", str(json_path),
                     "--no-demo"]) == 0
    reports = json.loads(json_path.read_text())
    # one report per hidden index, in sweep order, each its own run's
    assert reports == [json.loads(run_experiment(ExperimentConfig(p=7, hidden_s=s,
                                                                  run_demo=False)).to_json())
                       for s in range(6)]
    rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
    assert len(rows) == len(reports)
    for row, rep in zip(rows, reports):
        v = rep["verification"]
        assert row == {key: str(value) for key, value in (
            ("p", rep["group"]["p"]), ("hidden_s", v["hidden_s"]),
            ("recovered_s", v["recovered_s"]), ("success", v["success"]),
            ("oracle_calls_total", rep["oracle_calls_total"]),
            ("verify_solution", v["verify_solution"]),
            ("classical_dlog_agrees", v["classical_dlog_agrees"]))}


def test_a_failed_component_search_fails_the_run(monkeypatch, caplog):
    # without the base oracle, every trial of component 0 reads 0: its search
    # raises, the run reports the component as unrecovered and goes on
    make = crt_reduction.make_aux_oracle

    def blind(base, k, entry):
        if k:
            return make(base, k, entry)
        return Sequence((entry, hilbert.adjoint(entry)), label="AUX_ORACLE_0")

    checked = []
    check = hilbert.assert_registers_clean
    monkeypatch.setattr(crt_reduction, "make_aux_oracle", blind)
    monkeypatch.setattr(hilbert, "assert_registers_clean",
                        lambda state, names, what: checked.append(what) or check(state, names, what))
    with caplog.at_level(logging.ERROR, logger="cycsim"):
        rep = run_experiment(ExperimentConfig(p=13, hidden_s=7, run_demo=False))
    assert "search fault: no trial probability above 0.5 (component 0)" in caplog.text
    first, second = rep.components
    assert first["recovered_s_k"] is None and first["oracle_calls"] == 0
    assert first["trial_probabilities"] == [] and first["max_probability"] == 0.0
    assert second["recovered_s_k"] == 3 and second["oracle_calls"] > 0
    assert rep.recovered_s is None and rep.verification["recovered_s"] is None
    assert rep.verification["success"] is False and rep.verification["verify_solution"] is False
    assert checked == ["component search"] * 2  # the registers came back clean both times
    assert cli_main(["--p", "13", "--hidden-s", "7", "--no-demo"]) == 1


def test_cli_timing_flag_adds_wall_time(tmp_path):
    out = tmp_path / "t.json"
    cli_main(["--p", "5", "--hidden-s", "1", "--timing", "--out", str(out),
              "--no-demo"])
    assert json.loads(out.read_text())["wall_time_s"] is not None
    out2 = tmp_path / "t2.json"
    cli_main(["--p", "5", "--hidden-s", "1", "--out", str(out2), "--no-demo"])
    assert json.loads(out2.read_text())["wall_time_s"] is None


def test_atomic_write_replaces(tmp_path):
    target = tmp_path / "x.json"
    target.write_text("old")
    driver._atomic_write(str(target), "new")
    assert target.read_text() == "new"
    assert not os.path.exists(str(target) + ".tmp")


def test_atomic_write_removes_its_temp_file_when_the_write_fails(tmp_path):
    target = tmp_path / "x.json"
    target.write_text("old")
    with pytest.raises(UnicodeEncodeError):
        driver._atomic_write(str(target), "new \ud800")  # a lone surrogate has no UTF-8
    assert [path.name for path in tmp_path.iterdir()] == ["x.json"]
    assert target.read_text() == "old"


def test_atomic_write_removes_its_temp_file_when_the_replace_fails(tmp_path):
    target = tmp_path / "dir"
    target.mkdir()
    with pytest.raises(OSError):
        driver._atomic_write(str(target), "new")
    assert [path.name for path in tmp_path.iterdir()] == ["dir"]


def test_trotter_section():
    rep = run_experiment(ExperimentConfig(p=5, hidden_s=1, trotter_m=8, run_demo=False))
    assert [row["n"] for row in rep.trotter] == [2, 3, 4]
    assert all(row["operator_error"] < 1e-12 for row in rep.trotter)


def test_warm_run_compiles_no_reduction_tables(monkeypatch):
    # the reduction and swap inside the aux oracle and the search's shifts and
    # transpositions are the instance's own, so a second hidden index reuses
    # every table the first run compiled (its trials are a subset of the first's)
    compiled = []
    table_for = Permutation.table_for

    def spy(self, dims):
        fresh = dims not in self.tables
        table = table_for(self, dims)
        if fresh and table is not None:
            compiled.append(self.label)
        return table

    monkeypatch.setattr(Permutation, "table_for", spy)
    run_experiment(ExperimentConfig(p=13, hidden_s=5, run_demo=False))
    compiled.clear()
    run_experiment(ExperimentConfig(p=13, hidden_s=8, run_demo=False))
    # only the per-run gates of the instance value b = 2**8 mod 13 = 9 are new:
    # its load, and the verification's relabeling by b
    assert compiled == ["X_0_9", "U_OR"]


def _tables_of_two_cold_runs(clear, monkeypatch, run_demo):
    """The tables two cold p=13 runs (hidden indices 1 and 7) compile, each
    run's as {(label, dims): table}: the demo's apart from the rest."""
    runs = {"search": [], "demo": []}
    section = ["search"]
    table_for = Permutation.table_for
    run_dlog_demo = dlog_pipeline.run_dlog_demo

    def spy(self, dims):
        fresh = dims not in self.tables
        table = table_for(self, dims)
        if fresh and table is not None:
            runs[section[0]][-1][self.label, dims] = table
        return table

    def demo(*args, **kwargs):
        section[0] = "demo"
        try:
            return run_dlog_demo(*args, **kwargs)
        finally:
            section[0] = "search"

    monkeypatch.setattr(Permutation, "table_for", spy)
    monkeypatch.setattr(dlog_pipeline, "run_dlog_demo", demo)
    for s in (1, 7):
        clear()
        runs["search"].append({})
        runs["demo"].append({})
        run_experiment(ExperimentConfig(p=13, hidden_s=s, run_demo=run_demo))
    return runs["search"], runs["demo"]


def _tables_that_differ(first, second):
    """The labels whose tables both runs compiled, unequal."""
    return {label for label, dims in first.keys() & second.keys()
            if not np.array_equal(first[label, dims], second[label, dims])}


def test_only_the_verification_relabeling_tables_depend_on_the_hidden_index(
        cleared_gate_caches, monkeypatch):
    # the hidden index lives only in the oracle, a phase gate: two cold runs
    # compile equal tables for every (label, dims) they share, except the
    # verification's relabeling by the recovered value.  The instance load
    # X_0_b and the trials past the first run's hit compile in one run only
    (first, second), _ = _tables_of_two_cold_runs(cleared_gate_caches, monkeypatch, False)
    shared = first.keys() & second.keys()
    assert {"HALT_1", "U_r", "SWAP", "LIFT_3_4"} <= {label for label, _ in shared}
    assert _tables_that_differ(first, second) == {"U_OR"}


def test_the_demo_compiles_no_table_that_depends_on_the_hidden_index(
        cleared_gate_caches, monkeypatch):
    # the demo's gates hold no hidden index either: both runs compile the
    # same (label, dims) pairs in the demo, each to the same table
    search, (first, second) = _tables_of_two_cold_runs(cleared_gate_caches, monkeypatch, True)
    assert first.keys() == second.keys()
    assert {"UF_2_13", "MUL3_12", "POW_3_12"} <= {label for label, _ in first}
    assert _tables_that_differ(first, second) == set()
    assert _tables_that_differ(*search) == {"U_OR"}


@pytest.mark.parametrize("p", [13, 17, 29, 43])  # p = 17: one component, no stripping
@pytest.mark.parametrize("epsilon, gamma", [(0.0, 0.0), (0.1, 0.3)], ids=["exact", "pulse"])
def test_every_trial_matches_the_seven_gate_trial(p, epsilon, gamma):
    # a trial is the half rotation, the oracle dressed through one chain per
    # (k, x), and the half rotation's adjoint: the same rows in the same
    # order, the same amplitude bits and the same leaf counts as the trial
    # applied as seven gates
    inst = driver._instance(p, find_primitive_root(p), epsilon, gamma)
    spec, layout, regs = inst.spec, inst.layout, inst.regs
    ospec = OracleSpec(5, spec)
    base = make_subspace_oracle(ospec, regs.w, tuple(
        x for x in layout.names if x not in (regs.w, regs.search)), math.pi)
    # the oracle-side reduction the driver builds, built here afresh
    aux_pulse = halting_program.PulseModel(epsilon, gamma + math.pi / 3) if epsilon else None
    start = hilbert.apply(SparseState.basis(layout),
                          gates.transposition(0, ospec.marked_value, regs.w))
    for k in range(spec.r):
        red = crt_reduction.reduction_gate(spec, regs, k, aux_pulse)
        ours = theirs = hilbert.apply(start, inst.reductions[k])
        for x in range(spec.largest_order):
            led, ref_led = GateLedger(), GateLedger()
            aux = crt_reduction.make_aux_oracle(base, k, inst.entries[k][x])
            prob, ours = mq_circuits.trial_circuit_prob(ours, inst.search, aux, led)
            theirs = seven_gate_trial(theirs, spec, regs.search, regs.comps[k], x, red, base,
                                      ref_led)
            assert ours.words.tobytes() == theirs.words.tobytes(), (k, x)
            assert ours.amps.tobytes() == theirs.amps.tobytes(), (k, x)
            assert led.counts_by_class() == ref_led.counts_by_class(), (k, x)
            top = np.arange(layout.dim(regs.search)) == layout.dim(regs.search) - 1
            assert prob == theirs.weight_where(regs.search, top)


def test_every_run_dresses_the_oracle_with_the_instance_chains(monkeypatch):
    # entries[k][x] is built once per instance, so its chain memo outlives
    # every run; runs hand make_aux_oracle the same objects, trial by trial
    calls = []
    build = crt_reduction.make_aux_oracle
    monkeypatch.setattr(crt_reduction, "make_aux_oracle",
                        lambda base, k, entry: calls.append((k, entry)) or build(base, k, entry))
    inst = driver._instance(29, find_primitive_root(29), 0.0, 0.0)
    for s in (3, 17, 3):
        calls.clear()
        assert run_experiment(ExperimentConfig(p=29, hidden_s=s, run_demo=False)
                              ).verification["success"]
        assert driver._instance(29, find_primitive_root(29), 0.0, 0.0) is inst
        for k in range(inst.spec.r):
            used = [entry for j, entry in calls if j == k]
            assert 0 < len(used) <= len(inst.entries[k])
            assert all(a is b for a, b in zip(used, inst.entries[k]))
    # one swap per component, shared by that component's chains
    for k, chains in enumerate(inst.entries):
        swaps = {id(chain.gates[2]) for chain in chains}
        assert len(swaps) == 1 and chains[0].gates[2].regs == (inst.regs.search, inst.regs.comps[k])


def test_a_second_warm_sweep_walks_no_chain_row(monkeypatch):
    # every chain a sweep meets is kept by the instance, so once one sweep
    # has walked its rows, the next one finds each in the memos
    config = ExperimentConfig(p=43, run_demo=False)
    first = run_sweep(config)
    walked = []
    walk = hilbert._walk
    monkeypatch.setattr(hilbert, "_walk",
                        lambda steps, rows: walked.append(len(rows)) or walk(steps, rows))
    second = run_sweep(config)
    assert walked == []
    assert [r.to_json() for r in second] == [r.to_json() for r in first]


def test_warm_run_builds_no_reduction_adjoint(monkeypatch):
    # the inverse reductions are kept by the instance's reductions, so their
    # compiled tables and chain memos outlive a run; a warm run's adjoint of
    # a reduction is a lookup and builds no Sequence
    built = []
    init = Sequence.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.label)

    run_experiment(ExperimentConfig(p=13, hidden_s=5, run_demo=False))
    monkeypatch.setattr(Sequence, "__init__", spy)
    run_experiment(ExperimentConfig(p=13, hidden_s=8, run_demo=False))
    assert {"AUX_ORACLE_0", "AUX_ORACLE_1"} <= set(built)  # the spy sees a run's builds
    assert not [label for label in built if label.startswith("REDUCE_")]


@pytest.mark.parametrize("config,local,tables,nbytes", [
    (ExperimentConfig(p=29, hidden_s=0), 6, {"int8": 55, "int16": 3}, 2_296_656),
    (ExperimentConfig(p=29, hidden_s=0, epsilon=0.1, gamma=0.3, run_demo=False), 10,
     {"int8": 89, "int16": 2}, 103_648),
    (ExperimentConfig(p=43, hidden_s=0, run_demo=False), 2, {"int8": 116, "int16": 3}, 408_304),
], ids=["demo-p29", "pulse-p29", "search-p43"])
def test_a_cold_run_builds_each_adjoint_once(config, local, tables, nbytes, cleared_gate_caches,
                                             monkeypatch):
    # a gate keeps its adjoint, so a reflection's prep+ and a leaky
    # reduction's inverse build one LocalUnitary per distinct gate, while
    # the adjoints still read their gates' compiled tables; the search and
    # the verification share one half rotation, so a search-only run builds
    # UNY_n and its adjoint and no other dense matrix.  A table and its
    # inverse hold moves in the narrowest integer type that holds each move
    # and its negation: one byte per entry each, apart from the register
    # swaps, whose moves reach 31 * 31 = 961 at p = 29 (63 * 63 = 3969 at p = 43)
    counts, rotations = Counter(), []
    post_init, table_for = LocalUnitary.__post_init__, Permutation.table_for

    def built(self):
        counts["local"] += 1
        if self.label.startswith("UNY_"):
            rotations.append((self.label, self.reg))
        post_init(self)

    def compiled(self, dims):
        fresh = dims not in self.tables
        table = table_for(self, dims)
        if fresh and table is not None:
            inverse = self.inv_tables[dims]
            assert table.dtype == inverse.dtype, self.label
            assert (table.dtype == np.int16) == self.label.startswith("SWAP"), self.label
            assert table.nbytes + inverse.nbytes == 2 * table.itemsize * table.size, self.label
            counts[str(table.dtype)] += 1
            counts["bytes"] += table.nbytes + inverse.nbytes
        return table

    monkeypatch.setattr(LocalUnitary, "__post_init__", built)
    monkeypatch.setattr(Permutation, "table_for", compiled)
    cleared_gate_caches()
    run_experiment(config)
    assert counts["local"] == local
    assert {t: counts[t] for t in ("int8", "int16", "int32") if counts[t]} == tables
    assert counts["bytes"] == nbytes
    half = f"UNY_{config.p.bit_length()}"
    assert rotations == [(half, "SEARCH"), (half + "+", "SEARCH")]
    counts.clear()
    run_experiment(dataclasses.replace(config, hidden_s=1))
    assert counts["local"] == 0


def test_python_dash_m_runs_the_cli():
    src = str(Path(cycsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-m", "cycsim", "--p", "13", "--hidden-s", "7",
                           "--no-demo"], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "recovered_s=7 success=True" in done.stdout


def test_a_run_never_builds_the_entries_dict(monkeypatch):
    # gates and readers work on the key/amplitude arrays; the dict view is for
    # callers that ask for it
    def refuse(state):
        raise AssertionError("SparseState.entries was built")

    monkeypatch.setattr(SparseState, "entries", property(refuse))
    rep = run_experiment(ExperimentConfig(p=13, hidden_s=7, epsilon=0.1))
    assert rep.verification["success"] is True and rep.dlog_demo is not None


def test_gamma_without_epsilon_shares_the_instance(cleared_gate_caches, monkeypatch):
    # without epsilon there is no pulse for gamma to phase: a run that only
    # changes gamma reuses the instance and its tables, and reports the same
    compiled = []
    table_for = Permutation.table_for

    def spy(self, dims):
        if dims not in self.tables:
            compiled.append(self.label)
        return table_for(self, dims)

    monkeypatch.setattr(Permutation, "table_for", spy)
    first = run_experiment(ExperimentConfig(p=43, hidden_s=1, run_demo=False)).as_dict()
    misses = driver._instance.cache_info().misses
    compiled.clear()
    second = run_experiment(ExperimentConfig(p=43, hidden_s=1, gamma=0.3,
                                             run_demo=False)).as_dict()
    assert driver._instance.cache_info().misses == misses
    # only the per-run gates of b = 3**1 mod 43 = 3: its load and the verification's relabeling
    assert compiled == ["X_0_3", "U_OR"]
    assert second["config"].pop("gamma") == 0.3 and first["config"].pop("gamma") == 0.0
    assert second == first


def test_the_smallest_root_named_shares_the_instance(cleared_gate_caches):
    # g = None resolves to the smallest primitive root, 2 for p = 13: naming
    # it reuses the instance and its tables, and reports the same
    first = run_experiment(ExperimentConfig(p=13, hidden_s=5, run_demo=False)).as_dict()
    second = run_experiment(ExperimentConfig(p=13, g=2, hidden_s=5, run_demo=False)).as_dict()
    info = driver._instance.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert second["config"].pop("g") == 2 and first["config"].pop("g") is None
    assert second == first
    # another root is another group labelling, so another instance
    run_experiment(ExperimentConfig(p=13, g=6, hidden_s=5, run_demo=False))
    assert driver._instance.cache_info().misses == 2


def test_an_evicted_configuration_frees_its_gates(cleared_gate_caches):
    # the memoized builders keep the last GATE_SETS configurations, so a
    # process that sweeps many primes holds a bounded set of gates and tables
    # p = 7 goes first: 6 = 2 * 3 gives it two components, so its reductions
    # hold Q_p gates
    primes = [7] + [p for p in range(3, 100) if is_prime(p) and p != 7][:hilbert.GATE_SETS]
    run_experiment(ExperimentConfig(p=primes[0], hidden_s=1, run_demo=False))
    first = driver._instance(primes[0], find_primitive_root(primes[0]), 0.0, 0.0)  # the run's own instance
    assert driver._instance.cache_info().misses == 1
    reduce_0 = first.reductions[0]
    strip = next(g for g in reduce_0.gates if g.label == "STRIP_0")
    refs = [weakref.ref(obj) for obj in (first, reduce_0, strip.gates[0])]
    assert [ref().label for ref in refs[1:]] == ["REDUCE_0", "Q_p"]
    del first, reduce_0, strip
    for p in primes[1:]:
        assert run_experiment(ExperimentConfig(p=p, hidden_s=1, run_demo=False)
                              ).verification["success"]
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
    assert driver._instance.cache_info().currsize == hilbert.GATE_SETS


def test_an_instance_builds_one_program_gate_per_stripped_pair(cleared_gate_caches,
                                                                monkeypatch):
    # each (keep, j) pair runs the program on its own registers, so no two
    # Q_p gates of an instance could be shared; the instance keeps them
    calls = []
    build = halting_program.qp_gate

    def spy(config, regs, pulse):
        calls.append(regs)
        return build(config, regs, pulse)

    monkeypatch.setattr(halting_program, "qp_gate", spy)
    r = driver._instance(43, find_primitive_root(43), 0.0, 0.0).spec.r
    assert r == 3  # 42 = 2 * 3 * 7
    assert len(calls) == r * (r - 1) == len(set(calls))
    driver._instance(43, find_primitive_root(43), 0.0, 0.0)
    assert len(calls) == r * (r - 1)


@pytest.mark.parametrize("p, digest", [
    (127, "111bbd8453f558148aa27cce278c4df6ac020c604a993f8c927376fe19044486"),
    pytest.param(67, "246f5d02a8a6f8d534cc54ce4fbfa9d3b9e2f852106e1517109d18d3c04e4619",
                 marks=pytest.mark.slow),
])
def test_two_word_search_layout_reports_match_recorded_digests(p, digest):
    # the benchmark's digests cover one-word layouts only; these search
    # layouts pack into two words per row
    layout = crt_reduction.make_search_layout(make_group_spec(p))[0]
    assert layout.width == 2
    rep = run_experiment(ExperimentConfig(p=p, hidden_s=5, run_demo=False))
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("config, digest", [
    ({"p": 13, "epsilon": 0.1, "gamma": 0.3, "run_demo": False},
     "6372f2cd79a8ce14f17cc14e87c287c2e9a2f27fa87750c3892508858cb2b20b"),
    ({"p": 29, "epsilon": 0.1, "gamma": 0.3, "run_demo": False},
     "ddb30d983766c9fb68f1fa78648172621dbeb575e7722310327a64b535ce9232"),
    ({"p": 13, "mode": "grover"},
     "9aa30ec7854d2167ce071b5a4450d851011721d750ed890bfb60f8c4eddafb22"),
    ({"p": 13, "mode": "grover", "grover_m": 0},
     "b17e0f5e9547f7349c521c00deac0738312b087e6ee5bd329793391b18921a95"),
])
def test_pulse_and_grover_reports_match_recorded_digests(config, digest):
    # the benchmark's digests cover exact-mode runs without a pulse; these
    # reach the leaky halting program and the grover-mode kit, an empty
    # amplification schedule included
    rep = run_experiment(ExperimentConfig(hidden_s=5, **config))
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == digest


@pytest.mark.slow
@pytest.mark.parametrize("p, digest", [
    (61, "bd6aade1cf187d0ee517cd53b3c1837912636c419877663e49a345dd77152500"),
    (67, "5a0a5ab993aef2287e51fcbe805c506e3033ec11bd896fbb4de54b893d226111"),
])
def test_demo_reports_above_the_benchmark_primes_match_recorded_digests(p, digest):
    # the benchmark's digests cover demos up to p = 37; from p = 37 on the
    # log gate's work_mod_exp lies above the check limit and is evaluated
    # row by row, and at p = 67 it spans 2**28 points
    rep = run_experiment(ExperimentConfig(p=p, hidden_s=5))
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == digest


DEMO_PRIMES = [3, 5, 7, 11] + [pytest.param(p, marks=pytest.mark.slow)
                               for p in (13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)]


@pytest.mark.parametrize("p", DEMO_PRIMES)
def test_demo_reports_do_not_depend_on_the_pair_step(p, monkeypatch):
    # one hidden index per class of gcd(s, p - 1), which sets the demo's
    # support; each report byte for byte the same with adjacent local
    # unitaries applied as one step and one at a time
    m = p - 1
    indices = sorted({min(s for s in range(m) if math.gcd(s, m) == math.gcd(t, m))
                      for t in range(m)})
    fused = []
    pair = hilbert._apply_pair

    def counted(*args):
        step = pair(*args)
        fused.append(step is not None)
        return step

    monkeypatch.setattr(hilbert, "_apply_pair", counted)
    together = [run_experiment(ExperimentConfig(p=p, hidden_s=s)) for s in indices]
    assert any(fused)
    monkeypatch.setattr(hilbert, "_apply_pair", lambda *args: None)
    for s, report in zip(indices, together):
        assert report.verification["success"] is True, s
        assert report.to_json() == run_experiment(ExperimentConfig(p=p, hidden_s=s)).to_json(), s

import hashlib
import json
import logging
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

# RuntimeWarnings are errors in the CLI's process too, as pyproject.toml makes them in-process.
BASE = [sys.executable, "-W", "error::RuntimeWarning", "-m", "noisyqst"]


def run_cli(*args, check=True):
    proc = subprocess.run(
        BASE + [str(a) for a in args], capture_output=True, text=True
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"CLI failed ({proc.returncode}): {proc.stderr}")
    return proc


def test_quality_builtin_mub_zero_noise():
    proc = run_cli(
        "quality", "--mub", "heisenberg", "--channel", "depolarizing", "--zeta", "0"
    )
    doc = json.loads(proc.stdout)
    assert doc["q_noisy"] == pytest.approx(0.03125, abs=1e-10)
    assert doc["q_geometric"] == pytest.approx(0.03125, abs=1e-10)
    assert doc["entangling_times"] == [0.0, 0.0, 0.0, 1.0, 1.0]


def test_quality_builtin_mub_with_noise():
    proc = run_cli("quality", "--mub", "heisenberg", "--zeta", "0.05")
    doc = json.loads(proc.stdout)
    expected = (1 / 32) * np.exp(-0.1 * np.pi * 2.39)
    assert doc["q_noisy"] == pytest.approx(expected, rel=1e-10)


def test_quality_quorum_file_and_malformed_file(tmp_path):
    good = tmp_path / "quorum.json"
    proc = run_cli("quality", "--mub", "ising", "--interaction", "ising", "--zeta", "0")
    from noisyqst.gates import standard_mub_params

    good.write_text(standard_mub_params("ising").to_json())
    proc = run_cli("quality", "--quorum", good, "--interaction", "ising", "--zeta", "0")
    assert json.loads(proc.stdout)["q_noisy"] == pytest.approx(0.03125, abs=1e-10)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("quality", "--quorum", bad, "--zeta", "0", check=False)
    assert proc.returncode == 2
    assert proc.stderr.strip() != ""

    # json writes NaN and Infinity, which no quorum may hold
    for value in (float("nan"), float("inf")):
        doc = standard_mub_params("heisenberg").to_dict()
        doc["measurements"][1]["post2"][0] = value
        bad.write_text(json.dumps(doc))
        proc = run_cli("quality", "--quorum", bad, "--zeta", "0", check=False)
        assert proc.returncode == 2
        assert "finite" in proc.stderr
        assert proc.stdout == ""


def test_annealing_strategy_is_usage_error():
    proc = run_cli("optimize", "--zeta", "0.02", "--strategy", "annealing", check=False)
    assert proc.returncode == 2
    assert "invalid choice: 'annealing'" in proc.stderr


def test_quality_missing_strength_is_usage_error():
    proc = run_cli("quality", "--mub", "heisenberg", check=False)
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ["optimize", "--zeta", "-1"],
    ["quality", "--zeta", "nan"],
    ["gate-fidelity", "--zeta", "-0.1"],
    ["single-qubit", "-r", "-1"],
    ["single-qubit", "-r", "nan"],
    ["sweep", "--grid", "-0.1"],
    ["sweep", "--grid", "0,-0.1", "--schemes", "pauli9"],
    ["sweep", "--grid", ""],
    ["quality", "--channel", "ou", "-r", "inf"],
    ["single-qubit", "-r", "inf"],
    ["gate-fidelity", "--channel", "ou", "-r", "inf"],
    ["gate-fidelity", "--zeta", "inf"],
    ["sweep", "--grid", "inf"],
    ["sweep", "--grid", "0", "--schemes", ","],
    ["coeff", "--samples", "10"],
], ids=" ".join)
def test_invalid_noise_strength_is_usage_error(argv, capsys):
    from noisyqst.cli import main

    assert main(argv + ["--threads", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")


def test_quality_mub_output_is_pinned(capsys):
    from noisyqst.cli import main

    # SHA-256 of this command's stdout since q, Q and Q_N come from the
    # effects' traceless coordinates
    assert main(["quality", "--mub", "heisenberg", "--zeta", "0.05", "--threads", "1"]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "9d797c9de42be8d6a9c9d19b44faa7fba9b63bddec0cf327653dd2ea627798cf")


def test_output_does_not_depend_on_the_core_count(monkeypatch, capsys):
    from noisyqst.cli import main

    outputs = []
    for cores in (1, 64):
        monkeypatch.setattr("os.cpu_count", lambda: cores)
        assert main(["quality", "--mub", "heisenberg", "--zeta", "0.05"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_gate_fidelity_values():
    cases = [
        (["--channel", "depolarizing", "--interaction", "ising", "--zeta", "0.034"], 0.98, 0.002),
        (["--channel", "depolarizing", "--interaction", "heisenberg", "--zeta", "0.08"], 0.83, 0.005),
        (["--channel", "ou", "--interaction", "heisenberg", "-r", "0.2"], 0.85, 0.005),
        (["--channel", "ou", "--interaction", "ising", "-r", "0.2"], 0.89, 0.005),
        (["--channel", "ou", "--interaction", "heisenberg", "-r", "0"], 1.0, 1e-12),
    ]
    for flags, expected, tol in cases:
        proc = run_cli("gate-fidelity", *flags)
        assert float(proc.stdout) == pytest.approx(expected, abs=tol)


def test_gate_fidelity_matches_inline_closed_forms_bytewise(capsys):
    from noisyqst.cli import main
    from oracles import (
        kraus_average_gate_fidelity,
        kraus_depolarizing,
        kraus_ou_heisenberg,
        kraus_ou_ising,
    )

    # The CNOT entangler: time 1 (Heisenberg) or 1/4 (Ising); OU gammas of
    # pulses (1/2, 0, 1/2) or of the single coupling beta_y = pi/4.
    for s in (0.0, 0.034, 0.2, 1.3):
        expected = {
            ("depolarizing", "heisenberg"): kraus_depolarizing(np.exp(-s * np.pi * 1.0)),
            ("depolarizing", "ising"): kraus_depolarizing(np.exp(-s * np.pi * 0.25)),
            ("ou", "heisenberg"): kraus_ou_heisenberg(np.exp(-s * np.pi * np.array([0.5, 0, 0.5]))),
            ("ou", "ising"): kraus_ou_ising(np.exp(-2.0 * s * np.array([0, np.pi / 4, 0]))),
        }
        for (channel, interaction), ops in expected.items():
            code = main(["gate-fidelity", "--channel", channel, "--interaction", interaction,
                         "--zeta", str(s)])
            assert code == 0
            assert capsys.readouterr().out == f"{kraus_average_gate_fidelity(ops):.12g}\n"


def test_single_qubit_command():
    proc = run_cli("single-qubit", "-r", "0")
    doc = json.loads(proc.stdout)
    assert doc["optimal_theta"] == pytest.approx(np.arctan(np.sqrt(2)), abs=1e-12)
    assert doc["q_noisy_at_optimum"] == pytest.approx(1.0, abs=1e-10)


def test_coeff_command_deterministic():
    out1 = run_cli("coeff", "--samples", "100000", "--seed", "3").stdout
    out2 = run_cli("coeff", "--samples", "100000", "--seed", "3").stdout
    assert out1 == out2
    doc = json.loads(out1)
    assert 0.9 < doc["coefficient"] < 1.5


def test_sweep_csv_shape_and_determinism(tmp_path):
    out = tmp_path / "sweep.csv"
    args = [
        "sweep", "--grid", "0,0.05,0.1", "--schemes", "mub,pauli9",
        "--states", "4", "--shots", "2304", "--seed", "5",
        "--threads", "1", "--out", out,
    ]
    run_cli(*args)
    first = out.read_bytes()
    lines = first.decode().strip().split("\n")
    assert lines[0].startswith("# config:")
    assert lines[1] == "scheme,zeta_or_r,n_states,total_shots,mean_infidelity,sem,seed"
    assert len(lines) == 2 + 3 * 2  # grid points x schemes
    run_cli(*args)
    assert out.read_bytes() == first  # atomic overwrite, byte-identical


def test_sweep_pauli_rows_do_not_depend_on_noise(tmp_path):
    out = tmp_path / "sweep.csv"
    run_cli(
        "sweep", "--grid", "0,0.1,0.2", "--schemes", "pauli9",
        "--states", "4", "--shots", "2304", "--seed", "8", "--threads", "1", "--out", out,
    )
    rows = [
        line.split(",") for line in out.read_text().strip().split("\n")[2:]
    ]
    infids = {row[4] for row in rows}
    assert len(infids) == 1


def test_optimize_command_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "optimize", "--channel", "depolarizing", "--interaction", "ising",
        "--zeta", "0.02", "--strategy", "mub-seeded", "--seed", "4",
    ]
    run_cli(*args, "--out", out1)
    run_cli(*args, "--out", out2)
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads((tmp_path / "a.csv.json").read_text())
    # the refined entangler couplings sit at the analytic optimum
    from oracles import analytic_beta_max

    target = analytic_beta_max(0.02)
    for j in (3, 4):
        beta_y = doc["results"][0]["params"]["measurements"][j]["entangler"][1]
        assert beta_y == pytest.approx(target, abs=1e-3)
    header, row = out1.read_text().strip().split("\n")
    assert header.startswith("strategy,seed,start_label,q_geometric,q_noisy")
    assert row.startswith("mub-seeded,4,mub,")


def test_mub_seeded_ou_ising_keeps_short_couplings(tmp_path):
    # Unbounded Powell drifted here to couplings of up to 1,446 (total entangling
    # time 746.1) that cost no Q_N: the OU dephasing of a product measurement
    # touches only components its readout does not see.
    from noisyqst.cli import main

    out = tmp_path / "ou.csv"
    assert main(["optimize", "--strategy", "mub-seeded", "--channel", "ou", "--interaction",
                 "ising", "-r", "0.05", "--seed", "2", "--threads", "1", "--out", str(out)]) == 0
    best = json.loads((tmp_path / "ou.csv.json").read_text())["results"][0]
    assert best["entangling_time_total"] < 1.0
    # no lower than the Q_N Powell reached with the long couplings
    assert best["q_noisy"] >= 0.0243884802518 * (1 - 1e-9)


@pytest.mark.parametrize("strategy, extra, labels", [
    ("mub-seeded", [], ["mub"]),
    ("multistart", ["--starts", "2", "--threshold-pairs", "60"], ["multistart-0", "multistart-1"]),
], ids=["mub-seeded", "multistart"])
def test_unconverged_refinement_is_logged_not_written(tmp_path, caplog, strategy, extra, labels):
    # OU noise with the Heisenberg entangler needs about 70 L-BFGS iterations
    # from the MUB seed, and more from a random start
    from noisyqst.cli import main

    argv = ["optimize", "--strategy", strategy, *extra, "--channel", "ou", "--interaction",
            "heisenberg", "-r", "0.05", "--max-iters", "1", "--threads", "1", "--out"]
    with caplog.at_level(logging.WARNING, logger="noisyqst.optimize"):
        assert main(argv + [str(tmp_path / "warned.csv")]) == 0
    for label in labels:
        assert f"start {label} did not converge" in caplog.text
    caplog.clear()
    logging.disable(logging.WARNING)
    try:
        assert main(argv + [str(tmp_path / "quiet.csv")]) == 0
    finally:
        logging.disable(logging.NOTSET)
    assert not caplog.records
    for suffix in (".csv", ".csv.json"):
        assert (tmp_path / f"warned{suffix}").read_bytes() == (tmp_path / f"quiet{suffix}").read_bytes()


def test_sweep_zero_noise_ordering(tmp_path):
    out = tmp_path / "zero.csv"
    run_cli(
        "sweep", "--grid", "0", "--schemes", "mub,pauli9", "--states", "200",
        "--shots", "23040", "--seed", "17", "--threads", "1", "--out", out,
    )
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[2:]]
    infid = {row[0]: float(row[4]) for row in rows}
    assert infid["mub"] < infid["pauli9"]


def test_optimize_multistart_completes_and_sorts(tmp_path):
    out = tmp_path / "multi.csv"
    run_cli(
        "optimize", "--zeta", "0.02", "--strategy", "multistart", "--starts", "3",
        "--max-iters", "2", "--threshold-pairs", "50", "--seed", "6", "--out", out,
    )
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 3
    q_noisy = [float(r.split(",")[4]) for r in rows]
    assert q_noisy == sorted(q_noisy, reverse=True)


def test_config_file_equivalent_to_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"interaction": "ising", "strength": 0.05}))
    via_cfg = run_cli("quality", "--mub", "ising", "--config", cfg).stdout
    via_flags = run_cli(
        "quality", "--mub", "ising", "--interaction", "ising", "--zeta", "0.05"
    ).stdout
    assert json.loads(via_cfg)["q_noisy"] == json.loads(via_flags)["q_noisy"]
    assert "config" in json.loads(via_cfg)


def test_config_equals_form_matches_separate_form(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"interaction": "ising", "strength": 0.05, "threads": 1}))
    separate = run_cli("quality", "--mub", "ising", "--config", cfg).stdout
    joined = run_cli("quality", "--mub", "ising", f"--config={cfg}").stdout
    assert joined == separate
    assert json.loads(joined)["noise"]["strength"] == 0.05


def test_sweep_reconstructs_pauli9_once(monkeypatch, tmp_path):
    import noisyqst.tomography as tomography
    from noisyqst.cli import main
    from noisyqst.noise import NoiseModel

    calls = []
    real = tomography.ml_reconstruct

    def spy(counts, effects, *args, **kwargs):
        calls.append(len(effects))
        return real(counts, effects, *args, **kwargs)

    monkeypatch.setattr(tomography, "ml_reconstruct", spy)
    grid = (0.0, 0.05, 0.1)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--grid", ",".join(map(str, grid)), "--schemes", "pauli9,mub",
                 "--states", "3", "--shots", "2304", "--seed", "5", "--threads", "1",
                 "--out", str(out)]) == 0
    assert sorted(calls) == [5, 5, 5, 9]
    # pauli9 keeps the sampling stream of its position in --schemes
    rows = []
    for strength in grid:
        noise = NoiseModel("depolarizing", "heisenberg", strength)
        reports = tomography.run_experiment(
            [tomography.pauli9_scheme(), tomography.mub_scheme(noise)], 3, 2304, 5)
        rows.extend((rep, strength) for rep in reports)
    assert out.read_text().split("\n", 1)[1] == tomography.reports_to_csv(rows)


def test_importing_the_cli_leaves_scipy_unloaded():
    # and the process pool's multiprocessing, which only optimize's pool needs
    prefixes = ("scipy", "multiprocessing", "concurrent.futures.process")
    code = ("import sys, noisyqst.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, loaded", [
    (None, []),
    (["sweep", "--grid", "0", "--schemes", "mub,pauli9", "--states", "2", "--shots", "2304"],
     ["noisyqst.tomography"]),
    (["optimize", "--zeta", "0.02", "--max-iters", "2"],
     ["noisyqst.optimize", "noisyqst.quality"]),
], ids=["import", "sweep", "optimize"])
def test_a_command_loads_only_the_modules_it_runs(argv, loaded, tmp_path):
    out = ["--out", str(tmp_path / "out")]
    run = "" if argv is None else f"assert noisyqst.cli.main({argv + out!r}) == 0; "
    code = (f"import sys, noisyqst.cli; {run}"
            "print(sorted(m for m in sys.modules if m in "
            "('noisyqst.optimize', 'noisyqst.quality', 'noisyqst.tomography')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == f"{loaded!r}\n"


def test_the_strategy_names_are_one_tuple():
    import noisyqst.gates as gates
    import noisyqst.optimize as optimize
    from noisyqst.cli import build_parser

    actions = build_parser().subcommand_parsers["optimize"]._actions
    (choices,) = [a.choices for a in actions if a.dest == "strategy"]
    assert choices is gates.STRATEGIES and optimize.STRATEGIES is gates.STRATEGIES


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_the_cli_runs_one_blas_thread_unless_the_caller_sets_one():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    code = ("import os, sys, noisyqst; assert 'numpy' not in sys.modules; import noisyqst.cli; "
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")

    def run(extra):
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**env, **extra}).stdout.split()

    assert run({}) == ["1", "1"]
    assert run({"OPENBLAS_NUM_THREADS": "2"})[1] == "2"


DEGENERATE_RUN = ["optimize", "--strategy", "multistart", "--starts", "4", "--max-iters", "5",
                  "--threshold-pairs", "100", "--seed", "1"]


def test_a_degenerate_start_fails_alone(tmp_path):
    # at zeta 2 two of the four starts fully depolarize an effect: multistart-0
    # at its first point, multistart-3 during its refinement
    out = tmp_path / "out.csv"
    proc = run_cli(*DEGENERATE_RUN, "--zeta", "2", "--out", out)
    assert [row.split(",")[2] for row in out.read_text().splitlines()[1:]] == [
        "multistart-1", "multistart-2"]
    assert [line.split(":")[0] for line in proc.stderr.splitlines() if "failed" in line] == [
        "start multistart-0 failed", "start multistart-3 failed"]
    # a run whose every start fails still exits 1
    proc = run_cli(*DEGENERATE_RUN, "--zeta", "3", check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("start multistart-0 failed: effect 0 of measurement 0 is fully "
                                  "depolarized")
    assert proc.stderr.splitlines()[-1].startswith("error: all optimization starts failed")


def test_a_degenerate_start_is_reported_by_its_effect_not_its_coordinates():
    proc = run_cli(*DEGENERATE_RUN, "--zeta", "3", check=False)
    lines = proc.stderr.splitlines()
    assert len(lines) == 5 and all("fully depolarized (q=" in line for line in lines)
    assert lines[-1].count("fully depolarized") == 4
    # the warnings name the effect; none lists the point
    assert not any("x=" in line or "[" in line for line in lines)
    assert max(map(len, lines[:4])) < 100


@pytest.mark.parametrize("argv", [
    ["optimize", "--strategy", "mub-seeded", "--zeta", "0.02"],
    ["sweep", "--grid", "0.05", "--schemes", "optimized", "--states", "2", "--shots", "2304"],
], ids=["optimize", "sweep-optimized"])
def test_optimizing_leaves_scipy_unloaded(argv, tmp_path):
    argv = argv + ["--out", str(tmp_path / "out.csv")]
    code = ("import sys, noisyqst.cli; "
            f"assert noisyqst.cli.main({argv!r}) == 0; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_sweep_refines_its_optimized_quorum_to_convergence(tmp_path, caplog):
    # at r = 0.5 the OU/Heisenberg refinement from the MUB seed needs about 1,100
    # iterations, past optimize's default cap of 200
    from noisyqst.cli import main

    with caplog.at_level(logging.WARNING, logger="noisyqst.optimize"):
        assert main(["sweep", "--channel", "ou", "--interaction", "heisenberg", "--grid", "0.5",
                     "--schemes", "optimized", "--states", "1", "--shots", "2304",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
    assert "did not converge" not in caplog.text


@pytest.mark.parametrize("schemes, least", [
    ("mub", 5), ("optimized", 5), ("pauli9", 9), ("mub,optimized,pauli9", 9)])
def test_sweep_rejects_fewer_shots_than_measurements_before_any_work(schemes, least, monkeypatch,
                                                                     capsys, tmp_path):
    import noisyqst.cli as cli

    def fail(*args, **kwargs):
        raise AssertionError("sweep started work")

    monkeypatch.setattr("noisyqst.optimize.optimize_quorum", fail)
    monkeypatch.setattr("noisyqst.tomography.run_experiment", fail)
    argv = ["sweep", "--grid", "0,0.05", "--schemes", schemes, "--states", "2", "--shots"]
    assert cli.main(argv + [str(least - 1)]) == 2
    assert capsys.readouterr().err.startswith(f"error: --shots {least - 1} is below the {least}")
    if least == 9:
        monkeypatch.undo()
        assert cli.main(argv + [str(least), "--out", str(tmp_path / "sweep.csv")]) == 0


@pytest.mark.parametrize("flag", ["--states", "--shots"])
def test_sweep_rejects_nonpositive_states_and_shots(flag):
    for value in ("0", "-3"):
        proc = run_cli("sweep", "--grid", "0", flag, value, check=False)
        assert proc.returncode == 2
        assert "--states and --shots must be >= 1" in proc.stderr


@pytest.mark.parametrize("flag", ["--starts", "--threshold-pairs", "--max-iters"])
def test_optimize_rejects_nonpositive_starts_and_threshold_pairs(flag, capsys):
    from noisyqst.cli import main

    for strategy in ("mub-seeded", "multistart"):
        for value in ("0", "-5"):
            code = main(["optimize", "--zeta", "0.02", "--strategy", strategy, flag, value])
            assert code == 2
            assert "--starts and --threshold-pairs must be >= 1" in capsys.readouterr().err


def test_echoed_config_reproduces_the_run(tmp_path):
    """The config echoed into an output, fed back through --config, gives the same bytes."""
    optimize = ["optimize", "--zeta", "0.03", "--channel", "ou", "--interaction", "ising",
                "--strategy", "multistart", "--starts", "2", "--max-iters", "1",
                "--threshold-pairs", "60", "--seed", "9", "--threads", "1"]
    run_cli(*optimize, "--out", tmp_path / "flags.csv")
    echoed = json.loads((tmp_path / "flags.csv.json").read_text())["config"]
    assert echoed["max_iters"] == 1 and echoed["threshold_pairs"] == 60
    (tmp_path / "optimize.json").write_text(json.dumps(echoed))
    run_cli("optimize", "--config", tmp_path / "optimize.json", "--out", tmp_path / "cfg.csv")
    for suffix in (".csv", ".csv.json"):
        assert ((tmp_path / f"cfg{suffix}").read_bytes()
                == (tmp_path / f"flags{suffix}").read_bytes())

    coeff = run_cli("coeff", "--dim", "2", "--samples", "100000", "--seed", "3").stdout
    echoed = json.loads(coeff)["config"]
    assert echoed["dim"] == 2
    (tmp_path / "coeff.json").write_text(json.dumps(echoed))
    assert run_cli("coeff", "--config", tmp_path / "coeff.json").stdout == coeff

    # mub-seeded optimize, and a sweep, whose --grid is required, from the config alone
    run_cli("optimize", "--zeta", "0.05", "--channel", "ou", "--seed", "2",
            "--out", tmp_path / "mub.csv")
    echoed = json.loads((tmp_path / "mub.csv.json").read_text())["config"]
    (tmp_path / "mub.json").write_text(json.dumps(echoed))
    run_cli("optimize", "--config", tmp_path / "mub.json", "--out", tmp_path / "mub-cfg.csv")
    for suffix in (".csv", ".csv.json"):
        assert ((tmp_path / f"mub-cfg{suffix}").read_bytes()
                == (tmp_path / f"mub{suffix}").read_bytes())
    sweep = run_cli("sweep", "--grid", "0,0.15", "--schemes", "mub,pauli9", "--states", "3",
                    "--shots", "2304", "--seed", "2").stdout
    echoed = json.loads(sweep.split("\n", 1)[0].removeprefix("# config: "))
    assert echoed["grid"] == "0,0.15"
    (tmp_path / "sweep.json").write_text(json.dumps(echoed))
    assert run_cli("sweep", "--config", tmp_path / "sweep.json").stdout == sweep


@pytest.mark.parametrize("command, key, value", [
    (["optimize", "--zeta", "0.05"], "strategy", "annealing"),
    (["sweep", "--grid", "0"], "states", 2.5),
    (["sweep", "--grid", "0"], "schemes", ["mub"]),
    (["quality", "--zeta", "0.05"], "mub", "bogus"),
], ids=["strategy", "states", "schemes", "mub"])
def test_bad_config_value_is_usage_error_naming_its_key(command, key, value, tmp_path, capsys):
    # a config value passes the checks its flag would, not a raw Python error
    from noisyqst.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(command + ["--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and key in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["--zeta", "0.02", "--strategy", "multistart", "--max-iters", "1", "--threshold-pairs", "50",
     "--seed", "4"],
    ["--channel", "ou", "--interaction", "ising", "-r", "0.05", "--strategy", "multistart",
     "--max-iters", "2", "--threshold-pairs", "200"],
], ids=["multistart", "multistart-ou"])
def test_optimize_output_does_not_depend_on_threads(tmp_path, args):
    # stderr too: every start's "did not converge" warning, in start order
    results = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}.csv"
        proc = run_cli("optimize", *args, "--starts", "2", "--threads", threads, "--out", out)
        doc = json.loads((tmp_path / f"threads{threads}.csv.json").read_text())
        assert doc.pop("config")["threads"] == threads
        results.append((out.read_bytes(), json.dumps(doc, sort_keys=True), proc.stderr))
    assert results[0][2].count("did not converge") == 2
    assert results[0] == results[1]


@pytest.mark.parametrize("command", [
    ["quality", "--mub", "heisenberg", "--zeta", "0"],
    ["optimize", "--zeta", "0.02"],
    ["sweep", "--grid", "0", "--states", "1", "--shots", "2304"],
    ["gate-fidelity", "--zeta", "0"],
    ["coeff", "--samples", "100000"],
    ["single-qubit", "-r", "0"],
], ids=lambda argv: argv[0])
def test_threads_below_one_is_usage_error(command, capsys, tmp_path):
    from noisyqst.cli import main

    for value in ("0", "-3"):
        assert main(command + ["--threads", value]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --threads must be >= 1\n"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": -3}))
    assert main(command + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: --threads must be >= 1\n"


@pytest.mark.parametrize("command", [
    ["quality", "--mub", "heisenberg", "--zeta", "0"],
    ["optimize", "--zeta", "0.02"],
    ["optimize", "--zeta", "0.02", "--strategy", "multistart"],
    ["sweep", "--grid", "0", "--states", "1", "--shots", "2304"],
    ["gate-fidelity", "--zeta", "0"],
    ["coeff", "--samples", "100000"],
    ["single-qubit", "-r", "0"],
], ids=["quality", "optimize-mub-seeded", "optimize-multistart", "sweep", "gate-fidelity", "coeff",
        "single-qubit"])
def test_negative_seed_is_usage_error(command, capsys, tmp_path):
    from noisyqst.cli import main

    for value in ("-1", "-7"):
        assert main(command + ["--seed", value]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --seed must be >= 0\n"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    assert main(command + ["--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", "error: --seed must be >= 0\n")


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    from noisyqst.cli import main

    cfg = tmp_path / "cfg.json"
    # max_iter is a misspelling; grid is a flag of sweep, not of optimize
    cfg.write_text(json.dumps({"strength": 0.02, "max_iter": 5, "grid": "0"}))
    out = tmp_path / "out.csv"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown config key(s) for optimize: 'grid', 'max_iter'\n"
    assert not out.exists()


def test_unknown_subcommand_exits_2():
    proc = run_cli("frobnicate", check=False)
    assert proc.returncode == 2


def test_runtime_error_exits_1():
    # a huge zeta fully depolarizes the entangled measurements
    proc = run_cli("quality", "--mub", "heisenberg", "--zeta", "1e6", check=False)
    assert proc.returncode == 1
    assert "error" in proc.stderr.lower()
    # near the float limit r times the OU dephasing rate overflows, r pi for
    # Heisenberg and r 2 for Ising, and -inf * 0 would be NaN at a zero
    # parameter: the one line on stderr names the strength, with no numpy
    # warning before it
    r = ("--channel", "ou", "-r", "1e308")
    for args in [("quality", *r), ("quality", "--interaction", "ising", *r),
                 ("gate-fidelity", *r), ("gate-fidelity", "--interaction", "ising", *r),
                 ("optimize", *r),
                 ("optimize", "--interaction", "ising", "--strategy", "multistart",
                  "--starts", "2", *r),
                 ("sweep", "--channel", "ou", "--grid", "1e308", "--states", "2"),
                 ("sweep", "--channel", "ou", "--interaction", "ising", "--grid", "1e308",
                  "--states", "2", "--schemes", "mub,pauli9,optimized")]:
        proc = run_cli(*args, check=False)
        assert proc.returncode == 1
        rate = "2" if "ising" in args else "3.14159"
        assert proc.stderr == (f"error: OU strength 1e+308 is too large: r times the dephasing "
                               f"rate {rate} overflows\n"), proc.stderr
        assert proc.stdout == ""


_MUB_SEEDED = ["--strategy", "mub-seeded"]
_MULTISTART = ["--strategy", "multistart", "--starts", "3", "--max-iters", "50"]


@pytest.mark.parametrize("interaction, strategy, strength", [
    *(pytest.param("ising", argv, strength, id=f"{argv[1]}-{strength}")
      for argv in (_MUB_SEEDED, _MULTISTART) for strength in ("1e10", "1e200", "5e307")),
    pytest.param("heisenberg", _MUB_SEEDED, "5e307", id="heisenberg-mub-seeded-5e307"),
])
def test_ou_ising_optimize_runs_at_large_accepted_strengths(interaction, strategy, strength):
    # the OU derivative by a noise weight scales by -2 r, far past the value: a
    # run ends, or fails with the one error that names the strength, never with
    # numpy's bare overflow text.  The Heisenberg MUB seed's gradient at 5e307
    # overflows to inf in some weights, and the start ends there, unconverged.
    proc = run_cli("optimize", "--channel", "ou", "--interaction", interaction, "-r", strength,
                   *strategy, check=False)
    if interaction == "heisenberg":
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.startswith("start mub did not converge"), proc.stderr
    assert proc.returncode in (0, 1), proc.stderr
    if proc.returncode == 1:
        last = proc.stderr.splitlines()[-1]
        assert last.startswith(f"error: OU strength {float(strength)} is too large"), last
    assert "overflow encountered" not in proc.stderr


@pytest.mark.parametrize("args", [
    ["quality", "--zeta", "1e308"],
    ["quality", "--interaction", "ising", "--zeta", "1e308"],
    ["optimize", "--zeta", "1e308"],
    ["sweep", "--grid", "1e308", "--states", "2"],
], ids=lambda argv: "-".join(argv[:3]))
def test_depolarizing_strength_whose_rate_overflows_is_one_line_error(args):
    # zeta pi overflows to inf, and -inf * 0 would be NaN at a zero entangling time
    proc = run_cli(*args, check=False)
    assert proc.returncode == 1
    assert proc.stderr == "error: depolarizing strength 1e+308 is too large: zeta pi overflows\n"
    assert proc.stdout == ""


def test_a_nan_gradient_is_reported_as_the_gradient(monkeypatch, capsys):
    # a finite value with a NaN gradient fails each start on its gradient
    import noisyqst.optimize as optimize
    from noisyqst.cli import main

    real = optimize._bounded_objective

    def nan_gradient(z, noise):
        values, grads = real(z, noise)
        return values, np.full_like(grads, np.nan)

    monkeypatch.setattr(optimize, "_bounded_objective", nan_gradient)
    assert main(["optimize", "--channel", "ou", "--interaction", "ising", "-r", "0.05",
                 "--strategy", "multistart", "--starts", "2"]) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: all optimization starts failed: multistart-0: objective "
                           "returned "), last
    assert last.count("with a non-finite gradient") == 2, last


@pytest.mark.parametrize("key, value, message", [
    ("strength", "x", "invalid float value 'x'"),
    ("max_iters", 2.5, "invalid int value 2.5"),
])
def test_bad_config_value_names_the_key_and_the_file(key, value, message, tmp_path, capsys):
    # the key's flag is spelled differently (--zeta, --max-iters); the error names the key
    from noisyqst.cli import main

    cfg = tmp_path / f"{key}.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["optimize", "--zeta", "0.05", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: config {str(cfg)!r} key {key!r}: {message}\n"


def test_a_launch_freezes_the_import_time_heap():
    # The entry function imports the CLI with the collector off, freezes what the
    # import made, and runs main with the collector back on.
    code = textwrap.dedent("""\
        import builtins, gc, json, sys
        seen = {}
        real_import = builtins.__import__

        def report():
            seen["main"] = [gc.isenabled(), gc.get_freeze_count()]
            print(json.dumps(seen))
            return 3

        def spy(name, globals=None, locals=None, fromlist=(), level=0):
            module = real_import(name, globals, locals, fromlist, level)
            if level == 1 and name == "cli" and globals["__name__"] == "noisyqst.__main__":
                seen["imported"] = [gc.isenabled(), gc.get_freeze_count(), "numpy" in sys.modules]
                module.main = report
            return module

        builtins.__import__ = spy
        from noisyqst.__main__ import run
        status = run()
        builtins.__import__ = real_import
        assert gc.isenabled()
        sys.exit(status)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["imported"] == [False, 0, True]
    enabled, frozen = seen["main"]
    assert enabled and frozen > 10_000


def test_importing_the_package_leaves_the_collector_as_it_was(capsys):
    import gc
    import importlib
    import pkgutil

    import noisyqst

    enabled = gc.isenabled()
    for module in pkgutil.iter_modules(noisyqst.__path__):
        importlib.import_module(f"noisyqst.{module.name}")
    from noisyqst.cli import main

    assert main(["gate-fidelity", "--zeta", "0.1"]) == 0
    capsys.readouterr()
    assert gc.isenabled() == enabled and gc.get_freeze_count() == 0


def test_the_installed_script_is_the_entry_function():
    import importlib

    import noisyqst.__main__ as entry

    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["noisyqst"]
    module, name = target.split(":")
    assert getattr(importlib.import_module(module), name) is entry.run

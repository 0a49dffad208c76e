import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

BASE = [sys.executable, "-m", "noisyqst"]


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
            == "b58b6c531f0411fab3da414f22377e9c36a1f11bb05523f91d45c0b59539963a")


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
    # pulses (1/2, 0, 1/2) or of the single coupling beta_z = pi/4.
    for s in (0.0, 0.034, 0.2, 1.3):
        expected = {
            ("depolarizing", "heisenberg"): kraus_depolarizing(np.exp(-s * np.pi * 1.0)),
            ("depolarizing", "ising"): kraus_depolarizing(np.exp(-s * np.pi * 0.25)),
            ("ou", "heisenberg"): kraus_ou_heisenberg(np.exp(-s * np.pi * np.array([0.5, 0, 0.5]))),
            ("ou", "ising"): kraus_ou_ising(np.exp(-2.0 * s * np.array([0, 0, np.pi / 4]))),
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
    from noisyqst.quality import analytic_beta_max

    target = analytic_beta_max(0.02)
    for j in (3, 4):
        beta_y = doc["results"][0]["params"]["measurements"][j]["entangler"][1]
        assert beta_y == pytest.approx(target, abs=1e-3)
    header, row = out1.read_text().strip().split("\n")
    assert header.startswith("strategy,seed,start_label,q_geometric,q_noisy")
    assert row.startswith("mub-seeded,4,mub,")


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


@pytest.mark.parametrize("flag", ["--states", "--shots"])
def test_sweep_rejects_nonpositive_states_and_shots(flag):
    for value in ("0", "-3"):
        proc = run_cli("sweep", "--grid", "0", flag, value, check=False)
        assert proc.returncode == 2
        assert "--states and --shots must be >= 1" in proc.stderr


@pytest.mark.parametrize("flag", ["--starts", "--threshold-pairs", "--max-iters"])
def test_optimize_rejects_nonpositive_starts_and_threshold_pairs(flag, capsys):
    from noisyqst.cli import main

    for strategy in ("multistart", "annealing"):
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


def test_optimize_output_does_not_depend_on_threads(tmp_path):
    results = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}.csv"
        run_cli(
            "optimize", "--zeta", "0.02", "--strategy", "multistart", "--starts", "2",
            "--max-iters", "1", "--threshold-pairs", "50", "--seed", "4",
            "--threads", threads, "--out", out,
        )
        doc = json.loads((tmp_path / f"threads{threads}.csv.json").read_text())
        assert doc.pop("config")["threads"] == threads
        results.append((out.read_bytes(), json.dumps(doc, sort_keys=True)))
    assert results[0] == results[1]


def test_unknown_subcommand_exits_2():
    proc = run_cli("frobnicate", check=False)
    assert proc.returncode == 2


def test_runtime_error_exits_1():
    # a huge zeta fully depolarizes the entangled measurements
    proc = run_cli("quality", "--mub", "heisenberg", "--zeta", "1e6", check=False)
    assert proc.returncode == 1
    assert "error" in proc.stderr.lower()
    # near the float limit the OU decay factors of zero-duration pulses are NaN
    proc = run_cli("quality", "--mub", "heisenberg", "--channel", "ou", "-r", "1e308", check=False)
    assert proc.returncode == 1
    assert "fully depolarized (q=nan)" in proc.stderr

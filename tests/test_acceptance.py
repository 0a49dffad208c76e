"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The reconstruction experiment is desk-scale: 10^3 random
states and a 23040-shot budget per scheme.
"""

import logging
import subprocess
import sys
import time

import numpy as np
import pytest

from noisyqst.core import random_densities
from noisyqst.gates import ENTANGLER_SLOTS, measurement_unitary, standard_mub_params
from noisyqst.noise import NoiseModel, average_gate_fidelity, povm_stack
from noisyqst.optimize import optimize_quorum
from noisyqst.quality import (
    analytic_alpha_max,
    analytic_heisenberg_qn,
    estimate_log_coefficient,
    geometric_quality,
    quality_report,
    single_qubit_optimal_angle,
    single_qubit_quality,
)
from noisyqst.tomography import mub_scheme, pauli9_scheme, run_experiment
from oracles import (
    analytic_beta_max,
    analytic_ising_qn,
    apply_kraus,
    assert_kraus_complete,
    dephase,
    depolarize,
    extract_q_and_nominal,
    kraus_average_gate_fidelity,
    kraus_depolarizing,
    kraus_ou_heisenberg,
    kraus_ou_ising,
)


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def _report(n, message, seconds, budget):
    assert seconds < budget, f"criterion {n} exceeded budget: {seconds:.1f}s >= {budget}s"
    print(f"ACCEPTANCE {n} PASS: {message} ({seconds:.2f}s)")


def test_criterion_1_mub_calibration():
    with _Timer() as t:
        quorum = standard_mub_params("heisenberg")
        q = geometric_quality([measurement_unitary(m) for m in quorum.measurements])
    assert abs(q - 1.0 / 32.0) < 1e-10
    _report(1, f"geometric quality of standard MUB quorum = {q:.12f} = 1/32", t.seconds, 1.0)


def test_criterion_2_gate_fidelities():
    # The CNOT entanglers: SWAP^(1/2) pulses, or one beta_z = pi/4 coupling.
    cnot_h, cnot_i = np.array([0.5, 0.0, 0.5]), np.array([0.0, 0.0, np.pi / 4])
    with _Timer() as t:
        # (a) depolarizing Heisenberg CNOT, zeta = 0.08
        q = np.exp(-0.08 * np.pi)
        f_a = average_gate_fidelity(NoiseModel("depolarizing", "heisenberg", 0.08), cnot_h)
        assert abs(f_a - 0.83) < 0.005
        assert abs(f_a - (1 + 3 * q) / 4) < 1e-12
        assert abs(f_a - kraus_average_gate_fidelity(kraus_depolarizing(q))) < 1e-14
        # (b) depolarizing Ising CNOT, zeta = 0.034
        q = np.exp(-0.034 * np.pi / 4)
        f_b = average_gate_fidelity(NoiseModel("depolarizing", "ising", 0.034), cnot_i)
        assert abs(f_b - 0.98) < 0.002
        assert abs(f_b - (1 + 3 * q) / 4) < 1e-12
        assert abs(f_b - kraus_average_gate_fidelity(kraus_depolarizing(q))) < 1e-14
        # (c) OU CNOT at r = 0.2, both interactions
        r = 0.2
        f_h = average_gate_fidelity(NoiseModel("ou", "heisenberg", r), cnot_h)
        closed_h = 0.5 + 0.4 * np.exp(-r * np.pi / 2) + 0.1 * np.exp(-r * np.pi)
        assert abs(f_h - 0.85) < 0.005 and abs(f_h - closed_h) < 1e-12
        kraus_h = kraus_ou_heisenberg(np.exp(-r * np.pi * cnot_h))
        assert abs(f_h - kraus_average_gate_fidelity(kraus_h)) < 1e-14
        f_i = average_gate_fidelity(NoiseModel("ou", "ising", r), cnot_i)
        closed_i = 0.6 + 0.4 * np.exp(-r * np.pi / 2)
        assert abs(f_i - 0.89) < 0.005 and abs(f_i - closed_i) < 1e-12
        kraus_i = kraus_ou_ising(np.exp(-2 * r * np.abs(cnot_i)))
        assert abs(f_i - kraus_average_gate_fidelity(kraus_i)) < 1e-14
    _report(
        2,
        f"CNOT fidelities {f_a:.4f}/{f_b:.4f} (depolarizing), {f_h:.4f}/{f_i:.4f} (OU)",
        t.seconds,
        1.0,
    )


@pytest.mark.parametrize("zeta", [0.01, 0.02, 0.03])
def test_criterion_3_heisenberg_optimum_recovery(zeta):
    with _Timer() as t:
        noise = NoiseModel("depolarizing", "heisenberg", zeta)
        res = optimize_quorum(noise, strategy="mub-seeded")[0]
        target = analytic_alpha_max(zeta)
        devs = []
        for j in (3, 4):
            alpha1, _, alpha3 = res.params.to_array()[j, ENTANGLER_SLOTS]
            devs += [abs(alpha1 - target), abs(alpha3 - target)]
        assert max(devs) < 1e-3
        closed = analytic_heisenberg_qn(target, target, target, target, zeta)
        assert abs(res.q_noisy - closed) < 1e-6
    _report(
        3,
        f"Heisenberg zeta={zeta}: alpha within {max(devs):.1e} of {target:.6f}, "
        f"Q_N within {abs(res.q_noisy - closed):.1e}",
        t.seconds,
        120.0,
    )


@pytest.mark.parametrize("zeta", [0.01, 0.02, 0.03])
def test_criterion_3_ising_optimum_recovery(zeta):
    with _Timer() as t:
        noise = NoiseModel("depolarizing", "ising", zeta)
        res = optimize_quorum(noise, strategy="mub-seeded")[0]
        target = analytic_beta_max(zeta)
        devs = [
            abs(res.params.to_array()[j, ENTANGLER_SLOTS][1] - target) for j in (3, 4)
        ]
        assert max(devs) < 1e-3
        closed = analytic_ising_qn(target, target, zeta)
        assert abs(res.q_noisy - closed) < 1e-6
    _report(
        3,
        f"Ising zeta={zeta}: beta_y within {max(devs):.1e} of {target:.6f}, "
        f"Q_N within {abs(res.q_noisy - closed):.1e}",
        t.seconds,
        120.0,
    )


def test_criterion_4_single_qubit_optimum():
    with _Timer() as t:
        from scipy.optimize import minimize_scalar

        for r in (0.0, 0.1, 0.3, 1.0):
            res = minimize_scalar(
                lambda th: -single_qubit_quality(th, r),
                bounds=(1e-9, np.pi / 2 - 1e-9),
                method="bounded",
                options={"xatol": 1e-10},
            )
            assert abs(res.x - single_qubit_optimal_angle(r)) < 1e-6
        q_opt = single_qubit_quality(single_qubit_optimal_angle(0.0), 0.0)
        assert abs(q_opt - 1.0) < 1e-10
    _report(4, "single-qubit optimum matches closed form for r in {0, 0.1, 0.3, 1.0}", t.seconds, 1.0)


def test_criterion_5_log_coefficient():
    with _Timer() as t:
        coeff = estimate_log_coefficient(4, 1_000_000, np.random.default_rng(2024))
    assert abs(coeff - 1.195) < 0.05
    _report(5, f"log-average coefficient = {coeff:.4f} (target 1.195 +- 0.05)", t.seconds, 300.0)


def test_criterion_6_reconstruction_experiment(caplog):
    with _Timer() as t:
        n_states, shots, seed = 1000, 23040, 97
        runs = {}
        with caplog.at_level(logging.WARNING, logger="noisyqst.tomography"):
            for zeta in (0.0, 0.04, 0.15):
                noise = NoiseModel("depolarizing", "heisenberg", zeta)
                schemes = [mub_scheme(noise), pauli9_scheme()]
                runs[zeta] = run_experiment(schemes, n_states, shots, rng_seed=seed)
        # every state's likelihood gap is certified: no reconstruction hit max_iter
        assert caplog.records == []

        # (a) zero noise: MUB beats the nine Pauli bases by > 2 combined sems
        mub0, pauli0 = runs[0.0]
        combined = np.hypot(mub0.sem, pauli0.sem)
        gap0 = pauli0.mean_infidelity - mub0.mean_infidelity
        assert gap0 > 2 * combined

        # (b) ordering reverses within zeta in [0.04, 0.15]
        mub_low, pauli_low = runs[0.04]
        mub_high, pauli_high = runs[0.15]
        assert mub_low.mean_infidelity < pauli_low.mean_infidelity
        assert mub_high.mean_infidelity > pauli_high.mean_infidelity + 2 * np.hypot(
            mub_high.sem, pauli_high.sem
        )

        # (c) the Pauli scheme never saw the entangler noise: identical reports
        assert runs[0.0][1] == runs[0.04][1] == runs[0.15][1]
    _report(
        6,
        f"zero-noise gap {gap0:.2e} (> {2*combined:.2e}); ordering reversed by zeta=0.15; "
        "Pauli reports noise-invariant",
        t.seconds,
        1800.0,
    )


def test_criterion_7_channel_algebra_suite():
    with _Timer() as t:
        rng = np.random.default_rng(31)
        for _ in range(100):
            rho = random_densities(4, [rng])[0]
            g = rng.uniform(0.2, 1.0, size=3)
            q = rng.uniform(0.0, 1.0)
            dep = kraus_depolarizing(q)
            heis = kraus_ou_heisenberg(g)
            isg = kraus_ou_ising(g)
            for ops in (dep, heis, isg):
                assert_kraus_complete(ops, tol=1e-10)
            assert np.max(np.abs(apply_kraus(rho, dep) - depolarize(rho, q))) < 1e-12
            assert np.max(np.abs(apply_kraus(rho, heis) - dephase(rho, g, "heisenberg"))) < 1e-12
            assert np.max(np.abs(apply_kraus(rho, isg) - dephase(rho, g, "ising"))) < 1e-12
        for interaction, channel in (
            ("heisenberg", "depolarizing"),
            ("heisenberg", "ou"),
            ("ising", "depolarizing"),
            ("ising", "ou"),
        ):
            noise = NoiseModel(channel, interaction, 0.1)
            quorum = standard_mub_params(interaction)
            povms = povm_stack(quorum.to_array(), noise)
            per_measurement_q = quality_report(quorum, noise).per_measurement_q
            for effects, qs in zip(povms, per_measurement_q):
                nominal = extract_q_and_nominal(effects)[1]
                assert np.max(np.abs(effects.sum(axis=0) - np.eye(4))) < 1e-10
                for k in range(4):
                    recon = qs[k] * (nominal[k] - np.eye(4) / 4) + np.eye(4) / 4
                    assert np.max(np.abs(recon - effects[k])) < 1e-9
    _report(7, "Kraus completeness, map/Kraus agreement, POVM closure, q round-trip", t.seconds, 10.0)


def test_criterion_8_cli_determinism(tmp_path):
    with _Timer() as t:
        base = [sys.executable, "-W", "error::RuntimeWarning", "-m", "noisyqst"]
        commands = [
            ["quality", "--mub", "heisenberg", "--zeta", "0.05", "--seed", "1"],
            ["gate-fidelity", "--channel", "ou", "--interaction", "ising", "-r", "0.2"],
            ["coeff", "--samples", "100000", "--seed", "9"],
            ["single-qubit", "-r", "0.3"],
            [
                "optimize", "--interaction", "ising", "--zeta", "0.02",
                "--strategy", "mub-seeded", "--seed", "2",
            ],
            [
                "sweep", "--grid", "0,0.1", "--schemes", "mub,pauli9",
                "--states", "3", "--shots", "2304", "--seed", "3", "--threads", "1",
            ],
        ]
        for i, cmd in enumerate(commands):
            outputs = []
            for rep in range(2):
                out = tmp_path / f"cmd{i}-{rep}.out"
                proc = subprocess.run(
                    base + cmd + ["--out", str(out)], capture_output=True, text=True
                )
                assert proc.returncode == 0, proc.stderr
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], f"command {cmd} not byte-reproducible"
    _report(8, f"{len(commands)} CLI commands byte-reproducible under fixed seeds", t.seconds, 600.0)

import json

import numpy as np
import pytest

from evometry import (KrausMap, channels, kraus_from_ancilla_basis, storage,
                      weyl_basis)
from evometry.cli import main
from evometry.formats import kraus_json
from evometry.linalg import random_unitary


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_basis_command(capsys):
    code, report, _ = run_json(capsys, "basis", "--kind", "pauli", "--dim", "4")
    assert code == 0
    assert report["exact"]["element_count"] == 16
    assert report["exact"]["gram_deviation"] < 1e-10
    assert report["checks"]["orthogonality"]


def test_basis_weyl_qudit(capsys):
    code, report, _ = run_json(capsys, "basis", "--kind", "weyl", "--dim", "3")
    assert code == 0
    assert report["exact"]["element_count"] == 9
    assert report["exact"]["all_unitary"]


def test_measure_command_splits_hadamard(capsys):
    code, report, _ = run_json(
        capsys, "measure", "--unitary", "H", "--shots", "1000", "--seed", "11")
    assert code == 0
    probs = np.array(report["exact"]["probabilities"])
    assert np.abs(probs - np.array([0.0, 0.5, 0.0, 0.5])).max() < 1e-10
    assert sum(report["empirical"]["counts"]) == 1000
    assert report["checks"]["born_rule_circuit"]


def test_measure_with_reference_unitary(capsys):
    code, report, _ = run_json(
        capsys, "measure", "--unitary", "H", "--u0", "H")
    assert code == 0
    probs = np.array(report["exact"]["probabilities"])
    assert abs(probs[0] - 1.0) < 1e-10


@pytest.mark.parametrize("basis", ["pauli", "weyl"])
def test_measure_u0_of_another_dimension_is_one_usage_error(capsys, basis):
    """A u0 whose dimension is not the unitary's is refused as u0 under
    either basis, not as the unitary against a basis sized by u0."""
    code, out, err = run(capsys, "measure", "--unitary", "H", "--u0",
                         "CNOT", "--basis", basis)
    assert code == 2
    assert "error: u0 has dim 4, expected 2" in err
    assert out == ""


def test_measure_qudit_weyl(capsys):
    code, report, _ = run_json(
        capsys, "measure", "--unitary", "H", "--basis", "weyl")
    assert code == 0
    assert len(report["exact"]["probabilities"]) == 4


def test_channel_command(capsys):
    code, report, _ = run_json(capsys, "channel", "--map", "dephasing:0.5")
    assert code == 0
    assert abs(report["exact"]["entropy_bits"] - 1.0) < 1e-12
    ps = report["exact"]["canonical_probabilities"]
    assert np.abs(np.array(ps) - 0.5).max() < 1e-10
    assert report["checks"]["trace_preserving"]


def test_compress_command_frozen_case(capsys):
    code, report, _ = run_json(
        capsys, "compress", "--map", "dephasing:0.1", "--n", "16",
        "--delta", "0.1")
    assert code == 0
    assert report["exact"]["kept_dim"] == 120
    assert abs(report["exact"]["rate_bits_per_use"] - 0.4316806622255324) < 1e-12


def test_retrieve_command(capsys):
    code, report, _ = run_json(
        capsys, "retrieve", "--map", "unitary:I", "--trials", "200",
        "--seed", "3")
    assert code == 0
    assert report["exact"]["support_dim"] == 1
    assert abs(report["exact"]["herald_probability"] - 1.0) < 1e-12
    assert report["empirical"]["successes"] == 200
    assert report["checks"]["herald_within_5sigma"]


def test_retrieve_requires_seed_for_trials(capsys):
    code, out, err = run(capsys, "retrieve", "--map", "unitary:I",
                         "--trials", "10")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("index", ["5", "-1"])
def test_retrieve_op_index_outside_the_map_is_a_usage_error(capsys, index):
    code, out, err = run(capsys, "retrieve", "--map", "dephasing:0.5",
                         "--op-index", index)
    assert code == 2
    assert "outside the map" in err
    assert out == ""


@pytest.mark.parametrize("delta", ["nan", "-1"])
def test_compress_delta_must_be_non_negative(capsys, delta):
    code, out, err = run(capsys, "compress", "--map", "dephasing:0.5",
                         "--n", "4", "--delta", delta)
    assert code == 2
    assert "delta" in err
    assert out == ""


@pytest.mark.parametrize("n, mode, message", [
    ("2000", "combinatorial", "capped at n = 64"),
    ("100", "combinatorial", "capped at n = 64"),
    ("2000", "exact-matrix", "capped at n = 4"),
])
def test_concentrate_large_n_is_a_usage_error(capsys, n, mode, message):
    code, out, err = run(capsys, "concentrate", "--n", n, "--alpha", "0.8",
                         "--mode", mode)
    assert code == 2
    assert message in err
    assert out == ""


def test_compress_over_the_table_budget_is_a_usage_error(capsys, tmp_path):
    """16 Weyl elements at d = 4 at n = 20: 3247943160 compositions."""
    els = weyl_basis(4).elements / 4
    path = tmp_path / "frame16.json"
    path.write_text(json.dumps(kraus_json(KrausMap(tuple(els)))))
    code, out, err = run(capsys, "compress", "--map", str(path), "--n", "20")
    assert code == 2
    assert "3247943160 compositions" in err
    assert out == ""


def test_schmidt_command(capsys):
    code, report, _ = run_json(capsys, "schmidt", "--unitary", "CNOT")
    assert code == 0
    assert abs(report["exact"]["entanglement_bits"] - 1.0) < 1e-9
    vals = np.array(report["exact"]["schmidt_values"])
    assert np.abs(vals - np.sqrt(0.5)).max() < 1e-9


def test_schmidt_with_explicit_dims(capsys):
    code, report, _ = run_json(capsys, "schmidt", "--unitary", "CNOT",
                               "--dims", "2,2")
    assert code == 0
    assert report["config"]["dims"] == [2, 2]


@pytest.mark.parametrize("dims", ["2,x", "4", "2,2,2", "0,4"])
def test_schmidt_dims_are_refused_at_parse_time(capsys, dims):
    with pytest.raises(SystemExit) as exc:
        main(["schmidt", "--unitary", "CNOT", "--dims", dims])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "--dims" in captured.err
    assert "must be two positive integers dA,dB" in captured.err
    assert "elapsed" not in captured.err
    assert captured.out == ""


def test_concentrate_command(capsys):
    code, report, _ = run_json(
        capsys, "concentrate", "--n", "4", "--alpha", "0.8660254037844386",
        "--mode", "exact-matrix")
    assert code == 0
    assert report["exact"]["argmax_k"] == 3
    assert report["exact"]["sector_deviation"] < 1e-10


@pytest.mark.parametrize("argv, check, residual", [
    (("concentrate", "--n", "4", "--alpha", "0.8660254037844386",
      "--mode", "exact-matrix"), "sectors_match", "sector_deviation"),
    (("superdense", "--unitary", "H"), "eavesdropper_ignorant",
     "eavesdropper_marginal_deviation"),
])
def test_checks_compare_their_residual_with_tol(capsys, argv, check,
                                                residual):
    code, report, _ = run_json(capsys, *argv)
    dev = report["exact"][residual]
    assert code == 0 and 0 < dev <= 1e-9
    _, report, _ = run_json(capsys, *argv, "--tol", repr(dev))
    assert report["checks"][check]
    code, report, _ = run_json(capsys, *argv, "--tol", repr(dev / 2))
    assert code == 1 and not report["checks"][check]


def test_superdense_command(capsys):
    code, report, _ = run_json(
        capsys, "superdense", "--unitary", "X", "--shots", "64", "--seed", "9")
    assert code == 0
    assert report["empirical"]["counts"][1] == 64
    assert report["exact"]["eavesdropper_marginal_deviation"] < 1e-12
    assert report["checks"]["eavesdropper_ignorant"]


def test_verify_accepts_a_map_that_channel_accepts(capsys, tmp_path):
    """A map whose completeness sum deviates by 5e-10, within KrausMap's
    1e-9, is dilated and verified as it is analysed."""
    iso = random_unitary(12, 23)[:, :4] * (1 + 2.5e-10)
    path = tmp_path / "near.json"
    path.write_text(json.dumps(kraus_json(KrausMap(iso.reshape(3, 4, 4)))))
    assert run(capsys, "channel", "--map", str(path))[0] == 0
    code, report, _ = run_json(capsys, "verify", "--map", str(path),
                               "--steps", "20", "--seed", "3")
    assert code == 0 and report["exact"]["accepted"] is True


def test_verify_command_builds_no_dilation_matrix(capsys, monkeypatch):
    """verify dilates once, builds no dilation matrix, and reads the
    dilation once per ancilla basis: verify_sequence reuses the readout
    the command drew its claim from."""
    built, maps, claims = [], [], []

    def spy(kraus):
        built.append(real(kraus))
        return built[-1]

    def count(self):
        maps.append(self)
        real_post_init(self)

    def verify_spy(dil, basis, claimed, seed):
        claims.append((dil, basis, claimed.map))
        return real_verify(dil, basis, claimed, seed)

    real, real_post_init = channels.stinespring, channels.KrausMap.__post_init__
    real_verify = storage.verify_sequence
    monkeypatch.setattr(channels, "stinespring", spy)
    monkeypatch.setattr(channels.KrausMap, "__post_init__", count)
    monkeypatch.setattr(storage, "verify_sequence", verify_spy)
    for basis in ("computational", "fourier"):
        for flip in ((), ("--flip", "2")):
            del maps[:]
            code, report, _ = run_json(
                capsys, "verify", "--map", "depolarizing:0.3", "--steps",
                "10", "--seed", "5", "--ancilla-basis", basis, *flip)
            assert code == 0 and report["exact"]["accepted"] is (not flip)
            # the loaded map, and one readout in the Fourier basis
            assert len(maps) == (1 if basis == "computational" else 2)
            dil, ab, claimed = claims[-1]
            assert kraus_from_ancilla_basis(dil, ab) is claimed is maps[-1]
    assert len(built) == 4 and [c[0] for c in claims] == built
    assert all("matrix" not in vars(dil) for dil in built)


def test_verify_command_honest_and_corrupted(capsys):
    code, report, _ = run_json(
        capsys, "verify", "--map", "dephasing:0.5", "--steps", "25",
        "--seed", "13")
    assert code == 0
    assert report["exact"]["accepted"] is True
    code, report, _ = run_json(
        capsys, "verify", "--map", "dephasing:0.5", "--steps", "25",
        "--seed", "13", "--flip", "4")
    assert code == 0
    assert report["exact"]["accepted"] is False
    assert report["checks"]["verdict_expected"]


def test_json_reports_are_byte_identical(capsys):
    argv = ("measure", "--unitary", "H", "--shots", "500", "--seed", "21",
            "--json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_elapsed_goes_to_stderr_not_stdout(capsys):
    code, out, err = run(capsys, "basis", "--json")
    assert code == 0
    assert "elapsed" in err
    json.loads(out)  # stdout must stay parseable


def test_unknown_gate_is_a_usage_error(capsys):
    code, out, err = run(capsys, "measure", "--unitary", "NOPE")
    assert code == 2
    assert "error" in err


def test_missing_map_file_is_a_usage_error(capsys):
    code, out, err = run(capsys, "channel", "--map", "/no/such/file.json")
    assert code == 2


@pytest.mark.parametrize("obj, message", [
    ({"dim": 2, "kraus": 5}, "'kraus' list"),
    ({"dim": 2, "kraus": [{"dim": 3, "re": np.eye(3).tolist(),
                           "im": np.zeros((3, 3)).tolist()}]}, "dim 2"),
])
def test_malformed_map_file_is_a_usage_error(capsys, tmp_path, obj, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "channel", "--map", str(path))
    assert code == 2
    assert message in err
    assert out == ""


def test_human_readable_output(capsys):
    code, out, err = run(capsys, "channel", "--map", "dephasing:0.5")
    assert code == 0
    assert "entropy_bits" in out
    assert "checks" in out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tolerance_must_be_finite_and_non_negative(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        main(["channel", "--map", "dephasing:0.5", "--tol", tol])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "--tol" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, option", [
    (("measure", "--unitary", "H", "--shots", "-5", "--seed", "1"), "--shots"),
    (("superdense", "--unitary", "H", "--shots", "-5", "--seed", "1"),
     "--shots"),
    (("concentrate", "--n", "3", "--alpha", "0.6", "--shots", "-5",
      "--seed", "1"), "--shots"),
    (("retrieve", "--map", "dephasing:0.5", "--trials", "-2", "--seed", "1"),
     "--trials"),
    (("verify", "--map", "dephasing:0.5", "--steps", "-3", "--seed", "1"),
     "--steps"),
    (("measure", "--unitary", "H", "--shots", "1.5", "--seed", "1"),
     "--shots"),
])
def test_negative_counts_are_refused_at_parse_time(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert option in captured.err
    assert "must be a non-negative integer" in captured.err
    # refused by the parser: no command ran, so no time was reported
    assert "elapsed" not in captured.err
    assert captured.out == ""


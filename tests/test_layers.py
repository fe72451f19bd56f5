"""tools/layers.py, the two-tree call timer, at its smallest size: the
checkout timed against itself at n = 1, over a basis with and without a
Haar u0 and, for the circuit, with and without a one-qubit bystander,
gives one figure per layer, size and side, over every rotation, and the
two retrieval layers one per map size, registers of K = 5, 16 and 256
levels, and the first elements read of a fresh basis with u0 one."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layers_script_times_both_trees_at_one_qubit():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "layers.py"), str(ROOT),
         str(ROOT), "--qubits", "1", "--qudits", "--rotations", "3"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    block = json.loads(out.stdout)
    sizes = {"measure_which_unitary_us": ["n1", "n1u0", "n1b", "n1u0b"],
             "superdense_send_us": ["n1", "n1u0"],
             "which_unitary_distribution_us": ["n1", "n1u0"],
             "retrieval_statistics_us": ["d4k5", "d4k16", "d16k256"],
             "probabilistic_retrieve_us": ["d4k5", "d4k16", "d16k256"],
             "elements_us": ["n1u0"]}
    assert set(block) == {"protocol", *sizes}
    for layer, keys in sizes.items():
        assert list(block[layer]) == keys
        for row in block[layer].values():
            assert row["parent"] > 0 and row["change"] > 0
            assert row["change_faster_in"].endswith(" of 3")

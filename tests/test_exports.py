"""The package's public names: computed from its imports, so each is
listed once, and pinned here against accidental growth or loss."""
import types

import evometry

PUBLIC = (
    "BasisRotation BellBasis BipartiteUnitary CanonicalKraus "
    "ChannelTranscript ChoiState ConcentrationDistribution "
    "ConcentrationRecord EvolutionSequence ExpansionCoefficients KrausMap "
    "NotAnEigenoperator OperatorBasis OperatorSchmidt OutcomeDistribution "
    "PureState RetrievalOutcome StinespringDilation StoredEvolution "
    "TwoTimeObservable TypicalCompression UnitaryOperator "
    "VerificationRecord WhichUnitaryResult bell_basis bipartite_expand "
    "canonical_kraus choi circuit_end_state clock_shift clock_shift_powers "
    "concentrate concentration_sectors concentration_yield "
    "eavesdropper_marginal entropy equivalent expand expected_term_count "
    "gram induced_local_map interaction_entanglement "
    "kraus_from_ancilla_basis kraus_rotation measure_choi_side "
    "measure_which_unitary measure_which_unitary_qudit named_channel "
    "observable_commutator_norm operator_schmidt pauli_basis pauli_string "
    "pauli_strings probabilistic_retrieve reconstruct retrieval_statistics "
    "rotate_basis stinespring store stored_state storage_overlap "
    "superdense_send temporal_eigenvalue typical_compress verify_sequence "
    "weyl_basis which_unitary_distribution"
).split()


def test_all_is_sorted_and_public():
    names = evometry.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert not name.startswith("_")
        assert not isinstance(getattr(evometry, name), types.ModuleType)


def test_every_name_resolves():
    for name in evometry.__all__:
        assert getattr(evometry, name) is not None
    namespace = {}
    exec("from evometry import *", namespace)
    assert set(evometry.__all__) <= set(namespace)


def test_all_is_the_pinned_public_api():
    assert len(PUBLIC) == 67
    assert sorted(evometry.__all__) == sorted(PUBLIC)

"""Probabilistic measurement and information content of quantum evolutions.

Expand a unitary over an orthogonal unitary basis and the squared
coefficients are outcome probabilities of an actual two-time
measurement; the same lens turns channels into canonical operator
records with an entropy, storable, compressible, verifiable, and
retrievable states, and gives bipartite interactions a Schmidt
structure with an entanglement measure and a concentration protocol.
"""
import types

from .basis import (
    BasisRotation,
    ExpansionCoefficients,
    OperatorBasis,
    UnitaryOperator,
    clock_shift,
    clock_shift_powers,
    expand,
    gram,
    pauli_basis,
    pauli_string,
    pauli_strings,
    reconstruct,
    rotate_basis,
    weyl_basis,
)
from .channels import (
    CanonicalKraus,
    ChoiState,
    KrausMap,
    StinespringDilation,
    canonical_kraus,
    choi,
    entropy,
    equivalent,
    kraus_from_ancilla_basis,
    kraus_rotation,
    named_channel,
    stinespring,
)
from .interaction import (
    BipartiteUnitary,
    ConcentrationDistribution,
    ConcentrationRecord,
    OperatorSchmidt,
    bipartite_expand,
    concentrate,
    concentration_sectors,
    concentration_yield,
    expected_term_count,
    induced_local_map,
    interaction_entanglement,
    operator_schmidt,
)
from .measure import (
    NotAnEigenoperator,
    OutcomeDistribution,
    PureState,
    TwoTimeObservable,
    WhichUnitaryResult,
    circuit_end_state,
    measure_choi_side,
    measure_which_unitary,
    measure_which_unitary_qudit,
    observable_commutator_norm,
    temporal_eigenvalue,
    which_unitary_distribution,
)
from .storage import (
    EvolutionSequence,
    RetrievalOutcome,
    StoredEvolution,
    TypicalCompression,
    VerificationRecord,
    probabilistic_retrieve,
    retrieval_statistics,
    store,
    stored_state,
    storage_overlap,
    typical_compress,
    verify_sequence,
)
from .superdense import (
    BellBasis,
    ChannelTranscript,
    bell_basis,
    eavesdropper_marginal,
    superdense_send,
)

__version__ = "0.1.0"

# the public names are exactly the imports above: classes and functions,
# no submodules and nothing private
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)

"""Probabilistic measurement and information content of quantum evolutions.

Expand a unitary over an orthogonal unitary basis and the squared
coefficients are outcome probabilities of an actual two-time
measurement; the same lens turns channels into canonical operator
records with an entropy, storable, compressible, verifiable, and
retrievable states, and gives bipartite interactions a Schmidt
structure with an entanglement measure and a concentration protocol.

Importing the package loads none of its modules. _EXPORTS is the one
table of public names, by the module that defines them; __all__ is
sorted from it, and the module __getattr__ (PEP 562) imports a name's
module on first use and returns the name as that module binds it now.
Nothing is cached here, so evometry.pauli_basis is always
evometry.basis.pauli_basis, and the command line loads only the modules
its subcommand runs.
"""
import importlib
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "basis": (
        "ExpansionCoefficients", "OperatorBasis", "UnitaryOperator",
        "clock_shift", "clock_shift_powers", "expand", "gram",
        "pauli_basis", "pauli_string", "pauli_strings", "reconstruct",
        "rotate_basis", "weyl_basis",
    ),
    "channels": (
        "CanonicalKraus", "ChoiState", "KrausMap", "StinespringDilation",
        "canonical_kraus", "choi", "entropy", "equivalent",
        "kraus_from_ancilla_basis", "kraus_rotation", "named_channel",
        "stinespring",
    ),
    "interaction": (
        "BipartiteUnitary", "ConcentrationDistribution",
        "ConcentrationRecord", "OperatorSchmidt", "bipartite_expand",
        "concentrate", "concentration_sectors", "induced_local_map",
        "interaction_entanglement", "operator_schmidt",
    ),
    "measure": (
        "NotAnEigenoperator", "OutcomeDistribution", "PureState",
        "TwoTimeObservable", "WhichUnitaryResult", "circuit_end_state",
        "measure_choi_side", "measure_which_unitary",
        "measure_which_unitary_qudit", "observable_commutator_norm",
        "temporal_eigenvalue", "which_unitary_distribution",
    ),
    "storage": (
        "EvolutionSequence", "RetrievalOutcome", "StoredEvolution",
        "TypicalCompression", "VerificationRecord", "probabilistic_retrieve",
        "retrieval_statistics", "store", "stored_state", "storage_overlap",
        "typical_compress", "verify_sequence",
    ),
    "superdense": (
        "ChannelTranscript", "eavesdropper_marginal", "superdense_send",
    ),
}
_OWNER = {name: f"{__name__}.{module}"
          for module, names in _EXPORTS.items() for name in names}
# the submodules an import of the package used to bind as its attributes
_SUBMODULES = frozenset(_EXPORTS) | {"gates", "linalg"}

__all__ = sorted(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name)
    if module is not None:
        # sys.modules first: library code reads these names in its loops
        loaded = sys.modules.get(module) or importlib.import_module(module)
        return getattr(loaded, name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))

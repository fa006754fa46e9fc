"""Qudit coherence evolution in the generalized Gell-Mann (Bloch) picture:
bases, states, Kraus channels, transfer matrices, coherence measures, and
verification of the coherence factorization laws."""

from .basis import (
    gellmann_basis,
    pair_indices,
    pauli_tensor_basis,
    y_to_x_transform,
)
from .channel import (
    KrausChannel,
    apply,
    aux_channel,
    aux_solve,
    corollary1_check,
    dual_apply,
    frozen_condition_check,
    gell_mann_G,
    kraus_channel,
    make_frozen_qubit,
    make_named,
    named_channels,
    random_channel,
    random_unital_channel,
    theorem1_condition,
    transfer_matrix,
    validate_frozen_coefficients,
)
from .factorization import (
    FactorizationReport,
    Trajectory,
    freeze_trajectory,
    verify_cascade,
    verify_corollary2,
    verify_families,
    verify_lemma1,
    verify_theorem1,
)
from .measures import (
    correlation_matrix,
    correlation_measures,
    geometric_discord2,
    hellinger_discord,
    l1_from_density,
    min2,
    projective_collapse,
    purity_measure,
)
from .state import (
    DensityMatrix,
    StateFamily,
    bloch_compose,
    bloch_decompose,
    coherence_weight,
    density_matrix,
    family_member,
    probe_state,
    random_families,
    random_family,
    random_state,
    validate_density,
)

__version__ = "0.1.0"

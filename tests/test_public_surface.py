"""The public surface: the names ``cohfact`` exports, and every function the
traced benchmark wraps. ``perfbench/spans.py`` installs its wrappers with
``getattr`` on each layer module, so a traced name deleted from its module
breaks the traced run, which the tier-1 suite does not run."""

import importlib.util
import types
from pathlib import Path

import cohfact
import cohfact.cli  # binds the cli and io layers, submodules, as attributes of cohfact

EXPORTS = {
    "__version__",
    # basis
    "gellmann_basis", "pauli_tensor_basis",
    # channel
    "KrausChannel", "apply", "aux_channel", "aux_solve", "corollary1_check", "dual_apply",
    "frozen_condition_check", "gell_mann_G", "kraus_channel", "make_frozen_qubit", "make_named",
    "named_channels", "random_channel", "random_unital_channel", "theorem1_condition",
    "transfer_matrix", "validate_frozen_coefficients",
    # factorization
    "FactorizationReport", "freeze_trajectory", "verify_cascade", "verify_corollary2",
    "verify_families", "verify_theorem1",
    # measures
    "correlation_measures", "geometric_discord2", "hellinger_discord", "l1_from_density", "min2",
    "projective_collapse", "purity_measure",
    # state
    "DensityMatrix", "bloch_compose", "bloch_decompose", "coherence_weight", "density_matrix",
    "family_member", "probe_state", "random_families", "random_family", "random_state",
    "validate_density",
}


def _traced_layers():
    """The LAYERS table of perfbench/spans.py, loaded from its path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_exports_are_pinned():
    names = {name for name, value in vars(cohfact).items()
             if not isinstance(value, types.ModuleType) and (not name.startswith("_") or name == "__version__")}
    assert len(EXPORTS) == 44
    assert names == EXPORTS


def test_every_traced_name_resolves():
    layers = _traced_layers()
    assert layers
    for layer, fns in layers.items():
        for fn in fns:
            assert callable(getattr(getattr(cohfact, layer), fn)), f"{layer}.{fn}"

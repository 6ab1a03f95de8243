"""puosc: classical structure of the fourth-order two-frequency oscillator.

The library covers the model's phase-space charts and Hamiltonians (core),
its linear Lie symmetries and bi-Hamiltonian structure (symmetry), the
complete classification of two-dimensional first-order representations
(embedding), and trajectory integration with ghost-runaway detection
(dynamics).  A CLI (puosc) exposes reproducible experiments.

Each public name is imported from its module when it is first read (PEP
562), so importing the package, or one module of it, loads only what that
needs: a coupling scan runs without numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("EPS_ALGEBRA", "EPS_SINGULAR"), "config"),
    **dict.fromkeys((
        "JET", "OSTRO", "JetState", "OstroState", "Potential", "PUParams",
        "VectorField", "free_vector_field", "jet_to_ostro", "make_params",
        "ostro_to_jet",
    ), "model"),
    **dict.fromkeys((
        "PoissonTensor", "QuadraticObservable", "blend_h", "blend_j",
        "blend_j_tabulated", "flow_matrix", "h1", "h2", "j1", "j2",
        "poisson_bracket", "solve_bihamiltonian", "transport_observable",
        "transport_tensor",
    ), "core"),
    **dict.fromkeys((
        "ThresholdReport", "Trajectory", "closed_form_states", "field_for",
        "integrate", "mode_decompose", "mode_energy", "quartic",
        "threshold_search",
    ), "dynamics"),
    **dict.fromkeys((
        "TransformMap", "TwoDimModel", "definiteness_inequality",
        "positivity", "pullback_hamiltonian", "pushforward_poisson",
        "reconciliation_report", "solve_family", "sum_of_squares",
        "tabulated_family", "verify_map",
    ), "embedding"),
    **dict.fromkeys((
        "apply_symmetry", "commutant_basis", "generated_structure",
        "invariant_tensor_space", "known_generators",
        "lie_derivative_residual", "symmetry_charges",
    ), "symmetry"),
}

# the modules that are attributes of the package with no import of their own
_MODULES = ("config", "core", "dynamics", "embedding", "errors", "model",
            "symmetry")

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULES, *_EXPORTS})

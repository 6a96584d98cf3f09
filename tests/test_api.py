"""The public surface of each layer module, pinned name by name.

perfbench's tracer (perfbench/tracer.py) wraps every public function and
every public class constructor defined in these modules, one span per
call. Adding or removing a public name here adds or removes a traced span
and moves self time between layers, so it must be an explicit edit of
this file; helpers meant to stay inside a layer take a leading underscore.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import qdiscrim

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "operators": {
        "DensityOperator",
        "HermitianOperator",
        "PureBipartiteState",
        "SpectralDecomposition",
        "hermitian_eigen",
        "is_psd",
        "partial_trace",
        "purify",
        "trace_norm",
    },
    "bloch": {
        "ShiftedBallResult",
        "from_bloch",
        "shifted_ball_dual",
        "to_bloch",
    },
    "solve": {
        "ComplementarySet",
        "DiscriminationSolution",
        "WeightedEnsemble",
        "complementary_states",
        "helstrom_two_state",
        "reconstruct_povm",
        "solve",
        "solve_qubit",
    },
    "certify": {
        "KktCertificate",
        "ProbabilityForms",
        "equivalence_check",
        "probability_forms",
        "verify_kkt",
        "verify_legacy_conditions",
    },
    "serialize": {
        "certificate_to_json",
        "ensemble_from_json",
        "ensemble_to_json",
        "factory_output_to_json",
        "matrix_from_json",
        "matrix_to_json",
        "round_floats",
        "solution_to_json",
    },
    "factory": {
        "FactoryOutput",
        "SteeringMeasurement",
        "generate_from_symmetry_operator",
        "generate_qubit_class_element",
        "identity_class_example",
    },
    "oracle": {
        "ConditionalTable",
        "TableGuessing",
        "conditional_table_from_povm",
        "distance_from_uniform",
        "dual_grid_oracle",
        "guessing_from_table",
        "random_ensemble",
    },
    "cli": {"main"},
}


def _public_names(module) -> set[str]:
    """Public functions and classes defined in the module itself, as the tracer selects them."""
    return {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and getattr(obj, "__module__", None) == module.__name__
    }


def test_pinned_layers_are_the_traced_layers():
    spec = importlib.util.spec_from_file_location("_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert set(tracer.LAYERS) == set(PUBLIC)


@pytest.mark.parametrize("layer", sorted(PUBLIC))
def test_layer_public_surface_is_pinned(layer):
    module = importlib.import_module(f"qdiscrim.{layer}")
    assert _public_names(module) == PUBLIC[layer]


def test_every_exported_name_resolves():
    missing = [name for name in qdiscrim.__all__ if not hasattr(qdiscrim, name)]
    assert missing == []
    assert len(set(qdiscrim.__all__)) == len(qdiscrim.__all__)

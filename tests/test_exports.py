"""The package's public names: each module's ``__all__`` declares them once
and ``nardf`` republishes those lists, bound to the same objects."""

import nardf
from nardf import bsms, errors, excess, gauss, jscc, modelfile, numerics

MODULES = (bsms, errors, excess, gauss, jscc, modelfile, numerics)

PUBLIC = {
    "BITS_PER_NAT", "BsmsDesign", "ChernoffEstimate", "DomainError", "GaussModel",
    "GaussianErrorRecursion", "JointChain", "JsccScalarDesign", "ModelFormatError",
    "NumericError", "PowerMatch", "RateFunctionCurve", "RealizationSolution", "RngStream",
    "SimulationReport", "SkResult", "WaterfillAllocation", "binary_entropy",
    "capacity_waterfill", "classical_alpha1", "classical_gray", "cubic_positive_root",
    "design_feedback_scalar", "design_iid_scalar", "design_nofeedback_scalar",
    "directed_info_rate", "exceedance_exponent", "gaussian_chernoff_exponent",
    "gaussian_error_recursion", "gray_critical_distortion", "hoeffding_bound",
    "hoeffding_constants", "joint_chain", "load_model",
    "lumped_distortion_chain", "match_power", "matched_channel_noise", "max_rate_loss",
    "maximize_concave_1d", "optimal_reproduction", "parse_model_text",
    "partially_observed_sigma", "perron_eigenvalue", "rate_function", "rate_function_curve",
    "rate_loss_alpha1", "rate_loss_bound", "reverse_waterfill", "reversible_bound", "rna_bsms",
    "rna_scalar_fully_observed", "rna_scalar_partially_observed", "schalkwijk_kailath",
    "second_eigenvalue", "simulate_excess_bsms", "simulate_scalar", "simulate_vector",
    "solve_realization", "sym_eig", "verify_tilted_form",
}


def test_package_all_is_the_module_lists():
    joined = [name for module in MODULES for name in module.__all__]
    assert nardf.__all__ == joined
    assert len(set(joined)) == len(joined)
    assert set(nardf.__all__) == PUBLIC and len(PUBLIC) == 60


def test_each_public_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)
            obj = getattr(module, name)
            assert getattr(nardf, name) is obj, name
            if callable(obj):  # listed by the module that defines it
                assert obj.__module__ == module.__name__, name

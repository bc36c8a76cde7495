"""The public surface of the package, pinned name by name.

A name added to or dropped from mrtcat.__all__ should be a decision, so
this test lists every one of them.
"""

import importlib

import numpy as np
import pytest

import mrtcat
import mrtcat.data
import mrtcat.design

PUBLIC = {
    "MrtDataset", "NumeratorPolicy", "fit_numerator_probs", "load_csv", "write_csv",
    "DesignInputs", "SampleSizeResult", "build_v", "eo_pattern", "inputs_from_config",
    "mee_pattern", "power_at_n", "required_sample_size", "tau_pattern",
    "ConvergenceError", "DataValidationError", "DegenerateArmError", "NullContrastError",
    "NumericalError", "PositivityError", "SingularSystemError",
    "CiRow", "ContrastSpec", "TestResult", "build_contrast", "confidence_intervals",
    "contrast_preset", "parse_contrast_text", "wald_test",
    "SpdSolveReport", "f_cdf", "f_quantile", "noncentral_f_cdf", "solve_spd",
    "GenerativeConfig", "McSummary", "Scenario", "derive_replicate_seed", "gm_ev_scales",
    "run_monte_carlo", "scenario_from_config", "simulate_trial",
    "FitResult", "ModelSpec", "fit_wcls",
    "__version__",
}

# Names the package no longer exports, and the attribute or helper that
# carries what each gave.
RETIRED = (
    "ValidationReport",  # MrtDataset checks itself on construction
    "validate",  # mrtcat.data.validate, the constructor's checker
    "build_pt",  # DesignInputs.v_matrix of a one-point design
    "noncentrality",  # (n - q - l) * DesignInputs.lambda_rate
    "summarize_effects",
    "EffectSummary",
)

MODULES = ("data", "design", "inference", "numerics", "simulate", "wcls")  # the ones with __all__


def test_all_is_the_pinned_list():
    assert len(mrtcat.__all__) == len(PUBLIC) == 46
    assert set(mrtcat.__all__) == PUBLIC


@pytest.mark.parametrize("module", ["", *MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"mrtcat.{module}" if module else "mrtcat")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_retired_names_are_gone():
    assert [name for name in RETIRED if hasattr(mrtcat, name)] == []
    for module in MODULES:
        exported = importlib.import_module(f"mrtcat.{module}").__all__
        assert set(RETIRED).isdisjoint(exported)


def test_benchmark_traced_names_still_work():
    # bench/spans.py rebinds these by name in a traced run.
    data = mrtcat.simulate_trial(
        mrtcat.GenerativeConfig(
            family="gm0", t_points=4, rand_probs=np.array([0.4, 0.3]), tau_curve=np.ones(4)
        ),
        n=30,
        seed=5,
    )
    assert mrtcat.data.validate(data) == ()
    fit = mrtcat.fit_wcls(data, mrtcat.ModelSpec())
    table = mrtcat.data.fit_numerator_probs(data, mrtcat.NumeratorPolicy())
    np.testing.assert_array_equal(table, fit.numerator_table)
    inputs = mrtcat.DesignInputs(
        k_arms=2, t_points=3, rand_probs=np.array([0.3, 0.3]), tau=np.ones(3),
        f=np.ones((3, 1)), gamma=np.array([0.1, 0.0]), q=1, l_matrix=np.array([[1.0, -1.0]]),
    )
    assert mrtcat.design.build_v(inputs) is inputs.v_matrix

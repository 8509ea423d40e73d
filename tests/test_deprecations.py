"""Tests for the removed legacy APIs: the spec-required experiment
entry points.

``run_figN`` rejects every pre-spec calling convention through
:func:`repro.experiments._deprecation.require_spec`.
"""

import pytest

from repro.experiments._deprecation import (
    EXEC_OPTION_KEYS,
    LegacyCallError,
    reject_legacy_call,
)


# ----------------------------------------------------------------------
# Spec-required experiment entry points
# ----------------------------------------------------------------------
def test_run_fig6_rejects_keyword_form():
    from repro.experiments.fig6_multipath import run_fig6

    with pytest.raises(LegacyCallError, match="Fig6Spec"):
        run_fig6(protocols=("tcp-pr",), epsilons=(500.0,), duration=2.0)


def test_run_fig6_rejects_positional_link_delay():
    from repro.experiments.fig6_multipath import run_fig6

    with pytest.raises(LegacyCallError, match="run_fig6"):
        run_fig6(0.01)


def test_run_fig2_rejects_positional_topology():
    from repro.experiments.fig2_fairness import run_fig2

    with pytest.raises(LegacyCallError, match="Fig2Spec"):
        run_fig2("dumbbell", flow_counts=(2,))


def test_run_fig4_rejects_missing_spec():
    from repro.experiments.fig4_params import run_fig4

    with pytest.raises(LegacyCallError, match="docs/EXECUTOR.md"):
        run_fig4()


def test_beta_sweep_rejects_positional_betas():
    from repro.experiments.fig4_params import run_extreme_loss_beta_sweep

    with pytest.raises(LegacyCallError, match="BetaSweepSpec"):
        run_extreme_loss_beta_sweep([1.0, 2.0])


def test_stale_spec_keywords_are_rejected_even_with_a_spec():
    from repro.experiments.fig6_multipath import Fig6Spec, run_fig6

    with pytest.raises(LegacyCallError, match="epsilons"):
        run_fig6(Fig6Spec(), epsilons=(0.1,))


def test_exec_options_still_pass_through():
    from repro.experiments.fig6_multipath import Fig6Spec, run_fig6

    result = run_fig6(
        Fig6Spec(protocols=("tcp-pr",), epsilons=(500.0,), duration=2.0),
        keep_going=True,
    )
    assert result.throughput_mbps


def test_error_names_replacement_and_docs():
    with pytest.raises(LegacyCallError) as excinfo:
        reject_legacy_call("run_fig9", "Fig9Spec", "spec=None")
    message = str(excinfo.value)
    assert "Fig9Spec.presets(Scale.QUICK" in message
    assert "docs/EXECUTOR.md" in message
    assert "run_fig9(spec, jobs=" in message


def test_exec_option_keys_match_run_sweep_signature():
    """The screening set must track run_sweep's keyword surface."""
    import inspect

    from repro.exec.runner import run_sweep

    parameters = set(inspect.signature(run_sweep).parameters)
    # run_sweep's spec/jobs/cache/seed are explicit run_figN parameters.
    assert EXEC_OPTION_KEYS <= parameters

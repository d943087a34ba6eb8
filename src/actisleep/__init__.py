"""Unsupervised sleep/wake scoring of actigraphy epoch counts.

A two-state hidden Markov model with a zero-inflated truncated Gaussian
sleep emission and a Gaussian wake emission is fitted per recording by
Baum-Welch and decoded by Viterbi; short state runs are smoothed away.
An Actiwatch-style threshold scorer is included as a comparator, along
with epoch-level agreement metrics, derived sleep variables, and a
seeded simulator for validation.
"""

import importlib

from .actiwatch import AsConfig, AsResult, as_score, find_sleep_end, find_sleep_start, rescore
from .emissions import (
    SleepEmission,
    WakeEmission,
    fit_sleep_weighted,
    fit_wake_weighted,
    sleep_log_emission,
    wake_log_emission,
)
from .hmm import (
    FitReport,
    HmmParams,
    baum_welch,
    default_init,
    forward_log_likelihood,
    posterior_marginals,
    read_params,
    viterbi,
    write_params,
)
from .postprocess import smooth
from .series import (
    EpochSeries,
    LogSeries,
    State,
    StateSequence,
    StudyWindow,
    log_transform,
    read_epoch_csv,
    read_label_csv,
    read_window_file,
    write_epoch_csv,
    write_label_csv,
)
from .simulate import SimSpec, reference_params, simulate, simulate_from_states

# metrics and verify, and the names re-exported from them, load on first
# access (PEP 562), so a scoring run does not import or compile them
_LAZY = {
    "metrics": (
        "Confusion", "EpochMetrics", "SleepVariables", "confusion", "epoch_metrics",
        "paired_t", "pearson_r", "sleep_variables",
    ),
    "verify": (
        "VerifyReport", "brute_force_likelihood", "brute_force_posteriors",
        "brute_force_viterbi", "run_verification",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY_MODULE:
        return getattr(__getattr__(_LAZY_MODULE[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AsConfig", "AsResult", "as_score", "find_sleep_end", "find_sleep_start", "rescore",
    "SleepEmission", "WakeEmission", "fit_sleep_weighted", "fit_wake_weighted",
    "sleep_log_emission", "wake_log_emission",
    "FitReport", "HmmParams", "baum_welch", "default_init", "forward_log_likelihood",
    "posterior_marginals", "read_params", "viterbi", "write_params",
    "smooth",
    "EpochSeries", "LogSeries", "State", "StateSequence", "StudyWindow", "log_transform",
    "read_epoch_csv", "read_label_csv", "read_window_file", "write_epoch_csv", "write_label_csv",
    "SimSpec", "reference_params", "simulate", "simulate_from_states",
    *_LAZY_MODULE,
]

__version__ = "0.1.0"

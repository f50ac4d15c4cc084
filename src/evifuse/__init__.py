"""Decision-level classifier fusion.

Three fusion frameworks over a shared frame of discernment, voting for
symbolic decisions, possibility theory and belief functions for numeric
ones, plus confusion-matrix calibration and a seeded synthetic benchmark
harness that compares them under a repeated split protocol.

``import evifuse`` loads the frame and simulation modules; the others
(belief, calibration, experiment, io, possibility, voting) load on first
use of one of their names, so simulating a dataset does not pay for the
fusion rules.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .frame import (
    CONFLICT,
    MAX_CLASSES,
    Decision,
    FocalSet,
    Frame,
    make_frame,
)
from .simulate import (
    Dataset,
    FusionSettings,
    SimConfig,
    SourceProfile,
    default_config,
    default_priors,
    simulate,
)

__version__ = "0.1.0"

# The public names of the modules that load on first use (PEP 562), by module.
# `simulate` stays an eager import: the first import of a submodule binds it
# on the package, and evifuse.simulate must stay the function.
_LAZY = {
    "belief": (
        "AppriouParams",
        "MassFunction",
        "TrainingSet",
        "appriou_mass",
        "appriou_raw_masses",
        "combine_all",
        "conjunctive_combine",
        "decide_pignistic",
        "default_gamma",
        "denoeux_classify_mass",
        "denoeux_mass",
        "vacuous",
    ),
    "calibration": (
        "ConfusionMatrix",
        "build_confusion",
        "conditional_probs",
        "vote_weights",
    ),
    "experiment": (
        "METHODS",
        "ExperimentReport",
        "MethodResult",
        "evaluate_dataset",
        "run_experiment",
    ),
    "io": (
        "ValidationError",
        "load_config",
        "load_dataset",
        "load_report",
        "save_config",
        "save_dataset",
        "save_report",
    ),
    "possibility": (
        "OPERATORS",
        "PossibilityDistribution",
        "combine",
        "decide_possibilistic",
        "necessity_measure",
        "possibility_measure",
        "to_possibility",
    ),
    "voting": (
        "VoteTally",
        "VoteWeights",
        "decide_absolute_majority",
        "decide_majority",
        "decide_threshold",
        "tally",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())


# Every public name imported above except the submodules, and every lazy one,
# so each is written once.
__all__ = sorted(
    [
        name
        for name, value in globals().items()
        if not name.startswith("_") and not isinstance(value, _ModuleType)
    ]
    + list(_MODULE_OF)
)

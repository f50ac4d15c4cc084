"""Decision-level classifier fusion.

Three fusion frameworks over a shared frame of discernment, voting for
symbolic decisions, possibility theory and belief functions for numeric
ones, plus confusion-matrix calibration and a seeded synthetic benchmark
harness that compares them under a repeated split protocol.
"""

from .belief import (
    AppriouParams,
    MassFunction,
    TrainingSet,
    appriou_mass,
    appriou_raw_masses,
    combine_all,
    conjunctive_combine,
    decide_pignistic,
    default_gamma,
    denoeux_classify_mass,
    denoeux_mass,
    vacuous,
)
from .calibration import (
    ConfusionMatrix,
    build_confusion,
    conditional_probs,
    vote_weights,
)
from .experiment import (
    METHODS,
    ExperimentReport,
    MethodResult,
    evaluate_dataset,
    run_experiment,
)
from .frame import (
    CONFLICT,
    MAX_CLASSES,
    Decision,
    FocalSet,
    Frame,
    make_frame,
)
from .io import (
    ValidationError,
    load_config,
    load_dataset,
    load_report,
    save_config,
    save_dataset,
    save_report,
)
from .possibility import (
    OPERATORS,
    PossibilityDistribution,
    combine,
    decide_possibilistic,
    necessity_measure,
    possibility_measure,
    to_possibility,
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
from .voting import (
    VoteTally,
    VoteWeights,
    decide_absolute_majority,
    decide_majority,
    decide_threshold,
    tally,
)

__version__ = "0.1.0"

__all__ = [
    "AppriouParams",
    "CONFLICT",
    "ConfusionMatrix",
    "Dataset",
    "Decision",
    "ExperimentReport",
    "FocalSet",
    "Frame",
    "FusionSettings",
    "MassFunction",
    "MAX_CLASSES",
    "METHODS",
    "MethodResult",
    "OPERATORS",
    "PossibilityDistribution",
    "SimConfig",
    "SourceProfile",
    "TrainingSet",
    "ValidationError",
    "VoteTally",
    "VoteWeights",
    "appriou_mass",
    "appriou_raw_masses",
    "build_confusion",
    "combine",
    "combine_all",
    "conditional_probs",
    "conjunctive_combine",
    "decide_absolute_majority",
    "decide_majority",
    "decide_pignistic",
    "decide_possibilistic",
    "decide_threshold",
    "default_config",
    "default_gamma",
    "default_priors",
    "denoeux_classify_mass",
    "denoeux_mass",
    "evaluate_dataset",
    "load_config",
    "load_dataset",
    "load_report",
    "make_frame",
    "necessity_measure",
    "possibility_measure",
    "run_experiment",
    "save_config",
    "save_dataset",
    "save_report",
    "simulate",
    "tally",
    "to_possibility",
    "vacuous",
    "vote_weights",
]

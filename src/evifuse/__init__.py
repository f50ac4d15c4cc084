"""Decision-level classifier fusion.

Three fusion frameworks over a shared frame of discernment, voting for
symbolic decisions, possibility theory and belief functions for numeric
ones, plus confusion-matrix calibration and a seeded synthetic benchmark
harness that compares them under a repeated split protocol.
"""

from types import ModuleType as _ModuleType

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

# Every public name bound above except the submodules, so each is written once.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

"""The paper's rating methods: CBR, MBR, RBR, plus WHL/AVG baselines,
EVAL/VAR machinery, outlier elimination, and the Rating Approach
Consultant."""

from .base import Direction, InvocationSource, RatingResult, RatingSettings, rating_var, relative_var
from .baselines import AverageRating, WholeProgramRating
from .cbr import ContextBasedRating
from .consultant import ConsultantLimits, RatingPlan, consult
from .feed import InputReplay, InvocationFeed
from .mbr import ModelBasedRating, regression_var, solve_component_times
from .outliers import filter_outliers
from .rbr import ReExecutionRating
from .window import SampleWindow, WindowGrowth

__all__ = [
    "AverageRating",
    "ConsultantLimits",
    "ContextBasedRating",
    "Direction",
    "InputReplay",
    "InvocationFeed",
    "InvocationSource",
    "ModelBasedRating",
    "RatingPlan",
    "RatingResult",
    "RatingSettings",
    "ReExecutionRating",
    "SampleWindow",
    "WholeProgramRating",
    "WindowGrowth",
    "consult",
    "filter_outliers",
    "regression_var",
    "rating_var",
    "relative_var",
    "solve_component_times",
]

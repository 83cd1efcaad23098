"""Function-on-function kernel regression for spectrum continua.

Predicts the smooth continuum of a quasar spectrum in the Lyman-alpha forest
from the absorption-free segment redward of 1300 A, and quantifies the
uncertainty with distribution-free conformal prediction bands and
wild-bootstrap confidence bands for the projected regression operator.
"""

from .conformal import (
    ConformalBand,
    ConformalCalibration,
    band,
    calibrate,
    contains,
)
from .curves import (
    Curve,
    CurvePair,
    RawSpectrum,
    WavelengthGrid,
    resample,
    sup_distance,
    to_rest_frame,
)
from .evaluation import (
    ErrorSummary,
    coverage_rate,
    plain_error,
    relative_error,
    summarize,
)
from .fpca import FpcaModel, fit_fpca, project
from .mockgen import MockModel, MockRealization, generate, synthetic_model
from .pipeline import PipelineConfig, load_config, smooth_spectra
from .regression import (
    FittedRegression,
    KernelSpec,
    predict,
    select_kappa_cv,
)
from .semimetrics import SemimetricSpec
from .wild_bootstrap import (
    BootstrapBand,
    WildBootstrapConfig,
    bootstrap_bands,
)

__all__ = [
    "Curve",
    "CurvePair",
    "RawSpectrum",
    "WavelengthGrid",
    "resample",
    "sup_distance",
    "to_rest_frame",
    "SemimetricSpec",
    "KernelSpec",
    "FittedRegression",
    "predict",
    "select_kappa_cv",
    "ConformalBand",
    "ConformalCalibration",
    "calibrate",
    "band",
    "contains",
    "FpcaModel",
    "fit_fpca",
    "project",
    "WildBootstrapConfig",
    "BootstrapBand",
    "bootstrap_bands",
    "MockModel",
    "MockRealization",
    "generate",
    "synthetic_model",
    "ErrorSummary",
    "relative_error",
    "plain_error",
    "summarize",
    "coverage_rate",
    "PipelineConfig",
    "load_config",
    "smooth_spectra",
]

"""Knowledge-mastery diagnosis toolkit.

Estimates per-model, per-concept mastery from concept-tagged question banks
and graded responses via weighted non-negative co-factorization, with a
generative simulator for planted-truth validation, a classical enumeration
oracle, reconstruction/agreement metrics, and a reporting CLI.  Caveats such
as an undefined AUC or clamped parameters are logged under ``cdmkit``.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .bank import Concept, ConceptCatalog, Item, ItemBank, load_item_bank, qmatrix
from .dina import (
    DinaParams,
    EmFitResult,
    em_fit,
    enumerate_profiles,
    infer_profiles,
    simulate_dina,
)
from .errors import (
    CdmError,
    DegenerateDataError,
    DimensionError,
    FormatError,
    NumericalError,
    ValidationError,
)
from .grading import extract_choice, grade
from .heatmap import cell_color, render_svg
from .manifest import sha256_file, write_json, write_manifest
from .metrics import (
    AgreementReport,
    ClusterResult,
    ConceptCountRow,
    ReconstructionReport,
    auc_mann_whitney,
    cluster_models,
    concept_counts,
    krippendorff_alpha,
    reconstruction_metrics,
    render_concept_table,
)
from .responses import (
    Attempt,
    ResponseLog,
    ResponseMatrix,
    aggregate,
    load_matrix_csv,
    load_response_logs,
    load_response_matrix,
    save_matrix_csv,
    save_response_matrix,
)
from .simulate import RecoveryScore, SimConfig, SimOutput, recovery_score, save_sim_output, simulate
from .solver import (
    FactorSet,
    FitResult,
    MasteryMatrix,
    McfConfig,
    PredictedScores,
    fit,
    load_factors,
    load_mastery,
    mastery,
    multistart_fit,
    objective,
    predict_scores,
    save_factors,
    save_fit_bundle,
    save_mastery,
)

# The names imported above, not the submodules that importing them binds.
__all__ = [name for name, value in sorted(globals().items())
           if not (name.startswith("_") or isinstance(value, _ModuleType))]

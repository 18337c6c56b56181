"""Knowledge-mastery diagnosis toolkit.

Estimates per-model, per-concept mastery from concept-tagged question banks
and graded responses via weighted non-negative co-factorization, with a
generative simulator for planted-truth validation, a classical enumeration
oracle, reconstruction/agreement metrics, and a reporting CLI.  Caveats such
as an undefined AUC or clamped parameters are logged under ``cdmkit``.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .bank import Concept, ConceptCatalog, Item, ItemBank, load_item_bank, qmatrix, save_item_bank
from .dina import (
    DinaParams,
    EmFitResult,
    MasteryProfile,
    dina_response_prob,
    em_fit,
    enumerate_profiles,
    infer_profile,
    infer_profiles,
    binarize_scores,
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
from .grading import choice_letter_rule, extract_choice, get_rule, grade, register_rule
from .heatmap import HeatmapGrid, cell_color, grid_from_mastery, render_svg, save_heatmap_csv
from .manifest import RunManifest, sha256_file, write_json, write_manifest
from .metrics import (
    AgreementReport,
    ClusterResult,
    ConceptCountReport,
    ConceptCountRow,
    ReconstructionReport,
    auc_mann_whitney,
    auc_pairwise,
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
    save_response_log,
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
    objective_gradients,
    predict_scores,
    save_factors,
    save_fit_bundle,
    save_mastery,
)

__all__ = [name for name in dir() if not name.startswith("_")]

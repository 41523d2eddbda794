"""Self-paced learning through concave conjugacy.

The package keeps three views of a self-paced regularizer in sync — the
convex penalty on sample weights, the weight function, and the concave
latent objective the training implicitly minimizes — connected by the
concave conjugate.  On top of that sit curriculum regions (constraints on
the weights and their effect on the latent objective), an alternating
trainer with age schedules, and a CLI for derivation, validation, lattice
dumps, training, and robustness comparisons.
"""

from .conjugacy import (
    Halfspace,
    NEG_INFINITY,
    SampledFunction,
    biconjugate,
    concave_conjugate,
    graded_unit_grid,
    loss_grid,
    sup_convolution,
)
from .curriculum import (
    CurriculumActionResult,
    CurriculumRegion,
    affine_action,
    group_latent,
    weight_extended,
)
from .errors import SelfPacedError
from .experiments import SuiteConfig, compare_once, make_regression, run_compare
from .oracles import (
    GridSpec,
    critical_region_side,
    curriculum_action_numeric,
    grid_constrained_inf,
    homogeneous_action_ray,
    homogeneous_closed_form,
    latent_descent_fit,
    latent_extended,
    random_concave,
)
from .regularizers import (
    SPRegularizer,
    ValidationReport,
    catalog,
    design_from_regularizer,
    design_from_weight,
    get_regularizer,
    tabulate,
    validate_sp_regularizer,
)
from .training import (
    Dataset,
    TrainConfig,
    TrainState,
    gradient_norm,
    latent_objective,
    load_dataset_csv,
    write_dataset_csv,
    loss_vector,
    median_schedule,
    portion_schedule,
    spl_fit,
    v_step,
    w_step,
)

__version__ = "0.1.0"

__all__ = [
    "Halfspace",
    "NEG_INFINITY",
    "SampledFunction",
    "biconjugate",
    "concave_conjugate",
    "graded_unit_grid",
    "loss_grid",
    "sup_convolution",
    "CurriculumActionResult",
    "CurriculumRegion",
    "affine_action",
    "group_latent",
    "weight_extended",
    "SelfPacedError",
    "SuiteConfig",
    "compare_once",
    "make_regression",
    "run_compare",
    "GridSpec",
    "critical_region_side",
    "curriculum_action_numeric",
    "grid_constrained_inf",
    "homogeneous_action_ray",
    "homogeneous_closed_form",
    "latent_descent_fit",
    "latent_extended",
    "random_concave",
    "SPRegularizer",
    "ValidationReport",
    "catalog",
    "design_from_regularizer",
    "design_from_weight",
    "get_regularizer",
    "tabulate",
    "validate_sp_regularizer",
    "Dataset",
    "TrainConfig",
    "TrainState",
    "gradient_norm",
    "latent_objective",
    "load_dataset_csv",
    "write_dataset_csv",
    "loss_vector",
    "median_schedule",
    "portion_schedule",
    "spl_fit",
    "v_step",
    "w_step",
    "__version__",
]

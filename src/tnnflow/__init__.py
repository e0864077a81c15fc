"""Totally nonnegative flag varieties of SL(n) and their contractive flow.

The package builds the standard pinning of SL(n), certifies total
nonnegativity by exact minor computations, embeds partial flag varieties
into highest-weight modules, and studies the gradient-like dynamics induced
by exp(t * sum of Chevalley generators): an exponentially contracting flow
in an eigenvector chart, with the cell structure of the SL(3) boundary and
the diagram-flip symmetry worked out explicitly.
"""

from .chevalley import (
    GroupElement,
    Pinning,
    build_pinning,
    exp_generator_sum,
    generator_sum,
    generator_sum_spectrum,
    one_param,
)
from .totpos import (
    FactorizationParams,
    Membership,
    Positivity,
    ReducedWord,
    Sl3Coords,
    is_tnn_matrix,
    sample_params,
    sample_positive,
    sl3_coords,
    sl3_membership,
    standard_word_w0,
)
from .embedding import (
    ChartOverflowError,
    EigenChart,
    RepModule,
    Weight,
    build_rep,
    chart_coords,
    chart_line,
    eigenchart,
    lambda_for,
    line_of,
    weyl_dim,
)
from .flow import (
    AxiomReport,
    Convergence,
    DiagonalFlow,
    commutation_check,
    converge,
    default_ball_radius,
    fixed_flag,
    flag_frame,
    flow_point,
    invariance_check,
    line_to_sl3_coords,
    sphere_crossing,
    trajectory,
    verify_axioms,
)
from .cells import (
    Census,
    bruhat_interval_counts,
    census_payload,
    enumerate_cells,
    face_poset,
    figure_svg,
    label_of,
)
from .folding import (
    Folding,
    apply_group,
    build_folding,
    fixed_locus_flow_check,
    symmetric_params,
    symmetric_word,
)

__version__ = "0.1.0"

"""chancert: numerical certification toolkit for completely positive maps.

Dense complex linear algebra on bipartite spaces, Choi/Kraus/Stinespring
representations, PPT and trace-preservation predicates, complementary pairs
with purification rank chains, rank-based distillability and separability
decisions, entanglement-breaking certification, and a deterministic
Monte-Carlo consistency harness.
"""

from .channels import (
    ChoiMatrix,
    KrausSet,
    StinespringOperator,
    apply_channel,
    channels_equal,
    choi_from_kraus,
    choi_from_map_action,
    choi_from_stinespring,
    choi_from_transfer,
    compose,
    is_cocp,
    is_cp,
    is_ppt_map,
    is_trace_preserving,
    kraus_from_choi,
    kraus_from_stinespring,
    stinespring_from_kraus,
    transfer_from_choi,
)
from .certify import (
    CertificateReport,
    Verdict,
    degrading_candidate,
    choi_report,
    degradable_ppt_check,
    distillability_witness,
    eb_certificate,
    equivalence_check,
    separability_decision,
    state_report,
)
from .complement import (
    ComplementaryPair,
    RankChain,
    common_purification_vector,
    complementary_pair_from_stinespring,
    purification_marginals,
    rank_chain,
    swap_environment,
)
from .errors import (
    ChancertError,
    CounterexampleOrBugError,
    DimensionMismatchError,
    FragileSampleError,
    InputScaleError,
    MatrixFileError,
    NonHermitianError,
    NotPositiveSemidefiniteError,
    PurityViolationError,
)
from .generate import (
    GeneratorSpec,
    named_channel,
    random_stinespring,
    schur_multiplier_pair,
    schur_stinespring,
    tiles_stinespring,
    tiles_upb_choi,
    tiles_upb_vectors,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    BipartiteLayout,
    RankDecision,
    ToleranceConfig,
    hermitian_eigensystem,
    is_psd,
    partial_trace,
    partial_transpose,
    psd_check,
    rank_decision,
)

__version__ = "0.1.0"

"""Numerical toolkit for one-shot entanglement sharing over noisy qudit channels.

Library layers:

* :mod:`quditshare.states` -- bipartite state algebra (Schmidt, partial
  transpose/trace, fidelity), state file IO.
* :mod:`quditshare.channels` -- Kraus channels, duals, Choi states of channels
  and of their dual maps (``choi_state``), random channel generation, channel
  file IO; the one-sided action, completeness check and top eigenpair also on
  stacks of channels, bit for bit as on each alone.
* :mod:`quditshare.measures` -- negativity, fully entangled fraction
  (``fef``: exact at d = 2 from the magic basis; at d >= 3 a unitary ascent
  from the identity, ``certified`` when a dual point, the least-squares
  one or one polished from it, proves it within CERT_TOL of the optimum,
  and otherwise joined by seeded restarts that climb as one stack;
  ``fef_batch`` gives the array of ``fef(rho, restarts=1).value`` over a
  stack of operators, with no bracket tried, and both run one
  identity-start routine on stacks of operators), and the
  (tr rho + 2N)/d fidelity ceiling.
* :mod:`quditshare.damping` -- the level-damping channel family, its closed
  forms, and the advantage certificate.
* :mod:`quditshare.search` -- input-state optimization (the best output
  negativity by a fixed point with a [lower, upper] bracket, whose ``upper``
  is proved unless ``fallbacks`` says otherwise, qubit exact formula).
* :mod:`quditshare.cli` -- the ``quditshare`` command-line front end.
"""

from .channels import (
    KrausChannel,
    apply_one_sided,
    channel_from_dict,
    channel_to_dict,
    choi_state,
    completeness_residual,
    dual,
    is_unital,
    kraus_validate,
    load_channel,
    random_channel,
    save_channel,
    top_choi_eigenpair,
)
from .damping import (
    AdvantageCertificate,
    DampingParams,
    advantage_certificate,
    certificate_to_dict,
    damping_channel,
    fef_by_ascent,
)
from .errors import (
    ChannelCompletenessError,
    DimensionError,
    InvalidOperatorError,
    ParameterError,
    ToolkitError,
)
from .measures import (
    FefResult,
    fef,
    fef_batch,
    fstar_upper_bound,
    negativity,
)
from .search import (
    SearchResult,
    maximize_negativity_input,
    qubit_optimal_fidelity,
)
from .states import (
    DensityOperator,
    PureBipartiteState,
    SchmidtDecomposition,
    fidelity_with,
    load_state,
    max_entangled,
    mes_from_unitary,
    partial_trace,
    partial_transpose,
    pure_density,
    random_pure_state,
    schmidt,
    state_from_dict,
)

__version__ = "0.1.0"

__all__ = [
    "AdvantageCertificate",
    "ChannelCompletenessError",
    "DampingParams",
    "DensityOperator",
    "DimensionError",
    "FefResult",
    "InvalidOperatorError",
    "KrausChannel",
    "ParameterError",
    "PureBipartiteState",
    "SchmidtDecomposition",
    "SearchResult",
    "ToolkitError",
    "advantage_certificate",
    "apply_one_sided",
    "certificate_to_dict",
    "channel_from_dict",
    "channel_to_dict",
    "choi_state",
    "completeness_residual",
    "damping_channel",
    "dual",
    "fef",
    "fef_batch",
    "fef_by_ascent",
    "fidelity_with",
    "fstar_upper_bound",
    "is_unital",
    "kraus_validate",
    "load_channel",
    "load_state",
    "max_entangled",
    "maximize_negativity_input",
    "mes_from_unitary",
    "negativity",
    "partial_trace",
    "partial_transpose",
    "pure_density",
    "qubit_optimal_fidelity",
    "random_channel",
    "random_pure_state",
    "save_channel",
    "schmidt",
    "state_from_dict",
    "top_choi_eigenpair",
]

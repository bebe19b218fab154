"""Guard rail for the exponential enumeration.

The valuation sweeps of the propositional module walk 2**n valuations for
n atoms. They refuse to start past a cap: 20 by default, overridable
through the DFCA_MAX_ATOMS environment variable. Everything else in the
package runs in polynomial time and has no cap.
"""

import os

from .errors import StructureError

DEFAULT_ENUMERATION_CAP = 20
CAP_ENV_VAR = "DFCA_MAX_ATOMS"


def enumeration_cap():
    """Resolve the active cap: env var, then default."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        value = int(raw)
    except ValueError:
        raise StructureError(
            f"{CAP_ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise StructureError(f"{CAP_ENV_VAR} must be non-negative, got {value}")
    return value

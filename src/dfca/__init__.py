"""Defeasible conditional reasoning over formal contexts.

The package brings preferential and rational-closure reasoning, usually
studied over propositional logic, to formal concept analysis: contexts
carry compound attributes, objects carry preference orders or rankings,
and a conditional knowledge base induces a least ranking under which
plausible queries can be answered.
"""

from .closure import ClosureSession, entailment_diff
from .context import (
    AttributeImplication,
    FormalContext,
    implication_holds,
)
from .errors import (
    BindingError,
    CapacityError,
    DfcaError,
    FileFormatError,
    FormulaSyntaxError,
    ModularityError,
    StructureError,
    UnsupportedStateError,
    ValidityError,
)
from .fileio import (
    format_cxt,
    load_conditionals,
    load_context,
    load_order,
    load_prop_statements,
    parse_csv_context,
    parse_cxt,
    save_context,
)
from .formula import (
    And,
    Atom,
    Conditional,
    Not,
    Or,
    atom_names,
    bind,
    extension,
    format_formula,
    parse_conditional,
    parse_formula,
)
from .order import (
    PreferentialContext,
    RankedContext,
    RankingFunction,
    StrictOrder,
    order_from_ranks,
    ranks_from_order,
)
from .ranking import (
    KnowledgeBase,
    PreferenceComparison,
    context_preference,
    delta_valid,
    object_rank,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeImplication",
    "And",
    "Atom",
    "BindingError",
    "CapacityError",
    "ClosureSession",
    "Conditional",
    "DfcaError",
    "FileFormatError",
    "FormalContext",
    "FormulaSyntaxError",
    "KnowledgeBase",
    "ModularityError",
    "Not",
    "Or",
    "PreferenceComparison",
    "PreferentialContext",
    "RankedContext",
    "RankingFunction",
    "StrictOrder",
    "StructureError",
    "UnsupportedStateError",
    "ValidityError",
    "atom_names",
    "bind",
    "context_preference",
    "delta_valid",
    "entailment_diff",
    "extension",
    "format_cxt",
    "format_formula",
    "implication_holds",
    "load_conditionals",
    "load_context",
    "load_order",
    "load_prop_statements",
    "object_rank",
    "order_from_ranks",
    "parse_conditional",
    "parse_csv_context",
    "parse_cxt",
    "parse_formula",
    "ranks_from_order",
    "save_context",
]

"""Entailment sessions: a context, its conditionals, and the least ranking.

A session freezes one context together with a conditional knowledge base
and the ranking the base induces. A conditional is entailed when that
least ranking satisfies it. Sessions are immutable; adding a conditional
yields a new session with the ranking recomputed.
"""

from .errors import StructureError
from .ranking import KnowledgeBase, object_rank


class ClosureSession:
    """Immutable pairing of a context and knowledge base with their ranking."""

    __slots__ = ("_context", "_kb", "_ranked")

    def __init__(self, context, kb=()):
        """Rank the context's objects once, by ``object_rank``.

        The ranking loop costs set operations per conditional and rank,
        none per object; the rank tuple is not built.
        """
        kb = kb if isinstance(kb, KnowledgeBase) else KnowledgeBase(kb)
        self._context = context
        self._kb = kb
        self._ranked, _ = object_rank(context, kb)

    @property
    def context(self):
        return self._context

    @property
    def kb(self):
        return self._kb

    @property
    def ranked(self):
        return self._ranked

    def entails(self, conditional):
        """Does the least ranking for the knowledge base satisfy the conditional?"""
        return self._ranked.satisfies(conditional)

    def add_conditional(self, conditional):
        """New session whose knowledge base also contains the conditional."""
        return ClosureSession(self._context, self._kb.with_conditional(conditional))

    def __repr__(self):
        return f"ClosureSession({self._context!r}, {self._kb!r})"


def entailment_diff(before, after, probes):
    """Per-probe verdicts in two sessions over the same context.

    Returns (probe, verdict before, verdict after) triples in probe order.
    """
    if before.context != after.context:
        raise StructureError("sessions compare only over the same context")
    return [(p, before.entails(p), after.entails(p)) for p in probes]

"""Ranking objects by how exceptional the conditionals make them.

Six people and a "friends with" table, plus two defeasible rules. The
ranking algorithm settles the unexceptional objects first and pushes the
rest upward, producing the least ranking that satisfies the rules. A few
hand-written rival rankings that also satisfy the rules then sit at or
above it, person by person.
"""

from pathlib import Path

from dfca import (
    KnowledgeBase,
    RankedContext,
    RankingFunction,
    context_preference,
    delta_valid,
    load_conditionals,
    load_context,
    object_rank,
)

DATA = Path(__file__).resolve().parent.parent / "data"

# ranks for bob, eva, charlie, frank, alice and david, in file order
RIVALS = {
    "eva joins charlie and frank": (0, 1, 1, 1, 2, 2),
    "alice above david": (0, 0, 1, 1, 3, 2),
    "eva alone at the bottom": (1, 0, 2, 2, 3, 3),
}


def main():
    context = load_context(DATA / "friends.cxt")
    kb = KnowledgeBase(load_conditionals(DATA / "friends.kb"))

    print("the rules:")
    for c in kb:
        print(f"  {c}")
    print("\nevery subset plausibly answerable?", delta_valid(context, kb))

    ranked, ranking = object_rank(context, kb)
    print("\nranks, least exceptional first:")
    for level, stratum in enumerate(ranking.strata):
        print(f"  rank {level}: {', '.join(context.object_names(stratum))}")

    print("\nrival rankings:")
    below_all = True
    for name, ranks in RIVALS.items():
        rival = RankedContext(context, RankingFunction(ranks))
        satisfied = all(rival.satisfies(c) for c in kb)
        comparison = context_preference(ranked, rival)
        below = comparison.le and not comparison.ge
        print(f"  {name} {ranks}: satisfies the rules? {satisfied}; "
              f"computed ranking below it? {below}")
        below_all = below_all and satisfied and below
    print("the computed ranking lies below every rival?", below_all)


if __name__ == "__main__":
    main()

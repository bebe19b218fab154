"""Entailment that changes its mind when the knowledge base grows.

A session pairs a context with its conditionals and the least ranking they
induce; queries are answered against that ranking. Adding one conditional
rebuilds the ranking, and conclusions can both disappear and appear. The
diff below shows one of each, side by side.
"""

from pathlib import Path

from dfca import ClosureSession, entailment_diff, load_conditionals, load_context
from dfca.formula import parse_conditional

DATA = Path(__file__).resolve().parent.parent / "data"


def main():
    context = load_context(DATA / "friends.cxt")
    before = ClosureSession(context, load_conditionals(DATA / "friends.kb"))

    print("starting knowledge base:")
    for c in before.kb:
        print(f"  {c}")

    queries = [
        parse_conditional('"fw. eva" |~ "fw. bob"'),
        parse_conditional('"fw. eva" |~ "fw. alice"'),
        parse_conditional('"fw. david" |~ "fw. charlie"'),
    ]
    print("\nverdicts now:")
    for q in queries:
        print(f"  {q}: {before.entails(q)}")

    addition = parse_conditional('"fw. eva" |~ "fw. frank"')
    after = before.add_conditional(addition)
    print(f"\nafter adding {addition}:")
    for name, was, now in zip(
        context.objects, before.ranked.ranking.ranks, after.ranked.ranking.ranks
    ):
        marker = "  <- moved" if was != now else ""
        print(f"  {name:8} rank {was} -> {now}{marker}")

    print("\nwhat the addition did to the verdicts:")
    for query, was, now in entailment_diff(before, after, queries):
        change = {
            (True, False): "retracted",
            (False, True): "gained",
        }.get((was, now), "unchanged")
        print(f"  {query}: {was} -> {now}  ({change})")


if __name__ == "__main__":
    main()

"""The classic penguin triad, worked in plain propositional logic.

Birds fly, penguins are birds, penguins do not fly. Base ranking sorts the
statements by how exceptional their antecedents are; the closure procedure
then answers queries by discarding ranks until the query's antecedent is
no longer exceptional. The same statements then cross the bridge into a
context whose objects are the three most typical states. Last comes the
preferential side: the states under a strict order that no ranking
induces, read as an interpretation and as a preferential context.
"""

from dfca.propositional import (
    base_rank,
    derive_preferential_context,
    derive_ranked_context,
    parse_prop_formula,
    parse_prop_statement,
    rc_decision,
    PreferentialInterpretation,
    RankedInterpretation,
)
from dfca import Conditional, StrictOrder
from dfca.formula import Atom, Not


def main():
    kb = [
        parse_prop_statement("bird |~ flies"),
        parse_prop_statement("penguin |~ bird"),
        parse_prop_statement("penguin |~ !flies"),
    ]
    print("the knowledge base:")
    for s in kb:
        print(f"  {s}")

    result = base_rank(kb)
    print("\nstatements by exceptionality:")
    for level, stratum in enumerate(result.strata):
        print(f"  rank {level}: " + "; ".join(str(s) for s in stratum))

    print("\nqueries against the rational closure:")
    for text in ("bird |~ flies", "penguin |~ !flies", "penguin |~ flies"):
        query = parse_prop_statement(text)
        verdict, dropped = rc_decision(kb, query)
        note = f"after discarding {dropped} rank(s)" if dropped else "directly"
        print(f"  {query}: {verdict} ({note})")

    print("\nthe minimal model, one state per typical situation:")
    atoms = ("bird", "flies", "penguin")
    valuations = (
        {"bird": True, "flies": True, "penguin": False},
        {"bird": True, "flies": False, "penguin": True},
        {"bird": False, "flies": False, "penguin": False},
    )
    model = RankedInterpretation(
        atoms, ("sparrow", "penguin state", "stone"), valuations, (0, 1, 0)
    )
    for label, v, r in zip(model.states, valuations, model.ranks):
        true_atoms = ", ".join(a for a in atoms if v[a]) or "(nothing)"
        print(f"  {label:14} rank {r}: {true_atoms}")

    derived = derive_ranked_context(model)
    probe = Conditional.defeasible(Atom("penguin"), Not(Atom("flies")))
    print("\nas a ranked context with states for objects:")
    print("  objects:", ", ".join(derived.context.objects))
    print(f"  {probe}: {derived.satisfies(probe)}")
    mirrored = model.satisfies(parse_prop_statement("penguin |~ !flies"))
    print("  agreeing with the propositional verdict?",
          derived.satisfies(probe) == mirrored)

    # the sparrow is more typical than the penguin state, and the stone is
    # comparable to neither: no ranking induces that
    order = StrictOrder(3, [(0, 1)])
    preferential = PreferentialInterpretation(atoms, model.states, valuations, order)
    print("\nthe same states under a strict preference order:")
    print("  atoms:", ", ".join(preferential.atoms))
    print("  pairs (lower, upper):", order.pairs())
    print("  sparrow below the penguin state?", order.precedes(0, 1))
    print("  stone below the sparrow?", order.precedes(2, 0))
    print("  modular?", order.is_modular())
    for text in ("bird |~ flies", "penguin |~ !flies", "!flies |~ penguin"):
        verdict = preferential.satisfies(parse_prop_statement(text))
        print(f"  {text}: {verdict}")

    bridged = derive_preferential_context(preferential)
    flightless = preferential.state_bits(parse_prop_formula("bird & !flies"))
    print("\nas a preferential context with states for objects:")
    print("  bird & !flies holds of:", ", ".join(bridged.context.object_names(flightless)))
    print("  the order carried over unchanged?", bridged.order == order)
    print(f"  {probe}: {bridged.satisfies(probe)}")


if __name__ == "__main__":
    main()

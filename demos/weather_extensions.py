"""A first walk through contexts, derivation, and compound attributes.

Four days of weather make a context small enough to check every answer by
eye: derivation operators connect object sets to attribute sets, classical
implications hold or fail, and compound formulas pick out the days that no
single attribute can.
"""

from dfca import (
    AttributeImplication,
    Conditional,
    FormalContext,
    extension,
    format_formula,
    implication_holds,
    parse_formula,
)


def banner(title):
    print(f"\n== {title} ==")


def names(context, bits, kind="objects"):
    pick = context.object_names if kind == "objects" else context.attribute_names
    return ", ".join(pick(bits)) or "(none)"


def main():
    context = FormalContext.from_pairs(
        ["Day 1", "Day 2", "Day 3", "Day 4"],
        ["Sun", "Rain", "Wind", "Cold"],
        [
            ("Day 1", "Sun"),
            ("Day 2", "Wind"),
            ("Day 2", "Cold"),
            ("Day 3", "Rain"),
            ("Day 3", "Cold"),
            ("Day 4", "Cold"),
        ],
    )

    banner("the context")
    header = " ".join(f"{m:>4}" for m in context.attributes)
    print(f"{'':8}{header}")
    for i, g in enumerate(context.objects):
        row = context.row(i)
        cells = " ".join(
            f"{'x' if row >> j & 1 else '.':>4}" for j in range(context.n_attributes)
        )
        print(f"{g:8}{cells}")

    banner("derivation")
    cold = context.attribute_set(["Cold"])
    print("objects with Cold:", names(context, context.extent(cold)))
    day2 = context.object_set(["Day 2"])
    print("attributes of Day 2:", names(context, context.intent(day2), "attributes"))
    # no object lacks an attribute of the empty set, so it derives to all of M
    print("the empty object set shares every attribute?",
          context.intent(0) == context.attribute_universe)

    banner("a classical implication")
    rain = context.attribute_set(["Rain"])
    implication = AttributeImplication(rain, cold)
    print("Rain -> Cold holds?", implication_holds(context, implication))

    banner("compound attributes")
    rainy_or_windy = parse_formula("Rain | Wind")
    print(f"extension of {format_formula(rainy_or_windy)}:",
          names(context, extension(context, rainy_or_windy)))
    grim = parse_formula("!Sun & Cold")
    print(f"extension of {format_formula(grim)}:",
          names(context, extension(context, grim)))

    banner("a compound implication, checked by materialising it")
    claim = Conditional.classical(rainy_or_windy, parse_formula("Cold"))
    everywhere = extension(context, claim.material()) == context.object_universe
    print(f"{claim} holds on every object?", everywhere)


if __name__ == "__main__":
    main()

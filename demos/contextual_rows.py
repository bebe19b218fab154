"""The paper's "more contextual" inference, on the penguin triad.

A context whose objects are valuations answers a defeasible query as
propositional rational closure does on the base plus one classical
assertion: the valuation is one of the context's rows. When the rows are
only some of the valuations, that assertion can change the verdict. Here
the data holds a sparrow, a penguin and a stone, and nothing that flies
without being a bird, so "flies |~ bird" holds of the data though the
base alone does not give it.
"""

from dfca import ClosureSession, FormalContext
from dfca.formula import parse_conditional
from dfca.propositional import parse_prop_statement, rc_decision

BASE = ("bird |~ flies", "penguin |~ bird", "penguin |~ !flies")
ATOMS = ("bird", "flies", "penguin")
# each row a valuation, atom j true where bit j is set
ROWS = {"sparrow": 0b011, "penguin": 0b101, "stone": 0b000}
QUERY = "flies |~ bird"


def minterm(row):
    """The conjunction true at this valuation alone."""
    return " & ".join(
        atom if row >> j & 1 else f"!{atom}" for j, atom in enumerate(ATOMS)
    )


def main():
    print("the base:")
    for text in BASE:
        print(f"  {text}")
    print("\nthe data, a subset of the 8 valuations:")
    for name, row in ROWS.items():
        print(f"  {name:8} {minterm(row)}")

    context = FormalContext(list(ROWS), list(ATOMS), list(ROWS.values()))
    session = ClosureSession(context, [parse_conditional(t) for t in BASE])
    in_context = session.entails(parse_conditional(QUERY))

    base = [parse_prop_statement(t) for t in BASE]
    rows = " | ".join(f"({minterm(row)})" for row in ROWS.values())
    asserted = [*base, parse_prop_statement(rows)]
    query = parse_prop_statement(QUERY)
    alone, _ = rc_decision(base, query)
    with_rows, _ = rc_decision(asserted, query)

    print(f"\n{QUERY}:")
    print(f"  over the context of the rows:        {in_context}")
    print(f"  rational closure of the base alone:  {alone}")
    print(f"  rational closure, rows asserted:     {with_rows}")
    print(f"\n{QUERY}: {alone} -> {with_rows} once the rows are asserted")
    print("the context agrees with the asserted rows?", in_context == with_rows)


if __name__ == "__main__":
    main()

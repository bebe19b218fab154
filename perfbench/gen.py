"""Seeded input generators for the benchmark workloads.

Formulas are plain tuples so that the reference checker never depends on
the package's own AST: ``("atom", name)``, ``("not", f)``,
``("and", f, g)``, ``("or", f, g)`` and, for propositional assertions
only, ``("implies", f, g)``. ``render`` prints them in the package's
canonical text form, so printed statements can be compared verbatim.

Three input families:

* planted exception hierarchies: nested classes ``c0 ⊇ … ⊇ c10``, a
  feature ``f`` that flips at every level (with a little noise) and random
  filler attributes, plus the 21-conditional knowledge base that ranks
  them into about a dozen strata;
* layered strict partial orders over such a context's objects;
* propositional exception chains and random bases with assertions.

Every level of a hierarchy carries planted witnesses that have the
correct feature and every "involved" filler. Any conditional drawn by
``random_update`` only mentions involved fillers in positive consequents,
so the base knowledge base plus any set of them is satisfiable by
construction.
"""

import random
from types import SimpleNamespace

N_LEVELS = 11
N_FILLERS = 28
N_INVOLVED = 8
NOISE = 0.03
WITNESSES_PER_LEVEL = 2
LEVEL_DECAY = 0.7

PREC = {"or": 1, "and": 2, "implies": 0}


def atom(name):
    return ("atom", name)


def neg(f):
    return ("not", f)


def conj(f, g):
    return ("and", f, g)


def disj(f, g):
    return ("or", f, g)


def render(f):
    """Canonical text: minimal parentheses, binary connectives left-associative."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "not":
        inner = render(f[1])
        return "!" + (inner if f[1][0] == "atom" else f"({inner})")
    if kind == "implies":
        # only ever built from atoms, negated atoms and conjunctions
        return f"{render(f[1])} -> {render(f[2])}"
    prec = PREC[kind]

    def side(child, right):
        text = render(child)
        if child[0] in PREC and (
            PREC[child[0]] < prec or (PREC[child[0]] == prec and right)
        ):
            return f"({text})"
        return text

    op = " & " if kind == "and" else " | "
    return side(f[1], False) + op + side(f[2], True)


def render_conditional(ant, cons):
    return f"{render(ant)} |~ {render(cons)}"


# --- planted hierarchies -----------------------------------------------------


def feature_at(level):
    """The typical value of f at a level: f on even levels, !f on odd ones."""
    return level % 2 == 0


def hierarchy_attributes():
    return (
        [f"c{l}" for l in range(N_LEVELS)]
        + ["f"]
        + [f"x{k}" for k in range(N_FILLERS)]
    )


def hierarchy_kb(levels=N_LEVELS):
    """``c_l |~ f`` or ``c_l |~ !f`` per level and ``c_l |~ c_{l-1}`` above level 0."""
    kb = []
    for l in range(levels):
        f = atom("f") if feature_at(l) else neg(atom("f"))
        kb.append((atom(f"c{l}"), f))
    for l in range(1, levels):
        kb.append((atom(f"c{l}"), atom(f"c{l - 1}")))
    return kb


def conflict_conditional():
    """A conditional no object can answer plausibly: ``c5 & f |~ !f``."""
    return (conj(atom("c5"), atom("f")), neg(atom("f")))


class Hierarchy:
    """A generated context: names, rows (attribute bitmasks) and filler roles."""

    def __init__(self, objects, attributes, rows, involved):
        self.objects = objects
        self.attributes = attributes
        self.rows = rows
        self.involved = involved

    def cxt_text(self):
        lines = ["B", "", str(len(self.objects)), str(len(self.attributes)), ""]
        lines.extend(self.objects)
        lines.extend(self.attributes)
        width = len(self.attributes)
        for row in self.rows:
            lines.append(format(row, f"0{width}b")[::-1].replace("1", "X").replace("0", "."))
        return "\n".join(lines) + "\n"


def hierarchy(rng, n_objects):
    attributes = hierarchy_attributes()
    fillers = [f"x{k}" for k in range(N_FILLERS)]
    involved = sorted(rng.sample(fillers, N_INVOLVED), key=lambda x: int(x[1:]))
    weights = [LEVEL_DECAY**l for l in range(N_LEVELS)]
    specs = []
    for l in range(N_LEVELS):
        for _ in range(WITNESSES_PER_LEVEL):
            specs.append((l, True))
    while len(specs) < n_objects:
        specs.append((rng.choices(range(N_LEVELS), weights)[0], False))
    rng.shuffle(specs)
    index = {a: j for j, a in enumerate(attributes)}
    involved_bits = sum(1 << index[x] for x in involved)
    rows = []
    for level, planted in specs:
        row = (1 << (level + 1)) - 1
        has_f = feature_at(level)
        if not planted and rng.random() < NOISE:
            has_f = not has_f
        if has_f:
            row |= 1 << index["f"]
        row |= rng.getrandbits(N_FILLERS) << index["x0"]
        if planted:
            row |= involved_bits
        rows.append(row)
    objects = [f"g{i:05d}" for i in range(len(rows))]
    return Hierarchy(objects, attributes, rows, involved)


def random_formula(rng, names, connectives):
    """A random formula with the given number of binary connectives."""
    f = atom(rng.choice(names))
    if rng.random() < 0.3:
        f = neg(f)
    for _ in range(connectives):
        g = atom(rng.choice(names))
        if rng.random() < 0.3:
            g = neg(g)
        pair = (f, g) if rng.random() < 0.5 else (g, f)
        f = ("and" if rng.random() < 0.6 else "or", *pair)
        if rng.random() < 0.1:
            f = neg(f)
    return f


def query_names(h):
    """Attributes queries draw from: the classes, f, and the involved fillers twice."""
    return [f"c{l}" for l in range(N_LEVELS)] + ["f"] + h.involved * 2


def random_query(rng, h):
    names = query_names(h)
    return (
        random_formula(rng, names, rng.randint(0, 2)),
        random_formula(rng, names, rng.randint(0, 1)),
    )


# template seed for query shapes; any seed works, this one was not chosen
QUERY_TEMPLATE_SEED = 0


def rename(f, names):
    """Rename the atoms of ``f`` that appear in ``names``."""
    if f[0] == "atom":
        return atom(names.get(f[1], f[1]))
    return (f[0],) + tuple(rename(g, names) for g in f[1:])


def template_queries(rng, h, stream, count):
    """``count`` queries of fixed shapes; the seed only chooses the fillers.

    The shapes are drawn by ``random_query`` from a fixed template seed,
    with placeholders for the involved fillers. The run seed maps the
    placeholders onto ``h.involved`` in a random order. Involved fillers
    are independent random bits of equal density, so a query costs about
    the same on every seed while its text and answer differ.
    """
    slots = [f"#{k}" for k in range(N_INVOLVED)]
    template_rng = make_rng(QUERY_TEMPLATE_SEED, stream)
    placeholders = SimpleNamespace(involved=slots)
    names = dict(zip(slots, rng.sample(h.involved, N_INVOLVED)))
    return [
        tuple(rename(f, names) for f in random_query(template_rng, placeholders))
        for _ in range(count)
    ]


def random_update(rng, h, i):
    """The i-th update: a conditional that keeps the base knowledge base satisfiable.

    Shapes and levels cycle with i, so every seed draws the same mix and
    only the fillers vary.
    """
    a, b, c, d = rng.sample(h.involved, 4)
    shape, level = i % 3, (i // 3) % N_LEVELS
    if shape == 0:
        return (atom(a), atom(b))
    if shape == 1:
        return (conj(atom(f"c{level}"), atom(a)), atom(b))
    return (conj(atom(a), atom(c)), disj(atom(b), atom(d)))


def random_probe(rng, h, i):
    """The i-th probe: a conditional likely to change verdict when updates arrive.

    Shapes and levels cycle with i, as for updates.
    """
    a, b = rng.sample(h.involved, 2)
    shape, level = i % 4, (i // 4) % N_LEVELS
    if shape == 0:
        return (atom(a), atom(b))
    if shape == 1:
        return (conj(atom(f"c{level}"), atom(a)), atom("f"))
    if shape == 2:
        return (atom(a), neg(atom(f"c{level}")))
    return (conj(atom(a), neg(atom(b))), atom("f"))


def conditional_lines(conditionals):
    return "".join(render_conditional(a, c) + "\n" for a, c in conditionals)


# --- layered orders ----------------------------------------------------------


def layered_order(rng, n_objects, n_layers, parents=2, skips=0.1):
    """``(lower, upper)`` index pairs of a random layered partial order.

    Objects are shuffled into layers; each object above the bottom layer
    sits above ``parents`` random objects of the layer below, and a tenth
    of them also above one object two layers down.
    """
    order = list(range(n_objects))
    rng.shuffle(order)
    layers = [order[k::n_layers] for k in range(n_layers)]
    pairs = set()
    for k in range(1, n_layers):
        for upper in layers[k]:
            for lower in rng.sample(layers[k - 1], min(parents, len(layers[k - 1]))):
                pairs.add((lower, upper))
            if k >= 2 and rng.random() < skips:
                pairs.add((rng.choice(layers[k - 2]), upper))
    return sorted(pairs)


def order_text(objects, pairs):
    return "".join(f"{objects[i]} < {objects[j]}\n" for i, j in pairs)


# --- propositional bases -----------------------------------------------------


def prop_atoms(n):
    return [f"a{i}" for i in range(n)]


def exception_chain(n):
    """``a_i |~ a_{i+1}`` and ``a_{i+1} |~ !a_i`` along n atoms."""
    names = prop_atoms(n)
    statements = []
    for i in range(n - 1):
        statements.append(("defeasible", atom(names[i]), atom(names[i + 1])))
        statements.append(("defeasible", atom(names[i + 1]), neg(atom(names[i]))))
    return statements


def _literal(rng, names):
    f = atom(rng.choice(names))
    return neg(f) if rng.random() < 0.4 else f


def random_base(rng, n, n_defeasible, n_assertions):
    """Random defeasible statements with exceptions, plus classical assertions.

    Every atom is mentioned, so every query over the atoms ranges over the
    same valuations as the base.
    """
    names = prop_atoms(n)
    statements = []
    for i, name in enumerate(names):
        other = names[(i + 1 + rng.randrange(n - 1)) % n]
        statements.append(("defeasible", atom(name), _literal(rng, [other])))
    while len(statements) < n_defeasible:
        a, b, c = rng.sample(names, 3)
        statements.append(("defeasible", conj(atom(a), atom(b)), _literal(rng, [c])))
    for _ in range(n_assertions):
        a, b, c = rng.sample(names, 3)
        if rng.random() < 0.5:
            statements.append(("assertion", ("implies", conj(atom(a), atom(b)), atom(c))))
        else:
            statements.append(("assertion", disj(neg(atom(a)), neg(atom(b)))))
    rng.shuffle(statements)
    return statements


def statement_text(statement):
    if statement[0] == "assertion":
        return render(statement[1])
    return render_conditional(statement[1], statement[2])


def statement_lines(statements):
    return "".join(statement_text(s) + "\n" for s in statements)


# template seed whose random bases have varied structure and none with
# most statements exceptional forever
PROP_TEMPLATE_SEED = 2


def relabel(f, mapping):
    """Rename atoms by ``mapping`` (name -> (new name, negated)), never doubling a negation."""
    kind = f[0]
    if kind == "atom":
        name, negated = mapping[f[1]]
        return neg(atom(name)) if negated else atom(name)
    if kind == "not":
        inner = relabel(f[1], mapping)
        return inner[1] if inner[0] == "not" else neg(inner)
    return (kind, relabel(f[1], mapping), relabel(f[2], mapping))


def prop_bases(rng, n, count, queries):
    """An exception chain and ``count`` random bases, each relabelled by the seed.

    The random bases, and ``queries`` queries for every base, are drawn
    once from a fixed template seed. A run seed only permutes the atoms and
    flips their polarity, the same way for a base and its queries, which
    keeps each base's strata and exceptional statements, and so the cost of
    ranking it and answering its queries, while the texts differ from seed
    to seed. Returns the bases and, per base, its queries.
    """
    template_rng = make_rng(PROP_TEMPLATE_SEED, "prop-templates")
    templates = [exception_chain(n)] + [
        random_base(template_rng, n, n + 6, 2) for _ in range(count)
    ]
    query_templates = [
        [random_prop_query(template_rng, n) for _ in range(queries)] for _ in templates
    ]
    names = prop_atoms(n)
    bases, base_queries = [], []
    for template, questions in zip(templates, query_templates):
        mapping = {a: (b, rng.random() < 0.5) for a, b in zip(names, rng.sample(names, n))}
        bases.append([(s[0],) + tuple(relabel(f, mapping) for f in s[1:]) for s in template])
        base_queries.append([tuple(relabel(f, mapping) for f in q) for q in questions])
    return bases, base_queries


def random_prop_query(rng, n):
    names = prop_atoms(n)
    return (
        random_formula(rng, names, rng.randint(0, 1)),
        random_formula(rng, names, rng.randint(0, 1)),
    )


def make_rng(seed, stream):
    """An independent generator per input stream, derived from the run seed."""
    return random.Random(f"{seed}:{stream}")

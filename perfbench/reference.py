"""Independent reference answers, in plain Python sets.

Nothing here imports the package. Formulas are the generator's tuples,
evaluated by set algebra over the objects (or truth-table worlds) that
satisfy each atom. Rankings follow the tolerance construction: split the
conditionals into levels by which ones some object tolerates (satisfies
the antecedent and every remaining material form), then give each object
one more than the highest level it violates. That is a different route to
the least ranking than the package's object-side sweep, so the two check
each other.
"""

class SetModel:
    """Elements 0..n-1 and, per atom name, the set of elements having it."""

    def __init__(self, n, columns):
        self.n = n
        self.universe = frozenset(range(n))
        self.columns = {name: frozenset(members) for name, members in columns.items()}
        self._memo = {}

    def ext(self, f):
        """Elements satisfying a formula (memoised per formula)."""
        hit = self._memo.get(f)
        if hit is None:
            hit = self._memo[f] = self._compute(f)
        return hit

    def _compute(self, f):
        kind = f[0]
        if kind == "atom":
            return self.columns[f[1]]
        if kind == "not":
            return self.universe - self.ext(f[1])
        left, right = self.ext(f[1]), self.ext(f[2])
        if kind == "and":
            return left & right
        if kind == "or":
            return left | right
        if kind == "implies":
            return (self.universe - left) | right
        raise ValueError(f"unknown connective {kind!r}")

    def violators(self, ant, cons):
        return self.ext(ant) - self.ext(cons)

    def tolerance_levels(self, conditionals):
        """Level per conditional index, and the indices no level tolerates.

        ``conditionals`` is a list of (antecedent set, violator set) pairs.
        """
        active = list(range(len(conditionals)))
        levels = {}
        level = 0
        while active:
            bad = set()
            for k in active:
                bad |= conditionals[k][1]
            good = self.universe - bad
            tolerated = [k for k in active if not good.isdisjoint(conditionals[k][0])]
            if not tolerated:
                break
            for k in tolerated:
                levels[k] = level
            active = [k for k in active if k not in levels]
            level += 1
        return levels, active


def context_model(attributes, rows):
    """A SetModel of a context whose rows are attribute bitmasks."""
    columns = {a: [] for a in attributes}
    for i, row in enumerate(rows):
        for j, a in enumerate(attributes):
            if row >> j & 1:
                columns[a].append(i)
    return SetModel(len(rows), columns)


class Ranking:
    """Strata of a model's elements, lowest rank first."""

    def __init__(self, ranks, top):
        """``ranks`` maps element to rank; elements it leaves out rank infinitely."""
        strata = [set() for _ in range(top + 1)]
        for i, r in ranks.items():
            strata[r].add(i)
        self.strata = [frozenset(s) for s in strata]

    def rank_list(self, n):
        ranks = [None] * n
        for r, stratum in enumerate(self.strata):
            for i in stratum:
                ranks[i] = r
        return tuple(ranks)

    def minimal(self, members):
        """(lowest rank meeting the set, members at that rank), or (None, empty)."""
        for r, stratum in enumerate(self.strata):
            hit = stratum & members
            if hit:
                return r, hit
        return None, frozenset()


def rank_context(model, kb):
    """Least ranking of the model for defeasible (ant, cons) pairs, or None if invalid."""
    conditionals = [(model.ext(a), model.violators(a, c)) for a, c in kb]
    levels, stuck = model.tolerance_levels(conditionals)
    if stuck:
        return None
    ranks = dict.fromkeys(range(model.n), 0)
    for k, level in levels.items():
        for i in conditionals[k][1]:
            if ranks[i] < level + 1:
                ranks[i] = level + 1
    return Ranking(ranks, max(ranks.values(), default=-1))


def entails(model, ranking, ant, cons):
    """(verdict, lowest antecedent rank or None) under a ranking."""
    rank, minimal = ranking.minimal(model.ext(ant))
    return minimal <= model.ext(cons), rank


def layered_predecessors(n, pairs):
    """Per element, every element strictly below it in the transitive closure."""
    below = [[] for _ in range(n)]
    above = [[] for _ in range(n)]
    for lower, upper in pairs:
        below[upper].append(lower)
        above[lower].append(upper)
    pending = [len(b) for b in below]
    ready = [i for i in range(n) if pending[i] == 0]
    pred = [frozenset()] * n
    while ready:
        i = ready.pop()
        acc = set()
        for p in below[i]:
            acc.add(p)
            acc |= pred[p]
        pred[i] = frozenset(acc)
        for u in above[i]:
            pending[u] -= 1
            if pending[u] == 0:
                ready.append(u)
    if any(pending):
        raise ValueError("generated order has a cycle")
    return pred


def preferential_satisfies(model, pred, ant, cons):
    members = model.ext(ant)
    minimal = {i for i in members if pred[i].isdisjoint(members)}
    return minimal <= model.ext(cons)


def successor_masks(pred):
    """Successor bitmasks per element, from predecessor sets."""
    masks = [0] * len(pred)
    for upper, lowers in enumerate(pred):
        bit = 1 << upper
        for lower in lowers:
            masks[lower] |= bit
    return masks


# --- propositional ------------------------------------------------------------


def world_model(atoms):
    """Truth-table worlds as a SetModel; world w sets atom k when bit k of w is 1."""
    n = 1 << len(atoms)
    columns = {a: [w for w in range(n) if w >> k & 1] for k, a in enumerate(atoms)}
    return SetModel(n, columns)


def statement_parts(statement):
    """(antecedent, consequent) as the package encodes statements.

    A classical assertion of alpha is the conditional ``!alpha |~ BOT``.
    """
    if statement[0] == "assertion":
        return ("not", statement[1]), None
    return statement[1], statement[2]


class PropClosure:
    """Base ranking and rational closure of a statement list over its worlds."""

    def __init__(self, model, statements, texts):
        unique = []
        seen = set()
        for s, text in zip(statements, texts):
            if text not in seen:
                seen.add(text)
                unique.append((s, text))
        self.model = model
        parts = []
        for s, _ in unique:
            ant, cons = statement_parts(s)
            ant_set = model.ext(ant)
            viol = ant_set if cons is None else ant_set - model.ext(cons)
            parts.append((ant_set, viol))
        levels, stuck = model.tolerance_levels(parts)
        height = max(levels.values(), default=-1) + 1
        self.strata = tuple(
            tuple(text for k, (_, text) in enumerate(unique) if levels.get(k) == level)
            for level in range(height)
        )
        self.infinite = tuple(unique[k][1] for k in stuck)
        hard = set()
        for k in stuck:
            hard |= parts[k][1]
        ranks = {
            w: 1 + max((levels[k] for k in levels if w in parts[k][1]), default=-1)
            for w in model.universe - hard
        }
        self.ranking = Ranking(ranks, height)

    def decide(self, ant, cons):
        """(verdict, antecedent rank or None when no finite world satisfies it)."""
        rank, minimal = self.ranking.minimal(self.model.ext(ant))
        return minimal <= self.model.ext(cons), rank

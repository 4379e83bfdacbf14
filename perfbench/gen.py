"""Seeded input generators for the benchmark workloads.

Nothing here imports foliar: the inputs depend only on the seed and on
this file, so a change to the program never changes what it is fed.
Every input is text in one of the formats the library parses (PD code,
braid word, tree, slope), tagged with its kind and, where the
generator knows one, the reference the verdict is checked against.

Conventions follow the PD format in README: slots are listed
counterclockwise and the a-c strand passes under.  A braid crossing
for s_i^+1 has its over strand running NW-SE; the closure joins the
top of each strand to its bottom.
"""

import random
from dataclasses import dataclass, field

TREFOIL = ((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3))
FIGURE_EIGHT = ((4, 2, 5, 1), (8, 6, 1, 5), (6, 3, 7, 4), (2, 7, 3, 8))


@dataclass(frozen=True)
class Input:
    ident: str
    kind: str  # "pd" | "braid" | "tree" | "slopes"
    text: str
    family: str
    # facts the generator knows about the input, used for references
    facts: dict = field(default_factory=dict, compare=False)


# -- PD writers ----------------------------------------------------------------

def _relabel(crossings):
    """Renumber arbitrary arc ids to 1..2n in first-seen order."""
    order = {}
    out = []
    for c in crossings:
        row = []
        for a in c:
            if a not in order:
                order[a] = len(order) + 1
            row.append(order[a])
        out.append(tuple(row))
    return out


def pd_text(crossings):
    return " ".join("X[%d,%d,%d,%d]" % c for c in crossings)


def braid_closure(n_strands, word):
    """Crossings of the closure of a braid word [(gen, exp), ...].

    Every strand must meet a crossing, else the closure has a free
    circle that PD text cannot carry.
    """
    fresh = n_strands
    cur = list(range(n_strands))
    crossings = []
    for gen, exp in word:
        i = gen - 1
        for _ in range(abs(exp)):
            nw, ne = cur[i], cur[i + 1]
            sw, se = fresh, fresh + 1
            fresh += 2
            crossings.append((ne, nw, sw, se) if exp > 0 else (nw, sw, se, ne))
            cur[i], cur[i + 1] = sw, se
    bottom_to_top = {b: t for t, b in enumerate(cur)}
    if len(bottom_to_top) != n_strands or any(t == b for t, b in enumerate(cur)):
        raise ValueError("a strand meets no crossing")
    return _relabel(
        tuple(bottom_to_top.get(a, a) for a in c) for c in crossings
    )


def mirror(crossings):
    """Swap over and under: the b-d strand becomes the a-c strand."""
    return [c[1:] + c[:1] for c in crossings]


def connected_sum(a, b, x, y, swap):
    """Splice diagram b into diagram a along arc x of a and arc y of b.

    Both arcs are cut; one end of x is joined to one end of y and the
    other two ends by a new arc.  `swap` picks which end of y meets the
    first end of x.
    """
    off = 2 * len(a)
    b = [tuple(s + off for s in c) for c in b]
    y += off
    new = off + 2 * len(b) + 1
    a_ends = [(ci, s) for ci, c in enumerate(a) for s in range(4) if c[s] == x]
    b_ends = [(ci, s) for ci, c in enumerate(b) for s in range(4) if c[s] == y]
    if swap:
        b_ends.reverse()
    a = [list(c) for c in a]
    b = [list(c) for c in b]
    ci, s = a_ends[1]
    a[ci][s] = new
    ci, s = b_ends[0]
    b[ci][s] = x
    ci, s = b_ends[1]
    b[ci][s] = new
    return _relabel(tuple(c) for c in a + b)


def summand_chain(rng, summands, mirror_share):
    """Connected sum of trefoils and figure-eights, each maybe mirrored,
    each spliced in along a random arc of the sum so far."""
    out = None
    for _ in range(summands):
        s = list(TREFOIL if rng.random() < 0.5 else FIGURE_EIGHT)
        if rng.random() < mirror_share:
            s = mirror(s)
        if out is None:
            out = s
            continue
        x = rng.randrange(1, 2 * len(out) + 1)
        y = rng.randrange(1, 2 * len(s) + 1)
        out = connected_sum(out, s, x, y, rng.random() < 0.5)
    return out


def granny_chain(rng, summands):
    """Positive trefoils joined in a row, as in the GRANNY3 fixture.

    Each trefoil is spliced into the previous one, whose crossings are
    the last three, along the fourth of that trefoil's arcs; with one of
    arcs 1, 2, 4, 5 of the new trefoil this cuts the previous twist
    chain into a one-crossing and a two-crossing region between the
    same two faces, so every middle summand needs one merge.
    """
    out = list(TREFOIL)
    for _ in range(summands - 1):
        x = sorted({a for c in out[-3:] for a in c})[3]
        y = rng.choice((1, 2, 4, 5))
        out = connected_sum(out, list(TREFOIL), x, y, rng.random() < 0.5)
    return out


# -- braid words ---------------------------------------------------------------

def braid_text(word):
    return " ".join(f"s{g}^{e}" for g, e in word)


def knot_permutation_cycles(n_strands, word):
    perm = list(range(n_strands))
    for gen, exp in word:
        if exp % 2:
            perm[gen - 1], perm[gen] = perm[gen], perm[gen - 1]
    seen, cycles = set(), 0
    for i in range(n_strands):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return cycles


def _signed(rng, magnitudes):
    e = rng.choice(magnitudes)
    return e if rng.random() < 0.5 else -e


def random_word(rng, n_strands, syllables, magnitudes):
    """Syllables with no two neighbours (cyclically) on one generator,
    using every generator."""
    while True:
        gens = []
        for _ in range(syllables):
            choices = [
                g for g in range(1, n_strands)
                if not gens or g != gens[-1]
            ]
            gens.append(rng.choice(choices))
        if len(gens) > 2 and gens[0] == gens[-1]:
            gens.pop()  # the new last differs from the popped one
        if len(set(gens)) == n_strands - 1:
            return [(g, _signed(rng, magnitudes)) for g in gens]


def interleaved_knot_word(rng, n_strands, crossings, magnitudes):
    """Word cycling s1 .. s_{n-1}, which passes the interleaving rule,
    redrawn until its closure is a knot by the permutation count."""
    while True:
        word, total = [], 0
        while total < crossings:
            for g in range(1, n_strands):
                e = _signed(rng, magnitudes)
                word.append((g, e))
                total += abs(e)
        if knot_permutation_cycles(n_strands, word) == 1:
            return word


# -- trees ---------------------------------------------------------------------

def tree_text(weights, children):
    """Bracketed text of a planar tree rooted at vertex 0, built without
    recursion so paths thousands of levels deep can be written."""
    parts = []
    stack = [(0, False)]
    while stack:
        v, closing = stack.pop()
        if closing:
            parts.append(")")
            continue
        parts.append(("(" if v == 0 else " (") + str(weights[v]))
        stack.append((v, True))
        for c in reversed(children[v]):
            stack.append((c, False))
    return "".join(parts)


def random_tree(rng, n, magnitudes):
    """Random recursive tree: vertex i hangs off a uniform earlier one."""
    children = [[] for _ in range(n)]
    for i in range(1, n):
        children[rng.randrange(i)].append(i)
    weights = [_signed(rng, magnitudes) for _ in range(n)]
    return weights, children


def path_tree(rng, n, magnitudes):
    """Two-bridge path: each vertex has the next as its only child."""
    children = [[i + 1] for i in range(n - 1)] + [[]]
    return [_signed(rng, magnitudes) for _ in range(n)], children


def tree_facts(weights):
    return {"vertices": len(weights),
            "min_abs_weight": min(abs(w) for w in weights)}


# -- slopes --------------------------------------------------------------------

def random_slope(rng):
    r = rng.random()
    if r < 0.08:
        return "inf"
    if r < 0.16:
        return "0"
    p = rng.randrange(1, 13) * (1 if rng.random() < 0.5 else -1)
    q = rng.randrange(1, 5)
    return str(p) if q == 1 else f"{p}/{q}"


# -- workloads -----------------------------------------------------------------

def corpus(seed):
    """Census-style sweep: thousands of small inputs, 3 to 60 crossings."""
    rng = random.Random(seed)
    items = []

    def add(kind, text, family, **facts):
        items.append(Input("", kind, text, family, facts))

    for _ in range(900):
        n = rng.choice((3, 5))
        word = random_word(rng, n, rng.randrange(n - 1, 9), (1, 2, 3, 4))
        add("pd", pd_text(braid_closure(n, word)), "closure")
    for _ in range(300):
        add("pd", pd_text(summand_chain(rng, rng.randrange(2, 5), 0.5)), "sum")
    for _ in range(600):
        n = rng.choice((3, 5))
        word = random_word(rng, n, rng.randrange(n - 1, 9), (1, 2, 3, 4))
        add("braid", braid_text(word), "braid")
    for _ in range(600):
        w, ch = random_tree(rng, rng.randrange(1, 13), (1, 2, 3, 4))
        add("tree", tree_text(w, ch), "tree", **tree_facts(w))
    for _ in range(600):
        add("slopes", " ".join(random_slope(rng) for _ in range(3)), "slopes")
    rng.shuffle(items)
    return _number("corpus", items)


def large(seed):
    """A few dozen inputs of 10^3 to 10^4 crossings that need no
    normalisation.  Sizes are fixed; the seed draws the structure."""
    rng = random.Random(seed)
    items = []
    # sizes put a block of similar cost in the middle, so the median
    # does not jump between two inputs of different size from seed to seed
    for n in (3, 5, 7):
        for crossings in (1000, 5000, 5000, 10000):
            word = interleaved_knot_word(rng, n, crossings, (2, 3, 4))
            items.append(Input("", "pd", pd_text(braid_closure(n, word)),
                               f"closure{n}"))
    for vertices in (300, 1000, 1000, 1000, 2000, 3000):
        w, ch = random_tree(rng, vertices, (2, 3, 4))
        items.append(Input("", "tree", tree_text(w, ch), "tree",
                           tree_facts(w)))
    for vertices in (100, 400, 600, 700, 1500, 3000):
        # even weights on an even number of vertices: always a knot
        w, ch = path_tree(rng, vertices, (2, 4))
        items.append(Input("", "tree", tree_text(w, ch), "path",
                           tree_facts(w)))
    return _number("large", items)


def reshape(seed):
    """PD inputs of 10^2 to 10^3 crossings that normalisation reshapes."""
    rng = random.Random(seed)
    items = []
    for m in (20, 40, 60, 80, 100, 120, 140, 160):
        sign = 1 if rng.random() < 0.5 else -1
        word = [(1, sign * (m + 3)), (1, -sign * m)]
        items.append(Input(
            "", "pd", pd_text(braid_closure(2, word)), "unreduced2",
            {"word": word, "n_strands": 2, "dk": True},
        ))
    for crossings in (80, 110, 140, 170, 200, 240, 280, 320):
        word = _mixed_run_word(rng, crossings)
        items.append(Input(
            "", "pd", pd_text(braid_closure(3, word)), "mixed3",
            {"word": word, "n_strands": 3},
        ))
    for i, summands in enumerate((12, 16, 20, 30, 40, 60, 80, 100)):
        chain = summand_chain(rng, summands, 0.5 if i % 2 else 0.0)
        items.append(Input("", "pd", pd_text(chain), "sum"))
    for summands in (10, 20, 30, 45, 60, 75, 90, 100):
        items.append(Input("", "pd", pd_text(granny_chain(rng, summands)),
                           "granny"))
    return _number("reshape", items)


def _mixed_run_word(rng, crossings):
    """Interleaved 3-strand word whose syllables are split into runs of
    opposite sign, e.g. s1^5 s1^-2 s2^-4 s2^1 ..., with a knot closure.

    Run sizes follow a fixed cycle and only signs and the order of the
    two runs are drawn, so the number of cancellations, and with it the
    cost, is the same for every seed.
    """
    word, reduced, total = [], [], 0
    k = 0
    while total < crossings or knot_permutation_cycles(3, reduced) != 1:
        net, back = ((2, 1), (3, 2), (4, 3))[k % 3]
        sign = 1 if rng.random() < 0.5 else -1
        runs = [(k % 2 + 1, sign * (net + back)), (k % 2 + 1, -sign * back)]
        if rng.random() < 0.5:
            runs.reverse()
        word += runs
        reduced.append((k % 2 + 1, sign * net))
        total += net + 2 * back
        k += 1
    return word


def _number(name, items):
    width = len(str(len(items)))
    return [
        Input(f"{name}-{i:0{width}d}", it.kind, it.text, it.family, it.facts)
        for i, it in enumerate(items)
    ]


WORKLOADS = {"corpus": corpus, "large": large, "reshape": reshape}

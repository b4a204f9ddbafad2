"""Seeded input generation for the four benchmark workloads.

Every input is rendered as text (terms with ``format_term``, trees with
``format_tree``) so that the measured process parses fresh objects on each
operation and no per-object cache carries over.  Where the answer is known
by construction (a law instance is EQUAL, ``invert`` must give back the
generating term, an ``scl`` call must print what the library returns
in-process) or by brute force (the candidates and selection of a
decompose op), the expectation is stored beside the input.

Each family is drawn as a pool several times larger than needed, sorted
by evaluation-tree size, and sampled at evenly spaced ranks.  The inputs
then follow the family's own size distribution, and two seeds differ in
the particular terms but not in the mix of small and large ones: with
plain draws, the median and the tail of a pass moved by a third from one
seed to the next.  Families with an unbounded tail are cut at a tree size
(as ``random_substitution``'s ``max_tree`` does), so that one draw of a
few hundred thousand nodes cannot take over a run; the cut lies well
inside the sizes where the superlinear costs named in the ROADMAP show.
"""

from __future__ import annotations

import json
import re
from random import Random

from sclkit import (
    And,
    Atom,
    Const,
    Not,
    Or,
    basic_form,
    cd,
    classify,
    dd,
    decide_eq,
    decide_eq_cp,
    enumerate_candidates,
    eval_in_model,
    eval_tree,
    expand_full,
    format_term,
    format_tree,
    independence_suite,
    invert,
    nf,
    parse,
    parse_tree,
    scl_to_cp,
    substitute,
    tsd,
    validates,
)
from sclkit.axioms import cp_axioms, derived_laws, dual_equation, eqfscl_axioms, eqfscl_minus
from sclkit.generate import random_scl_term, random_snf_term, random_substitution

# equiv-check: (max_depth, max_size) of the two term shapes and their pair
# counts per pass; large pairs whose evaluation tree exceeds LARGE_CUT
# nodes are redrawn.  LAW_PAIRS are closed instances of F1..F10.
FUZZ_SHAPE = (6, 40)
LARGE_SHAPE = (8, 80)
FUZZ_PAIRS = 300
LARGE_PAIRS = 160
LARGE_CUT = 2_000
LAW_PAIRS = 100

# canon-invert: the criterion-4 family (budget 4, max_depth 2), and the
# budget-8 and budget-16 families at max_depth 1, the latter cut at B16_CUT
# tree nodes.  Every DECOMPOSE_EVERY-th tree of a family, by size rank,
# also gets a decompose op.
B4_COUNT = 320
B8_COUNT = 60
B16_COUNT = 200
B16_CUT = 3_000
DECOMPOSE_EVERY = 7
DECOMPOSE_KINDS = ("cd", "dd", "tsd")

POOL_FACTOR = 32

# law-check: each of the 31 equations REPEATS times per pass at SAMPLES
# substitutions per op, plus INDEPENDENCE_OPS runs of the independence suite.
# At 60 samples the equations' op costs fall into three clusters: F1 and
# F1' (under a millisecond), thirteen equations within a factor of two of
# each other, and seventeen that cost 1.5 to 7 times the dearest of those
# thirteen; one suite run costs less than any of the thirteen.
# INDEPENDENCE_OPS puts the median op in the middle of the second cluster;
# with few suite runs it sits at that cluster's upper edge, where a few slow
# ops move it into the gap above and the median jumps between runs.
# REPEATS is 1 to keep a pass short (about 2.5 s on a 2-core VM), so that a
# 30 s run times each input a dozen times and its minimum latency escapes
# the few-second slow spells of a shared host.
REPEATS = 1
SAMPLES = 60
INDEPENDENCE_OPS = 14

# cli-mix: inputs per subcommand per pass.
CLI_INPUTS = 3
FUZZ_COUNT = 3

# Criterion 1's hand-frozen refutation values (lhs, rhs) per refuted axiom.
REFUTATION_VALUES = {
    "F2": (0, 1),
    "F4": (1, 0),
    "F5": (0, 1),
    "F6": (2, 0),
    "F7": (2, 3),
    "F8": (3, 2),
    "F9": (3, 4),
    "F10": (3, 1),
}


def _criterion_2_equations():
    base = eqfscl_axioms()
    return base + [dual_equation(e) for e in base] + cp_axioms() + derived_laws()


def generate(workload: str, seed: int) -> list[dict]:
    """The inputs of one pass of ``workload``; the same seed gives the same list."""
    rng = Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng)


def write_inputs(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True) + "\n")


def read_inputs(path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def leaf_counts(term) -> tuple[int, int]:
    """T- and F-leaves of ``eval_tree(term)``, counted without building it.

    ``p && q`` continues into ``q`` at each T-leaf of ``p``, ``p || q`` at
    each F-leaf, and ``!p`` swaps the two kinds.  A binary tree with ``n``
    leaves has ``n - 1`` nodes, so its size is ``2 * (t + f) - 1``.
    """
    match term:
        case Const(v):
            return (1, 0) if v else (0, 1)
        case Atom():
            return 1, 1
        case Not(p):
            t, f = leaf_counts(p)
            return f, t
        case And(l, r):
            (tl, fl), (tr, fr) = leaf_counts(l), leaf_counts(r)
            return tl * tr, fl + tl * fr
        case Or(l, r):
            (tl, fl), (tr, fr) = leaf_counts(l), leaf_counts(r)
            return tl + fl * tr, fl * fr
    raise TypeError(f"not a closed short-circuit term: {term!r}")


def _tree_size(term) -> int:
    t, f = leaf_counts(term)
    return 2 * (t + f) - 1


def _spread_sample(draw, size, count: int, pool_factor: int) -> list:
    """``count`` items at evenly spaced ranks, by ``size``, of
    ``pool_factor * count`` draws; ``size`` returns None to reject a draw."""
    pool = []
    while len(pool) < count * pool_factor:
        item = draw()
        s = size(item)
        if s is not None:
            pool.append((s, len(pool), item))
    pool.sort(key=lambda entry: entry[:2])
    step = len(pool) / count
    return [pool[int((i + 0.5) * step)][2] for i in range(count)]


def _equiv_check(rng: Random) -> list[dict]:
    def pair(shape):
        return lambda: tuple(
            random_scl_term(rng, max_depth=shape[0], max_size=shape[1]) for _ in range(2)
        )

    def pair_size(terms):
        sizes = [_tree_size(t) for t in terms]
        return None if max(sizes) > LARGE_CUT else sum(sizes)

    axioms = eqfscl_axioms()

    def law_instance():
        eq = rng.choice(axioms)
        closing = random_substitution(rng, sorted(eq.variables), max_depth=4, max_tree=60)
        return substitute(eq.lhs, closing), substitute(eq.rhs, closing), eq.tag

    records = [
        {"op": "eq", "shape": shape, "lhs": lhs, "rhs": rhs, "law": None}
        for shape, dims, count in (("fuzz", FUZZ_SHAPE, FUZZ_PAIRS), ("large", LARGE_SHAPE, LARGE_PAIRS))
        for lhs, rhs in _spread_sample(pair(dims), pair_size, count, POOL_FACTOR)
    ]
    records += [
        {"op": "eq", "shape": "law", "lhs": lhs, "rhs": rhs, "law": tag}
        for lhs, rhs, tag in _spread_sample(law_instance, lambda e: pair_size(e[:2]), LAW_PAIRS, POOL_FACTOR)
    ]
    rng.shuffle(records)
    for record in records:
        record["lhs"], record["rhs"] = format_term(record["lhs"]), format_term(record["rhs"])
    return records


def _canon_invert(rng: Random) -> list[dict]:
    families = (
        ("b4", 4, 2, B4_COUNT, float("inf")),
        ("b8", 8, 1, B8_COUNT, float("inf")),
        ("b16", 16, 1, B16_COUNT, B16_CUT),
    )
    records = []
    for family, budget, max_depth, count, cut in families:

        def rank(term):
            # pure T- or F-trees invert in linear time, so they sort apart
            t, f = leaf_counts(term)
            size = 2 * (t + f) - 1
            return None if size > cut else (t > 0 and f > 0, size)

        terms = _spread_sample(
            lambda: random_snf_term(rng, budget=budget, max_depth=max_depth),
            rank,
            count,
            POOL_FACTOR,
        )
        for index, term in enumerate(terms):
            tree = format_tree(eval_tree(term))
            records.append({"op": "invert", "family": family, "tree": tree, "term": format_term(term)})
            if index % DECOMPOSE_EVERY == DECOMPOSE_EVERY // 2:
                kind = DECOMPOSE_KINDS[(index // DECOMPOSE_EVERY) % len(DECOMPOSE_KINDS)]
                records.append(
                    {"op": "decompose", "family": family, "tree": tree, "kind": kind}
                    | expected_decomposition(tree, kind)
                )
    rng.shuffle(records)
    return records


_T, _F, _HOLE = 1, 2, 4  # leaf kinds present in a subtree, as bits


class _Shapes:
    """The distinct subtrees of one tree as integer ids, read from the
    tree's text without sclkit's tree or decomposition code.

    Ids 0, 1 and 2 are the leaves T, F and the hole; a larger id is a node
    ``(atom, left id, right id)``.  Equal subtrees get equal ids.
    """

    def __init__(self, text: str):
        self.ids: dict[tuple, int] = {}
        self.nodes: list = [None, None, None]
        self.depth = [0, 0, 0]
        self.flags = [_T, _F, _HOLE]
        self.texts = {0: "T", 1: "F", 2: "^"}
        self.first: dict[int, int] = {}  # node id -> its first preorder position
        self._tokens = re.findall(r"<[^>]*>|[()TF^]", text)
        self._at = self._position = 0
        self.root = self._parse()

    def _parse(self) -> int:
        token = self._tokens[self._at]
        position = self._position
        self._at += 1
        self._position += 1
        if token != "(":
            return "TF^".index(token)
        left = self._parse()
        atom = self._tokens[self._at][1:-1]
        self._at += 1
        right = self._parse()
        self._at += 1  # ")"
        i = self.node(atom, left, right)
        # two occurrences of one subtree never nest, so the first to finish
        # is the first in preorder
        self.first.setdefault(i, position)
        return i

    def node(self, atom: str, left: int, right: int) -> int:
        key = (atom, left, right)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.nodes)
            self.nodes.append(key)
            self.depth.append(1 + max(self.depth[left], self.depth[right]))
            self.flags.append(self.flags[left] | self.flags[right])
        return i

    def holed(self, i: int, core: int, memo: dict) -> int:
        """``i`` with every occurrence of ``core`` replaced by the hole."""
        if i == core:
            return 2
        if self.depth[i] <= self.depth[core]:
            return i
        if i not in memo:
            atom, left, right = self.nodes[i]
            memo[i] = self.node(atom, self.holed(left, core, memo), self.holed(right, core, memo))
        return memo[i]

    def within(self, i: int) -> set[int]:
        """The distinct subtrees of ``i``, ``i`` included."""
        seen, stack = set(), [i]
        while stack:
            j = stack.pop()
            if j not in seen:
                seen.add(j)
                if j > 2:
                    stack += self.nodes[j][1:]
        return seen

    def text(self, i: int) -> str:
        if i not in self.texts:
            atom, left, right = self.nodes[i]
            self.texts[i] = f"({self.text(left)} <{atom}> {self.text(right)})"
        return self.texts[i]


def expected_decomposition(tree_text: str, kind: str) -> dict:
    """What ``scl decompose --kind <kind>`` must print for ``tree_text``,
    found by brute force: ``{"stdout": ...}``, or ``{"error": ...}`` when
    two candidates share the least core depth.

    Every distinct subtree with both a T- and an F-leaf is a possible core.
    Its context holes all of its occurrences.  A cd context keeps F-leaves
    but no T-leaf, a dd context T but no F, and a tsd context neither, with
    a core that no proper subtree covers in the same way.  Candidates are
    ordered by core depth, then by the core's first preorder position.
    """
    s = _Shapes(tree_text)
    leaves_kept = {"cd": _F, "dd": _T, "tsd": 0}[kind]
    cores = sorted(
        (i for i in s.first if s.flags[i] & (_T | _F) == _T | _F),
        key=lambda i: (s.depth[i], s.first[i]),
    )

    def covered_by_part(z):
        return any(
            not s.flags[s.holed(z, part, {})] & (_T | _F) for part in s.within(z) - {z}
        )

    found = []
    for core in cores:
        context = s.holed(s.root, core, {})
        if s.flags[context] & (_T | _F) != leaves_kept:
            continue
        if kind == "tsd" and covered_by_part(core):
            continue
        found.append((context, core))
    if len(found) > 1 and s.depth[found[0][1]] == s.depth[found[1][1]]:
        return {"error": "AmbiguousDecomposition"}
    lines = [
        f"candidate {n}: context={s.text(context)} core={s.text(core)}"
        for n, (context, core) in enumerate(found, start=1)
    ]
    if found:
        context, core = found[0]
        lines.append(f"selected: context={s.text(context)} core={s.text(core)}")
    else:
        lines.append("selected: none")
    return {"stdout": "\n".join(lines)}


def _law_check(rng: Random) -> list[dict]:
    records = []
    for _ in range(REPEATS):
        for eq in _criterion_2_equations():
            lhs, rhs = format_term(eq.lhs), format_term(eq.rhs)
            if (parse(lhs, "open"), parse(rhs, "open")) != (eq.lhs, eq.rhs):
                raise RuntimeError(f"{eq.tag} does not survive a text round trip")
            records.append(
                {
                    "op": "free",
                    "tag": eq.tag,
                    "lhs": lhs,
                    "rhs": rhs,
                    "samples": SAMPLES,
                    "seed": rng.getrandbits(32),
                }
            )
    records += [{"op": "independence"} for _ in range(INDEPENDENCE_OPS)]
    rng.shuffle(records)
    return records


# ---- cli-mix: argv per subcommand and the stdout the library gives in-process


def _small_expr(rng: Random) -> str:
    return format_term(random_scl_term(rng, max_depth=4, max_size=14))


def _small_tree(rng: Random) -> str:
    return format_tree(eval_tree(random_snf_term(rng, budget=3, max_depth=2)))


def _expr(text: str):
    return expand_full(parse(text, "enriched"))


CANDIDATE_KIND = {"cd": "ccd", "dd": "cdd", "tsd": "ctsd"}
SELECTOR = {"cd": cd, "dd": dd, "tsd": tsd}


def render_decomposition(candidates, selected) -> str:
    """The text ``scl decompose`` prints."""
    lines = [
        f"candidate {i}: context={format_tree(d.context)} core={format_tree(d.core)}"
        for i, d in enumerate(candidates, start=1)
    ]
    if selected is None:
        lines.append("selected: none")
    else:
        lines.append(
            f"selected: context={format_tree(selected.context)} core={format_tree(selected.core)}"
        )
    return "\n".join(lines)


def _decompose_text(tree_text: str, kind: str) -> str:
    tree = parse_tree(tree_text)
    return render_decomposition(
        enumerate_candidates(tree, CANDIDATE_KIND[kind]), SELECTOR[kind](tree)
    )


def _models_check_text() -> str:
    suite = independence_suite()
    tags = [ax.tag for ax in eqfscl_minus()]
    width = max(len(e.model.name) for e in suite)
    lines = [" ".join([f"{'model':<{width}}"] + [f"{t:>4}" for t in tags])]
    refutations = []
    for entry in suite:
        marks = [
            f"{'ok' if validates(entry.model, ax).valid else 'no':>4}" for ax in eqfscl_minus()
        ]
        lines.append(" ".join([f"{entry.model.name:<{width}}"] + marks))
        lhs = eval_in_model(entry.model, entry.refutation.lhs)
        rhs = eval_in_model(entry.model, entry.refutation.rhs)
        word = "!=" if lhs != rhs else "=="
        refutations.append(
            f"{entry.model.name}: refutes {entry.tag}: {entry.refutation}  [{lhs} {word} {rhs}]"
        )
        if entry.note:
            refutations.append(f"  note: {entry.note}")
    return "\n".join(lines + [""] + refutations + ["", "result: PASS"])


def _fuzz_json(count: int, seed: int) -> dict:
    rng = Random(seed)
    checks = {"normal_form_preserves_tree": 0, "invert_roundtrip": 0, "engines_agree": 0}
    for _ in range(count):
        term = random_scl_term(rng, max_depth=6)
        other = random_scl_term(rng, max_depth=6)
        normal = nf(term)
        checks["normal_form_preserves_tree"] += eval_tree(normal) == eval_tree(term)
        checks["invert_roundtrip"] += invert(eval_tree(normal)) == normal
        verdicts = {decide_eq(term, other, "tree"), decide_eq(term, other, "nf"), decide_eq_cp(term, other)}
        checks["engines_agree"] += len(verdicts) == 1
    passed = all(v == count for v in checks.values())
    return {"checks": checks, "count": count, "failures": [], "pass": passed, "seed": seed}


def _cli_case(name: str, rng: Random) -> dict:
    """One ``scl`` invocation: argv, and the exit code and stdout expected."""
    if name == "se":
        e = _small_expr(rng)
        return {"argv": ["se", e], "code": 0, "stdout": format_tree(eval_tree(_expr(e)))}
    if name == "nf":
        e = _small_expr(rng)
        return {"argv": ["nf", e], "code": 0, "stdout": format_term(nf(_expr(e)))}
    if name == "classify":
        e = format_term(random_snf_term(rng, budget=3, max_depth=2))
        return {"argv": ["classify", e], "code": 0, "stdout": classify(parse(e, "scl")).label}
    if name.startswith("eq-"):
        engine = name[3:]
        lhs, rhs = _small_expr(rng), _small_expr(rng)
        if rng.random() < 0.5:  # half the pairs are equal by construction
            rhs = format_term(nf(_expr(lhs)))
        if engine == "cp":
            equal = decide_eq_cp(_expr(lhs), _expr(rhs))
        else:
            equal = decide_eq(_expr(lhs), _expr(rhs), engine)
        return {
            "argv": ["eq", lhs, rhs, "--engine", engine],
            "code": 0 if equal else 1,
            "stdout": "EQUAL" if equal else "INEQUAL",
        }
    if name == "decompose":
        t = _small_tree(rng)
        kind = rng.choice(DECOMPOSE_KINDS)
        return {"argv": ["decompose", t, "--kind", kind], "code": 0, "stdout": _decompose_text(t, kind)}
    if name == "invert":
        t = _small_tree(rng)
        return {"argv": ["invert", t], "code": 0, "stdout": format_term(invert(parse_tree(t)))}
    if name == "translate":
        e = _small_expr(rng)
        return {"argv": ["translate", e, "--to", "cp"], "code": 0, "stdout": format_term(scl_to_cp(_expr(e)))}
    if name == "basic":
        e = _small_expr(rng)
        return {
            "argv": ["basic", e],
            "code": 0,
            "stdout": format_term(basic_form(scl_to_cp(_expr(e)))),
        }
    if name == "models-check":
        return {"argv": ["models", "check"], "code": 0, "stdout": _models_check_text()}
    if name == "fuzz":
        seed = rng.getrandbits(16)
        expected = _fuzz_json(FUZZ_COUNT, seed)
        return {
            "argv": ["fuzz", "--count", str(FUZZ_COUNT), "--seed", str(seed)],
            "code": 0 if expected["pass"] else 1,
            "json": expected,
        }
    raise ValueError(f"unknown subcommand {name!r}")


CLI_SUBCOMMANDS = (
    "se",
    "nf",
    "classify",
    "eq-tree",
    "eq-nf",
    "eq-cp",
    "decompose",
    "invert",
    "translate",
    "basic",
    "models-check",
    "fuzz",
)


def _cli_mix(rng: Random) -> list[dict]:
    records = []
    for name in CLI_SUBCOMMANDS:
        for _ in range(CLI_INPUTS):
            records.append({"op": "cli", "name": name, **_cli_case(name, rng)})
    rng.shuffle(records)
    return records


_GENERATORS = {
    "equiv-check": _equiv_check,
    "canon-invert": _canon_invert,
    "law-check": _law_check,
    "cli-mix": _cli_mix,
}

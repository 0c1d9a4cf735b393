"""Seeded input generation for the three workloads.

Everything the program receives is produced here, before any timing:
type orders, (y, w) query pairs, and CLI sessions drawn from the
recorded command pool.  The same seed always gives the same inputs.

The CLI pool is the universe of commands a session may contain.  It is
generated once, with a fixed pool seed, by ``build_pool`` and stored
with its reference digests in ``refs.json`` (see ``refs.py``).  A run
draws its session from the stored pool, so every command of every seed
has a recorded reference.
"""

from __future__ import annotations

import itertools
import random

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# kl-tables: full KL basis, queries, save and reload per type.
KL_TYPES = ("B3", "A4", "D4")
KL_QUERIES_PER_TYPE = 200
# Columns per type compared against the bar-invariance oracle.
KL_ORACLE_COLUMNS = 2

# check-all: the whole reconciliation catalogue per type.
CHECK_TYPES = ("A2", "B2", "G2")

# cli-session: commands per (type, kind), 100 in all, so that ten
# samples lie above p90.  A3 holds the body of the latency distribution
# (p50), B3 its upper part (p90) and A4 the top.  The A4 share stays
# small: an A4 command rereads a 98 KB cache in about 1.2 s, and at 4
# of 100 the p90 sits several ranks below the jump from B3 to A4
# latencies.  Moving p90 into the A4 group would take 15 or more A4
# commands, a longer run, and a p90 that spreads more from seed to
# seed.  D4 is left out: every D4 command rereads a 281 KB cache in
# about 3.5 s.  Each type has one "regular" slot (the regular block's
# graded dimensions), so that the warm-up pass leaves that type's full
# table in the cache whatever the seed.
CLI_SLOTS = {
    "A3": {"kl": 13, "decomp": 8, "inverse-decomp": 8, "cartan": 7,
           "vp-dims": 7, "bott-samelson": 6, "translate": 8, "weyl": 6,
           "schubert": 6, "regular": 1},
    "B3": {"kl": 6, "decomp": 3, "inverse-decomp": 3, "cartan": 3,
           "vp-dims": 3, "bott-samelson": 2, "translate": 3, "weyl": 2,
           "regular": 1},
    "A4": {"kl": 1, "cartan": 1, "translate": 1, "regular": 1},
}

# Smoke mode: the same three workloads on tiny types, in seconds.
SMOKE = {
    "kl_types": ("A2", "B2"),
    "check_types": ("A2",),
    "cli_slots": {
        "A2": {"kl": 2, "decomp": 1, "cartan": 1, "translate": 1,
               "schubert": 1, "regular": 1},
        "B2": {"kl": 2, "inverse-decomp": 1, "vp-dims": 1, "weyl": 1,
               "bott-samelson": 1, "regular": 1},
    },
}

POOL_SEED = 20211
# Pool entries generated per (type, kind); sessions sample without
# replacement, so each must be at least the largest slot count.
POOL_PER_KIND = {"kl": 24, "regular": 2}
POOL_DEFAULT = 12
MATRIX_KINDS = ("decomp", "inverse-decomp", "cartan")
# Blocks with 2 to this many Vermas; see _pool_for_type.
MATRIX_MAX_INDEX = 30
# Schubert products and Bott-Samelson words stay small.
SCHUBERT_MAX_LENGTH = 3
BOTT_SAMELSON_MAX_LENGTH = 4


def config(smoke: bool) -> dict:
    if smoke:
        return SMOKE
    return {"kl_types": KL_TYPES, "check_types": CHECK_TYPES, "cli_slots": CLI_SLOTS}


def type_order(types, seed: int, salt: str) -> list[str]:
    """A seeded permutation of a fixed list of types."""
    order = list(types)
    random.Random(f"{salt}:{seed}").shuffle(order)
    return order


def kl_queries(group, seed: int, count: int = KL_QUERIES_PER_TYPE) -> list:
    """Seeded (kind, y word, w word) queries: 'p' asks P_{y,w}, 'mu' asks mu(y,w).

    Pairs are drawn uniformly, so many P queries fall outside the
    Bruhat interval and must answer 0; mu pairs satisfy y < w, as mu
    requires.
    """
    rng = random.Random(f"kl-queries:{group.kind}:{seed}")
    elems = group.elements
    out = []
    while len(out) < count:
        y, w = rng.choice(elems), rng.choice(elems)
        if len(out) % 2:
            if y.length >= w.length or not group.bruhat_leq(y, w):
                continue
            out.append(("mu", y.word, w.word))
        else:
            out.append(("p", y.word, w.word))
    return out


def oracle_columns(group, seed: int, count: int = KL_ORACLE_COLUMNS) -> list:
    """Seeded words of the columns checked against the bar-solve oracle."""
    rng = random.Random(f"kl-oracle:{group.kind}:{seed}")
    return [w.word for w in rng.sample(group.elements, count)]


def cli_session(pool: dict, slots: dict, seed: int) -> list[list[str]]:
    """A seeded session: the slot counts drawn from the pool, shuffled."""
    rng = random.Random(f"cli-session:{seed}")
    session = []
    for kind_type in sorted(slots):
        for kind, count in sorted(slots[kind_type].items()):
            entries = pool[f"{kind_type}/{kind}"]
            session.extend(rng.sample(entries, count))
    rng.shuffle(session)
    return [list(argv) for argv in session]


# -- pool generation (record time only) ------------------------------


def _word(w) -> str:
    return ",".join(map(str, w.word)) if w.length else "e"


def _subset(s) -> str:
    return ",".join(map(str, sorted(s)))


def _subset_flags(I, J) -> list[str]:
    flags = []
    if I:
        flags += ["--I", _subset(I)]
    if J:
        flags += ["--J", _subset(J)]
    return flags


def _format_flags(rng, formats, eval_ok: bool) -> list[str]:
    fmt = rng.choice(formats)
    flags = [] if fmt == "table" else ["--format", fmt]
    if eval_ok and fmt != "csv" and rng.random() < 0.25:
        flags += ["--eval-v", str(rng.choice((-1, 1, 2)))]
    return flags


def _pool_for_type(kind: str, names, rng: random.Random) -> dict[str, list[list[str]]]:
    from klblocks.weyl import weyl_group_of_kind

    group = weyl_group_of_kind(kind)
    rank = group.rank
    subsets = [
        frozenset(c) for k in range(rank + 1)
        for c in itertools.combinations(range(1, rank + 1), k)
    ]
    # Subset pairs whose block has 2 to MATRIX_MAX_INDEX Vermas: a
    # Cartan matrix costs the cube of that, and the bound keeps the
    # commands of one kind at a similar cost.
    block_pairs = [
        (I, J) for I in subsets for J in subsets
        if 2 <= len(group.double_quotient(I, J)) <= MATRIX_MAX_INDEX
    ]
    elems = group.elements
    nonidentity = elems[1:]
    base = ["--type", kind]

    def unique(make, count):
        seen, out = set(), []
        for _ in range(count * 50):
            argv = tuple(make())
            if argv not in seen:
                seen.add(argv)
                out.append(list(argv))
            if len(out) == count:
                break
        return out

    def kl():
        w = rng.choice(nonidentity)
        below = [y for y in elems if group.bruhat_leq(y, w)]
        y = rng.choice(below)
        fmt = ["--format", "json"] if rng.random() < 0.25 else []
        return ["kl", *base, "--y", _word(y), "--w", _word(w), *fmt]

    def matrix(name):
        def make():
            I, J = rng.choice(block_pairs)
            return [name, *base, *_subset_flags(I, J),
                    *_format_flags(rng, ("table", "json", "csv"), True)]
        return make

    def regular():
        return ["vp-dims", *base, *_format_flags(rng, ("table", "json"), False)]

    def vp_dims():
        J = rng.choice([s for s in subsets if s])
        return ["vp-dims", *base, *_subset_flags((), J),
                *_format_flags(rng, ("table", "json"), False)]

    def bott_samelson():
        w = rng.choice([w for w in nonidentity if w.length <= BOTT_SAMELSON_MAX_LENGTH])
        return ["bott-samelson", *base, "--word", _word(w),
                *_format_flags(rng, ("table", "json"), False)]

    def translate():
        J = rng.choice([s for s in subsets if s])
        x = rng.choice(group.min_coset_reps(J))
        return ["translate", *base, *_subset_flags((), J), "--x", _word(x),
                *_format_flags(rng, ("table", "json"), False)]

    def weyl():
        I, J = rng.choice(subsets), rng.choice(subsets)
        return ["weyl", *base, *_subset_flags(I, J),
                *_format_flags(rng, ("table", "json"), False)]

    def schubert():
        small = [w for w in elems if w.length <= SCHUBERT_MAX_LENGTH]
        x, y = rng.choice(small), rng.choice(small)
        return ["schubert", *base, "--x", _word(x), "--y", _word(y),
                *_format_flags(rng, ("table", "json"), False)]

    makers = {
        "kl": kl, "regular": regular, "vp-dims": vp_dims,
        "bott-samelson": bott_samelson, "translate": translate,
        "weyl": weyl, "schubert": schubert,
        **{name: matrix(name) for name in MATRIX_KINDS},
    }
    return {
        f"{kind}/{name}": unique(makers[name], POOL_PER_KIND.get(name, POOL_DEFAULT))
        for name in names
    }


def build_pool() -> dict[str, list[list[str]]]:
    """Every command a session may draw, keyed by 'type/kind'."""
    rng = random.Random(POOL_SEED)
    pool = {}
    for slots in (CLI_SLOTS, SMOKE["cli_slots"]):
        for kind, kinds in slots.items():
            pool.update(_pool_for_type(kind, sorted(kinds), rng))
    return pool

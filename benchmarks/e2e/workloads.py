"""The four workloads: datasets, query pools, seeded request sequences.

A workload is a *fixed traffic mix*: a pool of queries and of rows to
insert (built from the dataset with a fixed pool seed) and how often
each query is asked.  Golden answers for a pool therefore hold for
every ``--seed``.  The seed decides the order requests arrive in (a
fresh order for every pass).  It does not decide the inserted rows:
which authors and venues the new papers link to moved a topic query's
cost by 20%, and ``search_p50_ms`` of the insert workload by 27%
between seeds.

The Zipf mix gives every query its expected number of requests
(largest-remainder rounding) instead of sampling them: with 80 queries
whose cost spans three orders of magnitude, one more or one fewer
400 ms query per pass moved p90 by 47% and throughput by 17% between
seeds.  What is left between seeds is arrival order and machine noise.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, List, Sequence, Tuple

from repro.datasets import words
from repro.index.text import tokenize

from child import build_db

POOL_SEED = 11

#: name -> front end, dataset, closed-loop clients in the read phase.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "http_search_zipf": {"front": "http", "dataset": "biblio-150", "clients": 2},
    "lib_methods_grid": {"front": "lib", "dataset": "biblio-300", "clients": 1},
    "lib_warm_zipf": {"front": "lib", "dataset": "biblio-150", "clients": 1},
    "http_insert_search": {"front": "http", "dataset": "biblio-150", "clients": 1},
}

#: Ops per pass at full size; ``--smoke`` runs a quarter.
ZIPF_DISTINCT = 80
HTTP_ZIPF_REQUESTS = 100
WARM_HITS = 20_000
WARM_BATCH = 5_000
GRID_QUERIES = 20
GRID_METHODS = ("index_only", "banks", "banks2", "steiner", "ease")
GRID_DISTINCT_ROOT = 4
INSERT_SEARCHES = 100
#: One (paper, write) pair before every 2nd search: the interleaved
#: inserts are a quarter of the workload's inserts, so ``insert_p90_ms``
#: falls in the middle of them (an insert beside reads patches warm
#: substrates and costs twice a burst insert), not on the edge
#: between them and the burst.
INSERT_EVERY = 2
#: (paper, write) pairs in the insert burst: ``http_insert_search``
#: bursts before its searches, the other workloads after theirs.
BURST_PAIRS = {True: 150, False: 100}

#: Topic words the inserted titles draw from; the interleaved searches
#: query the same words, so their answers move as inserts land.
INSERT_TOPICS = (
    "privacy", "provenance", "skyline", "spatial", "temporal", "workflow",
    "probabilistic", "uncertain", "clustering", "scalability", "benchmark", "cache",
)
#: The topic pairs inserted titles carry, each topic in two of them.
#: Pair *i* of a phase has shape ``i % 12``; inserts of one phase, table
#: and shape differ only in their ids and unique token and are samples
#: of one op (see :func:`op_id`).
INSERT_SHAPES = tuple(
    (INSERT_TOPICS[s], INSERT_TOPICS[(s + 5) % len(INSERT_TOPICS)])
    for s in range(len(INSERT_TOPICS))
)


def search_op(text: str, method: str = "schema", use_cache: bool = False,
              inserts_before: int = 0) -> List[Any]:
    """``["s", text, method, use_cache, key]``; *key* names the golden
    answer: the database state (inserts so far) plus method and text."""
    return ["s", text, method, use_cache, f"{inserts_before}#{method}|{text}"]


def op_id(op: Sequence[Any]) -> str:
    """Identity of an op across passes: samples of one id are pooled.

    A search is its method and text whatever the database state (on the
    insert workload the state moves by 8% over the phase; pooling over
    it gives each query 3-40 samples instead of 3).  An insert is its
    phase, table and shape: a row goes in once per pass, and three
    samples do not see through a slow spell, 25-50 do.
    """
    return op[4].split("#", 1)[1] if op[0] == "s" else op[4]


def unique_token(i: int) -> str:
    """Token only paper *i* carries.  Hashed, not ``benchtok<i>``: the
    query cleaner's spelling-candidate search costs ~6 ms per query
    once the vocabulary holds a few hundred tokens one edit apart."""
    return "bt" + hashlib.md5(str(i).encode()).hexdigest()[:10]


# ----------------------------------------------------------------------
# Pools (fixed per workload)
# ----------------------------------------------------------------------
def _paper_facts(db) -> List[Dict[str, Any]]:
    """Per paper: its topic words, its authors' names, its venue."""
    topic = set(words.TOPIC_WORDS)
    authors: Dict[int, List[str]] = {}
    for w in db.rows("write"):
        authors.setdefault(w["pid"], []).append(db.table("author").by_key(w["aid"])["name"])
    facts = []
    for p in db.rows("paper"):
        facts.append(
            {
                "topics": [t for t in dict.fromkeys(tokenize(p["title"])) if t in topic],
                "authors": authors.get(p["pid"], []),
                "venue": db.table("conference").by_key(p["cid"])["name"],
            }
        )
    return facts


def zipf_pool(db, n: int = ZIPF_DISTINCT) -> List[str]:
    """``n`` distinct 1-3 keyword queries that each have an answer.

    Keywords come from the topic / last-name / first-name / venue pools
    and are taken from one paper's own title, authors and venue, so a
    joining network exists for every query.  Rank = position.
    """
    rng = random.Random(POOL_SEED)
    facts = [f for f in _paper_facts(db) if f["topics"] and f["authors"]]
    shapes = (
        ("topic",), ("last",), ("venue",),
        ("topic", "topic"), ("last", "topic"), ("first", "topic"),
        ("venue", "topic"), ("first", "last"),
        ("topic", "topic", "last"), ("venue", "topic", "last"),
    )
    pool: List[str] = []
    while len(pool) < n:
        fact = rng.choice(facts)
        first, last = rng.choice(fact["authors"]).split()
        topics = rng.sample(fact["topics"], min(2, len(fact["topics"])))
        parts = {"first": first, "last": last, "venue": fact["venue"]}
        kws, left = [], list(topics)
        for part in rng.choice(shapes):
            if part == "topic":
                if not left:
                    break
                kws.append(left.pop())
            else:
                kws.append(parts[part])
        else:
            text = " ".join(kws)
            if text not in pool:
                pool.append(text)
    return pool


def grid_pool(db) -> Tuple[List[str], List[str]]:
    """20 two-keyword queries for the graph methods, 4 selective ones
    (a rare last name plus a topic of that author's paper) for
    ``distinct_root``, whose cost grows with the keyword groups."""
    rng = random.Random(POOL_SEED)
    facts = [f for f in _paper_facts(db) if len(f["topics"]) >= 2 and f["authors"]]
    two: List[str] = []
    while len(two) < GRID_QUERIES:
        fact = rng.choice(facts)
        if len(two) % 2:
            text = " ".join(rng.sample(fact["topics"], 2))
        else:
            text = f"{rng.choice(fact['authors']).split()[1]} {rng.choice(fact['topics'])}"
        if text not in two:
            two.append(text)
    last_count: Dict[str, int] = {}
    for a in db.rows("author"):
        last = a["name"].split()[1]
        last_count[last] = last_count.get(last, 0) + 1
    selective: List[str] = []
    for fact in facts:
        for name in fact["authors"]:
            last = name.split()[1]
            if last_count[last] == 1:
                text = f"{last} {fact['topics'][-1]}"
                if text not in selective:
                    selective.append(text)
    rng.shuffle(selective)
    return two, selective[:GRID_DISTINCT_ROOT]


def insert_query_pool(db) -> List[str]:
    """Searches for the insert workload: the inserted topic words alone
    and joined with a venue or a last name from the base data."""
    rng = random.Random(POOL_SEED)
    lasts = sorted({a["name"].split()[1] for a in db.rows("author")})
    venues = sorted({c["name"] for c in db.rows("conference")})
    pool = list(INSERT_TOPICS)
    for topic in INSERT_TOPICS:
        pool.append(f"{topic} {rng.choice(venues)}")
        pool.append(f"{rng.choice(lasts)} {topic}")
    return pool


# ----------------------------------------------------------------------
# Sequences
# ----------------------------------------------------------------------
def zipf_counts(n_items: int, n: int, s: float = 1.0) -> List[int]:
    """How many of ``n`` requests each rank gets under Zipf(s):
    the expected count, rounded by largest remainder."""
    weights = [1.0 / (rank ** s) for rank in range(1, n_items + 1)]
    total = sum(weights)
    exact = [n * w / total for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(n_items), key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    return counts


def zipf_mix(pool: Sequence[str], n: int) -> List[str]:
    return [q for q, c in zip(pool, zipf_counts(len(pool), n)) for _ in range(c)]


def insert_pairs(db, start: int, count: int, phase: str = "burst") -> List[List[Any]]:
    """``count`` (paper, write) insert pairs numbered from ``start``:
    ``["i", table, values, None, key]``, *key* being the op's identity.

    Paper *i* carries its unique token plus the two topic words of its
    shape; it appears at an existing venue and its write row links it
    to an existing author, both drawn with the pool seed.  Ids start
    far above the generated data.
    """
    n_conf = len(db.table("conference"))
    n_auth = len(db.table("author"))
    ops: List[List[Any]] = []
    for n, i in enumerate(range(start, start + count)):
        rng = random.Random(f"{POOL_SEED}:row{i}")
        shape = n % len(INSERT_SHAPES)
        a, b = INSERT_SHAPES[shape]
        paper = {
            "pid": 100_000 + i,
            "title": f"{unique_token(i)} {a} {b}",
            "abstract": None,
            "cid": rng.randrange(n_conf),
        }
        write = {"wid": 100_000 + i, "aid": rng.randrange(n_auth), "pid": 100_000 + i}
        ops.append(["i", "paper", paper, None, f"{phase}|paper|{shape}"])
        ops.append(["i", "write", write, None, f"{phase}|write|{shape}"])
    return ops


def scaled(n: int, smoke: bool) -> int:
    return max(4, n // 4) if smoke else n


class Plan:
    """Everything one run of a workload sends, generated from the seed.

    ``read`` is the workload's own phase.  ``burst`` is a burst of
    (paper, write) inserts that every workload carries: before the
    reads on ``http_insert_search`` (so its searches run on the grown
    database), after them and half as long elsewhere (so the reads see
    exactly the pool's golden database).  README.md says why every
    workload writes.
    """

    def __init__(self, workload: str, seed: int, smoke: bool = False):
        spec = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.front = spec["front"]
        self.dataset = spec["dataset"]
        self.clients = spec["clients"]
        self.burst_first = workload == "http_insert_search"
        self.db = build_db(self.dataset)
        self.rows = {
            name: len(self.db.table(name)) for name in self.db.schema.table_names
        }
        rng = random.Random(f"{workload}:{seed}")
        self.batch: List[List[Any]] = []  # lib_warm_zipf: search_many ops
        self.warm: List[List[Any]] = []  # untimed cache-filling ops
        burst = insert_pairs(self.db, 0, scaled(BURST_PAIRS[self.burst_first], smoke))
        # All papers, then all writes (each write's paper exists by then).
        self.burst = [op for op in burst if op[1] == "paper"]
        self.burst += [op for op in burst if op[1] == "write"]
        self.read: List[List[Any]] = getattr(self, "_" + workload)(rng)

    def read_ops(self, pass_index: int) -> List[List[Any]]:
        """The read phase in this pass's arrival order.

        Read-only mixes arrive in a fresh seeded order every pass, so a
        query's samples come from different neighbours and warm-up
        states.  The insert workload keeps its order: each search's
        golden answer depends on the inserts before it.
        """
        if self.burst_first:
            return self.read
        ops = list(self.read)
        random.Random(f"{self.workload}:{self.seed}:pass{pass_index}").shuffle(ops)
        return ops

    def pool_ops(self) -> List[List[Any]]:
        """Every query of a read-only workload's pool, once, uncached."""
        if self.workload == "lib_methods_grid":
            two, selective = grid_pool(self.db)
            ops = [search_op(q, m) for q in two for m in GRID_METHODS]
            return ops + [search_op(q, "distinct_root") for q in selective]
        return [search_op(q) for q in zipf_pool(self.db)]

    # -- per-workload read phases --------------------------------------
    def _http_search_zipf(self, rng: random.Random) -> List[List[Any]]:
        mix = zipf_mix(zipf_pool(self.db), scaled(HTTP_ZIPF_REQUESTS, self.smoke))
        return [search_op(q) for q in mix]

    def _lib_methods_grid(self, rng: random.Random) -> List[List[Any]]:
        two, selective = grid_pool(self.db)
        if self.smoke:
            two, selective = two[: GRID_QUERIES // 4], selective[:1]
        ops = [search_op(q, m) for q in two for m in GRID_METHODS]
        return ops + [search_op(q, "distinct_root") for q in selective]

    def _lib_warm_zipf(self, rng: random.Random) -> List[List[Any]]:
        pool = zipf_pool(self.db)
        self.warm = [search_op(q, use_cache=True) for q in pool]
        self.batch = [
            search_op(q, use_cache=True)
            for q in zipf_mix(pool, scaled(WARM_BATCH, self.smoke))
        ]
        rng.shuffle(self.batch)
        return [
            search_op(q, use_cache=True)
            for q in zipf_mix(pool, scaled(WARM_HITS, self.smoke))
        ]

    def _http_insert_search(self, rng: random.Random) -> List[List[Any]]:
        """Searches with one (paper, write) pair before every 2nd."""
        n_search = scaled(INSERT_SEARCHES, self.smoke)
        searches = zipf_mix(insert_query_pool(self.db), n_search)
        rng.shuffle(searches)
        n_pairs = (n_search + INSERT_EVERY - 1) // INSERT_EVERY
        pairs = insert_pairs(self.db, len(self.burst) // 2, n_pairs, "read")
        ops: List[List[Any]] = []
        inserted = len(self.burst)
        for j, text in enumerate(searches):
            if j % INSERT_EVERY == 0:
                ops += pairs[2 * (j // INSERT_EVERY): 2 * (j // INSERT_EVERY) + 2]
                inserted += 2
            ops.append(search_op(text, inserts_before=inserted))
        return ops

    # -- durability check ------------------------------------------------
    def findable_op(self, insert_op: Sequence[Any]) -> List[Any]:
        """The search that must return an acknowledged insert's tuple.

        A paper is found by its unique token via ``index_only``.  A
        write row has no text, so it is found as the middle of the
        author-write-paper tree ``banks`` returns for ``<token> <last
        name>`` (an order of magnitude cheaper than ``schema``).
        """
        table, values = insert_op[1], insert_op[2]
        token = unique_token(values["pid"] - 100_000)
        if table == "paper":
            return search_op(token, "index_only")
        author = self.db.table("author").by_key(values["aid"])
        return search_op(f"{token} {author['name'].split()[1]}", "banks")

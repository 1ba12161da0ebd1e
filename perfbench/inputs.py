"""Seeded input generators for the four benchmark workloads.

The generators live in the benchmark, not in ``repro.datagen``, so a
change to the program's own data generator cannot change what the
benchmark measures.  Every size is fixed per workload; the seed only
changes content (names, typos, uncertainty, which block a batch hits),
so two seeds give the same tuple and pair counts for the full and
session workloads and nearly equal ones for the blocked workloads.

Values are drawn from syllable words, so similar-but-unequal strings
(typos of one entity's name) are common, which is what the
Jaro–Winkler kernels and the Eq-5 expectation spend their time on.
"""

from __future__ import annotations

import json
import random

from repro.pdb.io import encode_xtuple
from repro.pdb.relations import XRelation
from repro.pdb.xtuples import TupleAlternative, XTuple

SCHEMA = ("name", "job")

CONSONANTS = "bcdfghjklmnprstvwz"
VOWELS = "aeiou"

#: Job vocabulary: 36 jobs over 12 initials, so name/job-initial blocks
#: stay numerous and small.
JOBS = (
    "baker", "barber", "butcher", "carpenter", "cashier", "chemist",
    "dentist", "designer", "driver", "farmer", "fisher", "florist",
    "gardener", "glazier", "guard", "lawyer", "librarian", "locksmith",
    "mason", "mechanic", "miner", "nurse", "notary", "novelist",
    "painter", "pilot", "plumber", "roofer", "runner", "ranger",
    "tailor", "teacher", "tiler", "welder", "weaver", "writer",
)


def word(rng: random.Random, initial: str | None = None) -> str:
    """A pronounceable lower-case word of 3–5 syllables."""
    syllables = [
        rng.choice(CONSONANTS) + rng.choice(VOWELS)
        for _ in range(rng.randint(3, 5))
    ]
    text = "".join(syllables)
    if initial is not None:
        text = initial + text[1:]
    return text


def typo(rng: random.Random, text: str) -> str:
    """One substitution, deletion or transposition past the initial."""
    if len(text) < 4:
        return text + rng.choice(VOWELS)
    position = rng.randint(1, len(text) - 2)
    kind = rng.randrange(3)
    if kind == 0:
        return text[:position] + rng.choice(VOWELS) + text[position + 1 :]
    if kind == 1:
        return text[:position] + text[position + 1 :]
    return (
        text[:position] + text[position + 1] + text[position]
        + text[position + 2 :]
    )


def uncertain(rng: random.Random, value: str, variant: str, share: float):
    """``value`` as-is, or a two-outcome distribution with *share* odds."""
    if rng.random() >= share or variant == value:
        return value
    first = rng.choice((0.5, 0.6, 0.7, 0.8))
    return {value: first, variant: round(1.0 - first, 1)}


def alternative_masses(rng: random.Random, count: int) -> list[float]:
    """Probabilities of *count* alternatives; one in ten is a maybe."""
    total = 10 if rng.random() >= 0.1 else 9
    cuts = sorted(rng.sample(range(1, total), count - 1))
    bounds = [0, *cuts, total]
    return [(bounds[i + 1] - bounds[i]) / 10 for i in range(count)]


def alternative_counts(
    rng: random.Random, count: int, max_alternatives: int
) -> list[int]:
    """Alternatives per tuple for *count* tuples, in exact proportions.

    Every run of ten consecutive tuples holds five with one alternative,
    three with two and two with three (capped at *max_alternatives*),
    shuffled within the ten.  Only that order depends on the seed, so
    the k × l cells per pair, of the whole relation and of every plan
    partition of consecutive tuples, do not drift between seeds.
    """
    counts: list[int] = []
    while len(counts) < count:
        group = [
            min(k, max_alternatives) for k in (1, 1, 1, 1, 1, 2, 2, 2, 3, 3)
        ]
        rng.shuffle(group)
        counts.extend(group)
    return counts[:count]


def record(
    rng: random.Random,
    tuple_id: str,
    name: str,
    job: str,
    *,
    alternatives: int,
    uncertainty: float,
) -> XTuple:
    """One x-tuple of an entity, with typos and uncertain values."""
    rows = []
    for probability in alternative_masses(rng, alternatives):
        alt_name = name if rng.random() < 0.6 else typo(rng, name)
        alt_job = job if rng.random() < 0.8 else rng.choice(JOBS)
        rows.append(
            TupleAlternative(
                {
                    "name": uncertain(
                        rng, alt_name, typo(rng, alt_name), uncertainty
                    ),
                    "job": uncertain(
                        rng, alt_job, rng.choice(JOBS), uncertainty
                    ),
                },
                probability,
            )
        )
    return XTuple(tuple_id, rows)


def entity_records(
    rng: random.Random,
    count: int,
    prefix: str,
    *,
    max_alternatives: int,
    uncertainty: float,
    initials: str | None = None,
) -> list[XTuple]:
    """Exactly *count* x-tuples; about 40% of entities get 2–3 records."""
    entities: list[tuple[str, str]] = []
    while len(entities) < count:
        initial = rng.choice(initials) if initials else None
        name, job = word(rng, initial), rng.choice(JOBS)
        copies = 1 if rng.random() >= 0.4 else rng.randint(2, 3)
        entities.append((name, job))
        entities.extend((typo(rng, name), job) for _ in range(copies - 1))
    entities = entities[:count]
    # Records of one entity must not sit next to each other on disk.
    rng.shuffle(entities)
    shapes = alternative_counts(rng, count, max_alternatives)
    return [
        record(
            rng,
            f"{prefix}{position:05d}",
            name,
            job,
            alternatives=shapes[position],
            uncertainty=uncertainty,
        )
        for position, (name, job) in enumerate(entities)
    ]


def exact_json_bytes(tuples) -> int:
    """Bytes of the tuples' exact-codec JSON, one compact line each."""
    return sum(
        len(
            json.dumps(
                encode_xtuple(xtuple, exact=True), separators=(",", ":")
            ).encode("utf-8")
        )
        + 1
        for xtuple in tuples
    )


# ----------------------------------------------------------------------
# Per-workload inputs
# ----------------------------------------------------------------------

#: dense_full: x-tuples with up to 3 alternatives, full comparison.
DENSE_TUPLES = 80


def dense_relation(seed: int) -> XRelation:
    rng = random.Random(f"dense_full/{seed}")
    return XRelation(
        "dense",
        SCHEMA,
        entity_records(
            rng, DENSE_TUPLES, "d", max_alternatives=3, uncertainty=0.25
        ),
    )


#: spilled_stream: a flat (one-alternative) relation, 2 pages of 64
#: tuples against 968 tuples on disk (13% of the relation fits).
SPILLED_TUPLES = 968
SPILLED_PAGE_SIZE = 64
SPILLED_MAX_PAGES = 2


def spilled_relation(seed: int) -> XRelation:
    rng = random.Random(f"spilled_stream/{seed}")
    return XRelation(
        "spilled",
        SCHEMA,
        entity_records(
            rng, SPILLED_TUPLES, "s", max_alternatives=1, uncertainty=0.2,
            initials=CONSONANTS[:16],
        ),
    )


#: parallel_consolidate: sources A and B share a giant block ("b") of
#: multi-alternative tuples with planted cross-source duplicates and
#: small blocks over eleven more initials; source C uses disjoint
#: initials only, so zone maps prune it before any fetch.
GIANT_PER_SOURCE = 70
SMALL_PER_SOURCE = 110
SHARED_INITIALS = "cdfghjklmnp"
DISJOINT_INITIALS = "rstvwz"
DISJOINT_TUPLES = 150


def consolidation_sources(seed: int) -> list[XRelation]:
    rng = random.Random(f"parallel_consolidate/{seed}")
    left: list[XTuple] = []
    right: list[XTuple] = []
    left_shapes = alternative_counts(rng, GIANT_PER_SOURCE, 3)
    right_shapes = alternative_counts(rng, GIANT_PER_SOURCE, 3)
    for index in range(GIANT_PER_SOURCE):
        name, job = word(rng, "b"), rng.choice(JOBS)
        left.append(record(rng, f"a{index:05d}", name, job,
                           alternatives=left_shapes[index],
                           uncertainty=0.25))
        # Half of B's giant block duplicates A's entities.
        if rng.random() < 0.5:
            name = typo(rng, name)
        else:
            name, job = word(rng, "b"), rng.choice(JOBS)
        right.append(record(rng, f"b{index:05d}", name, job,
                            alternatives=right_shapes[index],
                            uncertainty=0.25))
    for prefix, tuples in (("a", left), ("b", right)):
        small = entity_records(
            rng, SMALL_PER_SOURCE, f"{prefix}s", max_alternatives=2,
            uncertainty=0.2, initials=SHARED_INITIALS,
        )
        tuples.extend(small)
        # The giant block keeps the plan's first partition in every
        # seed, so the first streamed slice always waits on the skew.
        head = tuples[0]
        rest = tuples[1:]
        rng.shuffle(rest)
        tuples[:] = [head, *rest]
    disjoint = entity_records(
        rng, DISJOINT_TUPLES, "c", max_alternatives=2, uncertainty=0.2,
        initials=DISJOINT_INITIALS,
    )
    return [
        XRelation("source_a", SCHEMA, left),
        XRelation("source_b", SCHEMA, right),
        XRelation("source_c", SCHEMA, disjoint),
    ]


#: durable_ingest: 16 blocks of 20 flat tuples; every batch touches one
#: block with 2 upserts, 1 insert and 1 delete, so block sizes (and the
#: pairs per refresh) stay fixed across the run.
SESSION_BLOCKS = "bcdfghjklmnprstv"
SESSION_BLOCK_SIZE = 20
SESSION_INGESTS = 100


def _flat(tuple_id: str, name: str, job) -> XTuple:
    return XTuple(tuple_id, (TupleAlternative({"name": name, "job": job},
                                              1.0),))


def session_base(seed: int) -> XRelation:
    rng = random.Random(f"durable_ingest/{seed}")
    tuples = []
    for block, letter in enumerate(SESSION_BLOCKS):
        for index in range(SESSION_BLOCK_SIZE):
            tuples.append(
                _flat(
                    f"k{block:02d}{index:04d}",
                    word(rng, letter),
                    uncertain(rng, rng.choice(JOBS), rng.choice(JOBS), 0.2),
                )
            )
    return XRelation("session", SCHEMA, tuples)


def session_batches(seed: int, base: XRelation, count: int):
    """*count* ``(upserts, deletes)`` batches, replayable from *seed*.

    Tracks block membership so that every delete names a live tuple
    and every block keeps exactly its starting size.
    """
    rng = random.Random(f"durable_ingest/batches/{seed}")
    members: dict[str, list[str]] = {letter: [] for letter in SESSION_BLOCKS}
    names: dict[str, str] = {}
    for xtuple in base:
        name = xtuple.alternatives[0].value("name").certain_value
        members[name[0]].append(xtuple.tuple_id)
        names[xtuple.tuple_id] = name
    batches = []
    for serial in range(count):
        letter = rng.choice(SESSION_BLOCKS)
        block = members[letter]
        upserts = []
        for tuple_id in rng.sample(block, 2):
            # Half the rewrites become near-duplicates of a block mate.
            source = names[rng.choice(block)]
            name = typo(rng, source) if rng.random() < 0.5 else word(
                rng, letter
            )
            names[tuple_id] = name
            upserts.append(_flat(tuple_id, name, rng.choice(JOBS)))
        new_id = f"n{serial:05d}"
        name = word(rng, letter)
        names[new_id] = name
        upserts.append(_flat(new_id, name, rng.choice(JOBS)))
        victim = rng.choice(block)
        block.remove(victim)
        block.append(new_id)
        batches.append((upserts, [victim]))
    return batches

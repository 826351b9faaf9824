"""Seeded workload generator for the extraction benchmark.

One call to :func:`generate` turns a workload definition and a seed into
four artefacts:

* ``ontology.json``  the event types (3-6 roles each, mixed value types
  and multiplicities), handed to the program;
* ``corpus.jsonl``   documents with gold trigger and argument spans,
  handed to the program;
* ``plan.json``      the per-document reply plan the stub backend serves
  (planning replies, coding replies per hypothesis, judge verdicts,
  retrieval sentences per type);
* ``expected.jsonl`` the prediction line the pipeline must write for
  every document it does not skip.

The same (workload, seed) pair always yields byte-identical files.  The
share of each document kind is fixed per workload, so call counts per
document do not move with the seed; only names, values and lengths do.

Invariants the stub relies on to classify requests by content:

* every document text contains exactly one ``$`` followed by an amount
  unique within the corpus, and no other artefact contains ``$``;
* event type names are CamelCase pairs, none a substring of another, and
  never appear in document texts or exemplar sentences;
* role names are hyphenated, so they never occur in document texts;
* no document text, exemplar sentence or value contains a quote.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Document kinds.  Each names the reply plan of its correct hypothesis.
CLEAN = "clean"              # first coding attempt verifies
T2_PATCH = "t2_patch"        # first attempt fails T2, the patch verifies
T3_PATCH = "t3_patch"        # first attempt does not parse (T3), the patch verifies
BACKTRACK = "backtrack"      # a wrong top hypothesis is rejected by the judge on every attempt
PLANNING_RETRY = "planning_retry"  # first planning reply is prose; the retry is valid
EMPTY_CODE = "empty_code"    # first coding reply is empty; the next one is correct


@dataclass(frozen=True)
class Workload:
    types: int
    docs: int
    workers: int
    mode: str
    latency: bool
    mix: dict = field(default_factory=dict)  # kind -> share of documents

    def kind_counts(self) -> dict:
        """Exact number of documents of each kind (largest remainder)."""
        raw = {kind: share * self.docs for kind, share in self.mix.items()}
        counts = {kind: int(value) for kind, value in raw.items()}
        leftover = self.docs - sum(counts.values())
        for kind in sorted(raw, key=lambda k: (counts[k] - raw[k], k))[:leftover]:
            counts[kind] += 1
        return counts


STRICT_MIX = {CLEAN: 4 / 6, T2_PATCH: 1 / 6, T3_PATCH: 1 / 6}

# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    "wide_ontology": Workload(
        types=200, docs=24, workers=2, mode="strict", latency=True, mix=STRICT_MIX,
    ),
    "refine_llm": Workload(
        types=20, docs=150, workers=2, mode="llm", latency=True,
        mix={CLEAN: 55 / 150, T2_PATCH: 30 / 150, T3_PATCH: 15 / 150, BACKTRACK: 25 / 150,
             PLANNING_RETRY: 20 / 150, EMPTY_CODE: 5 / 150},
    ),
    "fast_backend": Workload(
        types=200, docs=150, workers=1, mode="strict", latency=False, mix=STRICT_MIX,
    ),
}

_PREFIXES = (
    "Cargo", "Border", "Data", "Market", "Harbor", "Grain", "Rail", "Bank", "Power", "Water",
    "Court", "Labor", "Trade", "Mining", "Fuel", "Media", "Health", "Police", "Tax", "Ocean",
)
_SUFFIXES = {
    "Seizure": ("seized", "confiscated", "impounded"),
    "Breach": ("breached", "compromised", "infiltrated"),
    "Merger": ("merged", "acquired", "absorbed"),
    "Strike": ("struck", "walked out", "halted"),
    "Closure": ("closed", "shuttered", "sealed"),
    "Recall": ("recalled", "withdrew", "pulled"),
    "Audit": ("audited", "inspected", "reviewed"),
    "Protest": ("protested", "rallied", "marched"),
    "Ruling": ("ruled", "decided", "overturned"),
    "Outage": ("failed", "collapsed", "went dark"),
}

_ORGS = (
    "Norland Shipping", "Velmora Holdings", "Castell Group", "Brightwater Mills", "Oakridge Energy",
    "Tessaro Labs", "Kinloch Freight", "Amberline Bank", "Ridgeway Foods", "Solace Telecom",
    "Harrow Metals", "Quillon Media", "Westmark Rail", "Pinecrest Health", "Ostrava Mining",
)
_CITIES = (
    "Lisbon", "Gdansk", "Rotterdam", "Valencia", "Tampere", "Porto", "Bergen", "Trieste",
    "Antwerp", "Malmo", "Cork", "Genoa", "Split", "Tallinn", "Riga",
)
_PEOPLE = (
    "Maria Okafor", "Jonas Lind", "Priya Raman", "Tomas Berg", "Elena Costa", "Samuel Reyes",
    "Ingrid Holm", "Kenji Mori", "Amara Diallo", "Lucas Weber", "Nadia Petrova", "Owen Clarke",
)
_ITEMS = (
    "grain containers", "customer records", "diesel shipments", "server racks", "medical supplies",
    "steel coils", "fishing vessels", "payment terminals", "rail cars", "transformer units",
)
_CAUSES = (
    "a safety review", "a tax dispute", "heavy flooding", "a software fault", "a labor dispute",
    "a court order", "a fuel shortage", "an anonymous tip",
)
_AGENCIES = (
    "the port authority", "the national regulator", "the customs office", "the labor ministry",
    "the city council", "the energy agency", "the transport board",
)

# name -> (value type, phrase with {v}, value pool or None for numbers)
_ROLE_POOL = {
    "agent-org": ("string", "with {v} named as responsible", _ORGS),
    "victim-org": ("string", "affecting {v}", _ORGS),
    "site-city": ("string", "near {v}", _CITIES),
    "lead-official": ("string", "according to {v}", _PEOPLE),
    "asset-item": ("string", "involving {v}", _ITEMS),
    "partner-firm": ("string", "alongside {v}", _ORGS),
    "cause-factor": ("string", "after {v}", _CAUSES),
    "source-agency": ("string", "as stated by {v}", _AGENCIES),
    "staff-count": ("integer", "involving {v} workers", None),
    "unit-count": ("integer", "across {v} units", None),
    "day-count": ("integer", "lasting {v} days", None),
    "loss-musd": ("number", "with losses of {v} million", None),
    "rate-pct": ("number", "at a rate of {v} percent", None),
    "is-confirmed": ("boolean", "", None),
    "is-ongoing": ("boolean", "", None),
}
_STRING_ROLES = tuple(name for name, spec in _ROLE_POOL.items() if spec[0] == "string")

_DAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")
_TOPICS = ("logistics", "shipping", "finance", "energy", "transport", "retail", "health", "media")
_DISTRACTORS = ("confirmed", "announced", "reported")
_FILLERS = (
    "The statement gave no further details about the timeline.",
    "Analysts expect more information to emerge in the coming weeks.",
    "Local residents described the mood in the area as tense but calm.",
    "A spokesperson declined to comment on the ongoing inquiry.",
    "Earlier this year a similar incident drew wide attention in the region.",
    "The regional press covered the story on its front pages.",
    "Several industry groups asked for a full public review of the matter.",
)
_EXEMPLAR_TEMPLATES = (
    "Crews {t} a site near {city}.",
    "In {city}, officials {t} two facilities.",
    "{org} said the agency {t} the operation.",
)
_UNDECLARED_ROLE = "note-text"

_MULTIPLICITIES = {
    "string": ("list", "optional-scalar", "required-scalar"),
    "integer": ("optional-scalar", "required-scalar", "list"),
    "number": ("optional-scalar", "list"),
    "boolean": ("optional-scalar", "list"),
}


def _type_names(count: int, rng: random.Random) -> list[str]:
    names = [prefix + suffix for prefix in _PREFIXES for suffix in _SUFFIXES]
    if count > len(names):
        raise ValueError(f"at most {len(names)} event types are available")
    for name in names:
        if any(name != other and name in other for other in names):
            raise ValueError(f"type name {name!r} is a substring of another")
    return rng.sample(names, count)


def _make_ontology(count: int, rng: random.Random) -> list[dict]:
    ontology = []
    # Role counts 3..6 in equal shares keep prompt sizes steady across seeds.
    role_counts = [3 + i % 4 for i in range(count)]
    rng.shuffle(role_counts)
    for name, n_roles in zip(_type_names(count, rng), role_counts):
        first = rng.choice(_STRING_ROLES)
        others = rng.sample([r for r in _ROLE_POOL if r != first], n_roles - 1)
        roles = [{"name": first, "value_type": "string", "multiplicity": "required-scalar"}]
        for role in others:
            value_type = _ROLE_POOL[role][0]
            roles.append({
                "name": role,
                "value_type": value_type,
                "multiplicity": rng.choice(_MULTIPLICITIES[value_type]),
            })
        ontology.append({"event_type": name, "roles": roles})
    return ontology


def _triggers(event_type: str) -> tuple[str, ...]:
    for suffix, words in _SUFFIXES.items():
        if event_type.endswith(suffix):
            return words
    raise ValueError(f"no trigger words for {event_type!r}")


def _exemplars(event_type: str, rng: random.Random) -> list[str]:
    words = _triggers(event_type)
    return [
        template.format(t=words[i], city=rng.choice(_CITIES), org=rng.choice(_ORGS))
        for i, template in enumerate(_EXEMPLAR_TEMPLATES)
    ]


def _pick_values(roles: list[dict], rng: random.Random) -> list[tuple[str, list]]:
    """Values for the roles a document fills, in schema order."""
    used: set = set()
    filled = []
    for role in roles:
        value_type, _, pool = _ROLE_POOL[role["name"]]
        if value_type == "boolean":
            continue
        if role["multiplicity"] != "required-scalar" and rng.random() >= 0.7:
            continue
        n_values = 2 if role["multiplicity"] == "list" and value_type == "string" and rng.random() < 0.2 else 1
        values = []
        while len(values) < n_values:
            if value_type == "string":
                value = rng.choice(pool)
            elif value_type == "integer":
                value = rng.randint(12, 980)
            else:
                value = float(f"{rng.randint(1, 99)}.{rng.randint(1, 9)}")
            if value not in used:
                used.add(value)
                values.append(value)
        filled.append((role["name"], values))
    return filled


def _value_text(value) -> str:
    return value if isinstance(value, str) else repr(value)


def _make_document(doc_id, schema, trigger, distractor, amount, rng):
    """Document text plus its corpus record; offsets are exact."""
    filled = _pick_values(schema["roles"], rng)
    text = f"On {rng.choice(_DAYS)}, authorities said the {rng.choice(_TOPICS)} group "
    trigger_span = {"text": trigger, "start": len(text), "end": len(text) + len(trigger)}
    text += trigger + " operations"
    arguments = []
    for role, values in filled:
        phrase = _ROLE_POOL[role][1]
        head, tail = phrase.split("{v}")
        text += ", " + head
        for i, value in enumerate(values):
            if i:
                text += " and "
            value_text = _value_text(value)
            arguments.append({"role": role, "text": value_text, "start": len(text), "end": len(text) + len(value_text)})
            text += value_text
        text += tail
    text += "."
    rest = [f"Officials {distractor} the figures later that week.", f"Insurers put the total exposure at ${amount}."]
    rest += rng.sample(_FILLERS, 2)
    rng.shuffle(rest)
    text = " ".join([text, *rest])
    record = {
        "id": doc_id,
        "text": text,
        "events": [{"event_type": schema["event_type"], "trigger": trigger_span, "arguments": arguments}],
    }
    return record, filled


def _literal(value) -> str:
    return f'"{value}"' if isinstance(value, str) else repr(value)


def _constructor(event_type: str, trigger: str, fields: list[tuple[str, object]]) -> str:
    parts = [f'mention="{trigger}"']
    for role, value in fields:
        if isinstance(value, list):
            parts.append(f"{role}=[{', '.join(_literal(v) for v in value)}]")
        else:
            parts.append(f"{role}={_literal(value)}")
    return f"{event_type}({', '.join(parts)})"


def _code_fields(schema: dict, filled: list[tuple[str, list]]) -> list[tuple[str, object]]:
    multiplicity = {role["name"]: role["multiplicity"] for role in schema["roles"]}
    return [(role, values if multiplicity[role] == "list" else values[0]) for role, values in filled]


def _correct_code(schema, trigger, filled, rng) -> str:
    fields = _code_fields(schema, filled)
    if rng.random() < 0.25:
        return json.dumps({"event_type": schema["event_type"], "trigger": trigger, "arguments": dict(fields)})
    code = _constructor(schema["event_type"], trigger, fields)
    return f"```python\n{code}\n```" if rng.random() < 0.5 else code


def _t2_fault(schema, trigger, filled, rng) -> str:
    fields = _code_fields(schema, filled)
    if rng.random() < 0.5:
        # The first role is a required scalar; two values break multiplicity.
        fields[0] = (fields[0][0], [fields[0][1], "unknown"])
    else:
        fields.append((_UNDECLARED_ROLE, "pending"))
    return _constructor(schema["event_type"], trigger, fields)


def _t3_fault(schema, trigger, filled, rng) -> str:
    code = _constructor(schema["event_type"], trigger, _code_fields(schema, filled))
    if rng.random() < 0.5:
        return code[:-1]  # unbalanced parenthesis
    return code.replace('mention="', 'mention="\\q', 1)  # invalid escape sequence


def _wrong_code(schema, trigger) -> str:
    placeholder = {"string": "unknown", "integer": 0, "number": 0.5, "boolean": False}
    fields = [
        (role["name"], placeholder[role["value_type"]])
        for role in schema["roles"]
        if role["multiplicity"] == "required-scalar"
    ]
    return _constructor(schema["event_type"], trigger, fields)


def _planning_reply(hypotheses, rng) -> str:
    body = json.dumps([{"trigger": t, "event_type": e, "confidence": c} for t, e, c in hypotheses])
    return f"```json\n{body}\n```" if rng.random() < 0.5 else body


def hypothesis_key(trigger: str, event_type: str) -> str:
    return f"{trigger}\t{event_type}"


def generate(workload: Workload, seed: int) -> dict:
    """Build every artefact of one workload instance in memory."""
    rng = random.Random(f"{seed}:{workload.types}:{workload.docs}:{workload.mode}")
    ontology = _make_ontology(workload.types, rng)
    by_type = {schema["event_type"]: schema for schema in ontology}
    kinds = [kind for kind, n in sorted(workload.kind_counts().items()) for _ in range(n)]
    rng.shuffle(kinds)
    amounts = rng.sample(range(1_000_000, 10_000_000), workload.docs)

    corpus, expected, plan_docs = [], [], []
    for index, kind in enumerate(kinds):
        doc_id = f"doc-{index:04d}"
        schema = rng.choice(ontology)
        event_type = schema["event_type"]
        trigger = rng.choice(_triggers(event_type))
        distractor = rng.choice(_DISTRACTORS)
        other = rng.choice([name for name in by_type if name != event_type])
        record, filled = _make_document(doc_id, schema, trigger, distractor, f"{amounts[index]:,}", rng)
        corpus.append(record)
        expected.append({
            "doc_id": doc_id,
            "events": [{"event_type": event_type, "trigger": trigger, "arguments": dict(filled)}],
        })

        right = (trigger, event_type)
        wrong = (distractor, other)
        if kind == BACKTRACK:
            hypotheses = [(*wrong, 0.9), (*right, 0.6)]
        else:
            hypotheses = [(*right, 0.9), (*wrong, 0.3)]
        planning = [_planning_reply(hypotheses, rng)]
        if kind == PLANNING_RETRY:
            planning.insert(0, f"The text describes a {event_type} event triggered by {trigger}.")
        correct = _correct_code(schema, trigger, filled, rng)
        first = {
            T2_PATCH: lambda: _t2_fault(schema, trigger, filled, rng),
            T3_PATCH: lambda: _t3_fault(schema, trigger, filled, rng),
            EMPTY_CODE: lambda: "",
        }.get(kind)
        coding = {hypothesis_key(*right): ([first()] if first else []) + [correct]}
        judge = {hypothesis_key(*right): rng.choice(("yes", "Yes.", "yes, it fits"))}
        if kind == BACKTRACK:
            coding[hypothesis_key(*wrong)] = [_wrong_code(by_type[other], distractor)]
            judge[hypothesis_key(*wrong)] = rng.choice(("no", "No.", "no, it does not fit"))
        dollar = record["text"].index("$")
        plan_docs.append({
            "id": doc_id,
            "kind": kind,
            "text": record["text"],
            "anchor": record["text"][dollar + 1 : dollar + 10],
            "anchor_offset": dollar,
            "hypotheses": [hypothesis_key(t, e) for t, e, _ in hypotheses],
            "planning": planning,
            "coding": coding,
            "judge": judge,
        })

    plan = {
        "types": {schema["event_type"]: [role["name"] for role in schema["roles"]] for schema in ontology},
        "exemplars": {schema["event_type"]: _exemplars(schema["event_type"], rng) for schema in ontology},
        "docs": plan_docs,
    }
    return {"ontology": ontology, "corpus": corpus, "plan": plan, "expected": expected}


def write(instance: dict, directory: Path) -> dict:
    """Write the four artefacts; returns their paths by name."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {name: directory / f"{name}.{ext}" for name, ext in
             (("ontology", "json"), ("corpus", "jsonl"), ("plan", "json"), ("expected", "jsonl"))}
    paths["ontology"].write_text(json.dumps(instance["ontology"], indent=1) + "\n", encoding="utf-8")
    paths["plan"].write_text(json.dumps(instance["plan"]) + "\n", encoding="utf-8")
    for name in ("corpus", "expected"):
        lines = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in instance[name])
        paths[name].write_text(lines, encoding="utf-8")
    return paths


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Write one benchmark workload instance.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the four files")
    args = parser.parse_args()
    for name, path in write(generate(WORKLOADS[args.workload], args.seed), Path(args.out)).items():
        print(f"{name}: {path}")

"""Prompt catalog for the four agents.

Each builder returns a :class:`PromptRequest` whose bindings capture
exactly the variable parts of the prompt, so requests are reconstructible
and fingerprintable.  Message texts follow the worked examples the agents
were designed around: role-setting system message, context blocks with
"Event definitions:" / "Text:" markers, explicit output format.

Retrieval runs at the backend's default temperature for exemplar variety.
Planning, coding and the semantic judge pin temperature to 0: the
refinement loop depends on reproducible replies for the same prompt.

The planning prompts start with the definitions and exemplar block,
which are the same for every document of a run: that front is a
:class:`PlanningHead`, built once per run, and each planning request
names it as its ``head`` so an HTTP backend encodes it once per run.
"""

from __future__ import annotations

from typing import Sequence

from .backends import ChatMessage, PromptRequest
from .records import FrozenRecord, set_field
from .schemas import EventSchema, SchemaRegistry, render_schema_as_code

RETRIEVAL = "retrieval"
PLANNING = "planning"
PLANNING_RETRY = "planning_retry"
CODING = "coding"
SEMANTIC_JUDGE = "semantic_judge"

_RETRIEVAL_SYSTEM = "You are a helpful example generator for event extraction."

_PLANNING_SYSTEM = (
    "You are an assistant for event extraction. Given a piece of text and "
    "definitions of event types (as Python dataclasses), produce a JSON array "
    "of objects where each object has keys 'trigger' and 'event_type'."
)

_CODING_SYSTEM = (
    "You are a coding agent that creates event objects based on a trigger "
    "hypothesis. Given an event definition, a trigger word, and the original "
    "text, construct the event object that realizes the hypothesis, filling "
    "argument roles from the text."
)

_JUDGE_SYSTEM = "You are a verifier for event extraction."

_PLANNING_FORMAT = (
    "Return a JSON array of {'trigger': str, 'event_type': str} objects. "
    "Each object may also include 'confidence' (a number between 0 and 1) "
    "and a short 'rationale'."
)

_PLANNING_REMINDER = (
    "Your previous reply could not be parsed. Return only a JSON array of "
    "{'trigger': str, 'event_type': str} objects, with no surrounding prose."
)


def retrieval_prompt(schema: EventSchema) -> PromptRequest:
    roles = ", ".join(schema.role_names()) or "none"
    user = (
        f"Event type: {schema.event_type}\n"
        f"Roles: {roles}\n"
        f"Write one English sentence that contains a clear mention of the "
        f"{schema.event_type} trigger and populates all roles."
    )
    return PromptRequest(
        template_id=RETRIEVAL,
        bindings=(("event_type", schema.event_type), ("roles", roles)),
        messages=(ChatMessage("system", _RETRIEVAL_SYSTEM), ChatMessage("user", user)),
        temperature=None,
    )


class PlanningHead(FrozenRecord):
    """The part of every planning request that is the same for a whole run.

    ``text`` is the front of the user message, up to the document text;
    ``definitions`` and ``exemplars`` (the distinct exemplar sentences,
    one per line) are the matching bindings.  Built once per run by
    :func:`planning_head`, so no document joins the definitions and
    exemplar block again.
    """

    def __init__(self, definitions: str, exemplars: str, text: str):
        set_field(self, "definitions", definitions)
        set_field(self, "exemplars", exemplars)
        set_field(self, "text", text)


def planning_head(registry: SchemaRegistry, exemplar_sentences: Sequence[str] = ()) -> PlanningHead:
    """The run's planning head: the registry's definitions, then its
    exemplar sentences.

    Each distinct sentence is listed once, at its first position in
    ``exemplar_sentences`` (registry order in a run); a later copy is
    dropped only when it is exactly equal.  Types that share trigger
    words draw identical sentences, and the block carries no labels, so
    a repeat tells the planner nothing new.  The ``exemplars`` binding
    holds the same list, so fingerprints follow the text.
    """
    definitions = registry.definitions
    sentences = tuple(dict.fromkeys(exemplar_sentences))
    text = f"Event definitions:\n{definitions}\n\n"
    if sentences:
        listed = "\n".join(f"- {sentence}" for sentence in sentences)
        text += f"Example sentences:\n{listed}\n\n"
    return PlanningHead(definitions, "\n".join(sentences), text)


def _planning_request(template_id: str, text: str, head: PlanningHead, reminder: str = "") -> PromptRequest:
    user = f"{head.text}Text:\n{text}\n\n{_PLANNING_FORMAT}"
    if reminder:
        user += f"\n\n{reminder}"
    return PromptRequest(
        template_id=template_id,
        bindings=(("definitions", head.definitions), ("exemplars", head.exemplars), ("text", text)),
        messages=(ChatMessage("system", _PLANNING_SYSTEM), ChatMessage("user", user)),
        temperature=0.0,
        head=head.text,
    )


def planning_prompt(text: str, head: PlanningHead) -> PromptRequest:
    return _planning_request(PLANNING, text, head)


def planning_retry_prompt(text: str, head: PlanningHead) -> PromptRequest:
    """The single-reprompt variant appended with a format reminder."""
    return _planning_request(PLANNING_RETRY, text, head, _PLANNING_REMINDER)


def coding_prompt(
    schema: EventSchema,
    trigger: str,
    text: str,
    rationale: str = "",
    diagnostic: str = "",
) -> PromptRequest:
    """Coding-agent prompt; a non-empty diagnostic turns it into a patch request.

    The diagnostic line is embedded verbatim: it is the one piece of
    feedback the refinement loop sends back between attempts.
    """
    definition = render_schema_as_code(schema)
    parts = [
        f"Event definition:\n{definition}",
        f'Trigger: "{trigger}"',
        f'Text: "{text}"',
    ]
    if rationale:
        parts.append(f"Rationale: {rationale}")
    parts.append(
        "Return only one of: a single constructor call such as "
        f'{schema.event_type}(mention="{trigger}", ...) using the class above, '
        "or a JSON object with exactly the keys 'event_type', 'trigger' and "
        "'arguments'. No imports, no explanation."
    )
    if diagnostic:
        parts.append(
            "Your previous attempt failed verification with this diagnostic:\n"
            f"{diagnostic}\n"
            "Patch the code so this diagnostic no longer applies and return "
            "the corrected event object."
        )
    user = "\n".join(parts)
    return PromptRequest(
        template_id=CODING,
        bindings=(
            ("definition", definition),
            ("diagnostic", diagnostic),
            ("rationale", rationale),
            ("text", text),
            ("trigger", trigger),
        ),
        messages=(ChatMessage("system", _CODING_SYSTEM), ChatMessage("user", user)),
        temperature=0.0,
    )


def judge_prompt(trigger: str, event_type: str, text: str) -> PromptRequest:
    user = (
        f'Text: "{text}"\n\n'
        f'In this text, is "{trigger}" semantically compatible with an event '
        f"of type {event_type}? Answer yes or no."
    )
    return PromptRequest(
        template_id=SEMANTIC_JUDGE,
        bindings=(("event_type", event_type), ("text", text), ("trigger", trigger)),
        messages=(ChatMessage("system", _JUDGE_SYSTEM), ChatMessage("user", user)),
        temperature=0.0,
    )

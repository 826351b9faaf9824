"""Span recording around the program's public functions, from outside.

:meth:`Tracer.install` replaces each traced function wherever a module of
the package binds it (``eventagents.refine.verify``, ``eventagents.cli.
extract_document``, ...), and each traced method on its class, so callers
pick up the wrapper through their usual name lookup.  The program itself
is not modified.

A span is ``(id, name, start, end, parent, doc_id, attrs, error)``; times
come from ``time.perf_counter``.  The parent is the innermost open span
of the same thread, or the root span (``cli.main``) for a worker thread's
outermost call.  ``doc_id`` is set for everything under
``extract_document``.  Spans stay in memory until :meth:`write`.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from time import perf_counter


def _template_and_chars(args, kwargs):
    request = args[1] if len(args) > 1 else kwargs["request"]
    return {"template": request.template_id, "chars": sum(len(m.content) for m in request.messages)}


def _prefix_share(attrs, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    prompt = "".join(m.content for m in result.messages)
    at = prompt.find(text)
    attrs["prefix_share"] = at / len(prompt) if at >= 0 else None


def _parse_outcome(attrs, args, kwargs, result):
    attrs["failed"] = result.failure is not None


def _verdict(attrs, args, kwargs, result):
    attrs["verdict"] = result.verdict
    attrs["check"] = None if result.diagnostic is None else result.diagnostic.failed_check


# (module, function or Class.method, span name)
TARGETS = (
    ("eventagents.schemas", "load_ontology", "schemas.load_ontology"),
    ("eventagents.corpus", "load_corpus", "corpus.load_corpus"),
    ("eventagents.refine", "extract_document", "refine.extract_document"),
    ("eventagents.refine", "refine", "refine.refine"),
    ("eventagents.agents", "run_retrieval_agent", "agents.run_retrieval_agent"),
    ("eventagents.agents", "ExemplarCache.get_or_create", "agents.exemplar_cache.get_or_create"),
    ("eventagents.agents", "run_planning_agent", "agents.run_planning_agent"),
    ("eventagents.agents", "run_coding_agent", "agents.run_coding_agent"),
    ("eventagents.agents", "judge_semantic_compat", "agents.judge_semantic_compat"),
    ("eventagents.backends", "HttpBackend.complete", "backends.complete"),
    ("eventagents.prompts", "retrieval_prompt", "prompts.retrieval_prompt"),
    ("eventagents.prompts", "planning_prompt", "prompts.planning_prompt"),
    ("eventagents.prompts", "planning_retry_prompt", "prompts.planning_retry_prompt"),
    ("eventagents.prompts", "coding_prompt", "prompts.coding_prompt"),
    ("eventagents.prompts", "judge_prompt", "prompts.judge_prompt"),
    ("eventagents.schemas", "render_schema_as_code", "schemas.render_schema_as_code"),
    ("eventagents.events", "parse_event_code", "events.parse_event_code"),
    ("eventagents.verify", "verify", "verify.verify"),
)

FACTORY_SPAN = "agents.exemplar_cache.factory"
ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self, doc_ids_by_text: dict[str, str]):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._doc_ids = doc_ids_by_text
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.doc = None
            local.attempt = 0
        return local

    def _record(self, name, fn, args, kwargs, attrs=None, after=None, doc=None):
        local = self._state()
        stack = local.stack
        parent = stack[-1] if stack else self._root
        span_id = next(self._ids)
        outer_doc = local.doc
        if doc is not None:
            local.doc = doc
        stack.append(span_id)
        error = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, local.doc, attrs, error))
            local.doc = outer_doc
        if after is not None:
            after(attrs, args, kwargs, result)
        return result

    def _wrapper(self, name: str, fn):
        record = self._record

        if name == "refine.extract_document":
            def wrapper(*args, **kwargs):
                text = args[0] if args else kwargs["text"]
                return record(name, fn, args, kwargs, doc=self._doc_ids.get(text))
        elif name == "agents.exemplar_cache.get_or_create":
            def wrapper(cache, schema, factory):
                attrs = {"filled": False}

                def traced_factory():
                    attrs["filled"] = True
                    return record(FACTORY_SPAN, factory, (), {})

                return record(name, fn, (cache, schema, traced_factory), {}, attrs)
        elif name == "agents.run_coding_agent":
            def wrapper(*args, **kwargs):
                local = self._state()
                diagnostic = kwargs.get("diagnostic", args[4] if len(args) > 4 else None)
                local.attempt = local.attempt + 1 if diagnostic else 1
                return record(name, fn, args, kwargs, {"attempt": local.attempt})
        elif name == "verify.verify":
            def wrapper(*args, **kwargs):
                return record(name, fn, args, kwargs, {"attempt": self._state().attempt}, _verdict)
        elif name == "backends.complete":
            def wrapper(*args, **kwargs):
                return record(name, fn, args, kwargs, _template_and_chars(args, kwargs))
        elif name in ("prompts.planning_prompt", "prompts.planning_retry_prompt"):
            def wrapper(*args, **kwargs):
                return record(name, fn, args, kwargs, {}, _prefix_share)
        elif name == "events.parse_event_code":
            def wrapper(*args, **kwargs):
                return record(name, fn, args, kwargs, {}, _parse_outcome)
        else:
            def wrapper(*args, **kwargs):
                return record(name, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap every target wherever the package binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "eventagents" or n.startswith("eventagents.")]
        for module_name, attr, name in TARGETS:
            module = sys.modules.get(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(module, class_name, None)
                if cls is None or method not in vars(cls):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(cls, method, self._wrapper(name, vars(cls)[method]))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrapper(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def run_root(self, fn, *args):
        """Call ``fn`` as the root span that worker-thread spans hang from."""
        self._root = next(self._ids)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((self._root, ROOT_SPAN, start, perf_counter(), None, None, None, None))
            self._root = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

"""Command-line interface.

Subcommands:

* ``extract``  run the pipeline over a corpus, writing prediction and
  trace files (one pair per run);
* ``eval``     score prediction files against a gold corpus;
* ``stats``    corpus statistics (documents, mentions, length, multi-word
  trigger percentage);
* ``schema``   list or render the ontology's schemas.

Configuration precedence is flags over config file over environment
(variables prefixed ``EVENTAGENTS_``) over built-in defaults;
``--print-config`` dumps the resolved configuration and exits.  Exit
status is 0 on success, 1 for operational failures (unreadable files,
backend errors, bad data), 2 for usage and configuration errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

from .backends import BackendConfig, HttpBackend, ScriptedBackend, load_scripted_fixture
from .corpus import Document, dataset_stats, load_corpus, sample_split
from .errors import ConfigError, EventAgentsError, has_surrogate, json_fault
from .events import EventObject, event_payload, parse_event_code
from .metrics import EvaluationError, MetricsReport, mean_of_reports, mean_table, score
from .records import FrozenRecord, set_field
from .refine import MODES, PipelineConfig, build_run_context, extract_document, trace_to_records
from .schemas import load_ontology, render_schema_as_code

# Default instances: their fields hold the defaults the options below start from.
_BACKEND = BackendConfig()
_PIPELINE = PipelineConfig()

# The run options, one row each in field order: name -> (value type,
# default, help).  Option ``name`` has the flag ``--<name-with-dashes>``,
# the variable ``EVENTAGENTS_<NAME>`` and the config file key ``<name>``,
# or ``backend.<key>`` when it sets BackendConfig's field ``<key>``.  A
# config file may set it to null exactly when its default is None; a row
# without help has neither flag nor variable.
_OPTIONS: dict[str, tuple[type, object, str | None]] = {
    "ontology": (str, None, "path to the ontology JSON document"),
    "corpus": (str, None, "path to the newline-delimited corpus"),
    "out": (str, None, "output path"),
    "backend_endpoint": (str, _BACKEND.endpoint, "chat-completions base URL"),
    "model": (str, _BACKEND.model, "model name sent to the backend"),
    "temperature": (float, _BACKEND.temperature, "default sampling temperature"),
    "max_tokens": (int, _BACKEND.max_tokens, "completion token limit"),
    "api_key_env": (str, _BACKEND.api_key_env, "environment variable holding the bearer token"),
    "timeout": (float, _BACKEND.timeout, "request timeout in seconds"),
    "retries": (int, _BACKEND.retries, "retry count for transient backend failures"),
    "exemplar_k": (int, _PIPELINE.exemplar_k, "exemplar sentences per schema"),
    "hypothesis_k": (int, _PIPELINE.hypothesis_k, "planning hypotheses kept per document"),
    "patch_attempts": (int, _PIPELINE.patch_attempts, "coding attempts per hypothesis"),
    "mode": (str, _PIPELINE.mode, "verification mode"),
    "workers": (int, 1, "concurrent documents"),
    "seed": (int, 0, "random seed for sampling"),
    "runs": (int, 3, "number of extraction runs"),
    "sample": (int, None, "uniformly subsample the corpus to this many documents"),
    "scripted_fixture": (str, None, "scripted-backend fixture file (offline deterministic runs)"),
    "multi_event": (bool, _PIPELINE.multi_event, None),
    "event_cap": (int, _PIPELINE.event_cap, None),
}

# Each backend option's key in the config file's ``backend`` object.
_BACKEND_KEYS = {name: key for name in _OPTIONS if (key := name.removeprefix("backend_")) in vars(_BACKEND)}


class RunConfig(FrozenRecord):
    """The run configuration: one field per row of ``_OPTIONS``, in order."""

    def __init__(self, **options):
        for name in options:
            if name not in _OPTIONS:
                raise TypeError(f"RunConfig.__init__() got an unexpected keyword argument {name!r}")
        for name, (_, default, _) in _OPTIONS.items():
            set_field(self, name, options.get(name, default))
        # Pipeline and backend ranges are checked by PipelineConfig and BackendConfig.
        self.pipeline_config()
        for name in ("workers", "runs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.sample is not None and self.sample < 0:
            raise ConfigError("sample must be >= 0")
        self.backend_config()

    def backend_config(self) -> BackendConfig:
        return BackendConfig(**{key: getattr(self, name) for name, key in _BACKEND_KEYS.items()})

    def pipeline_config(self) -> PipelineConfig:
        try:
            return PipelineConfig(**{name: getattr(self, name) for name in vars(_PIPELINE)})
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def as_dict(self) -> dict:
        data: dict = {}
        for name, value in vars(self).items():
            if name in _BACKEND_KEYS:
                data.setdefault("backend", {})[_BACKEND_KEYS[name]] = value
            else:
                data[name] = value
        return data


def _check_file_value(key: str, name: str, value):
    kind, default, _ = _OPTIONS[name]
    if value is None and default is None:
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config file key {key!r} must be an integer")
    elif kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config file key {key!r} must be a number")
    elif kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"config file key {key!r} must be a boolean")
    elif not isinstance(value, str):
        raise ConfigError(f"config file key {key!r} must be a string")
    elif has_surrogate(value):
        raise ConfigError(f"config file key {key!r} holds a lone surrogate, which UTF-8 cannot encode")
    return value


def _load_config_file(path: str) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # also oversized integers and deep nesting
        raise ConfigError(f"config file {path} is not valid JSON: {json_fault(exc, located=True)}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    backend_names = {key: name for name, key in _BACKEND_KEYS.items()}
    overrides: dict = {}
    for key, value in data.items():
        if key == "backend":
            if not isinstance(value, dict):
                raise ConfigError("config file key 'backend' must be an object")
            for sub_key, sub_value in value.items():
                name = backend_names.get(sub_key)
                if name is None:
                    raise ConfigError(f"unknown config file key 'backend.{sub_key}'")
                overrides[name] = _check_file_value(f"backend.{sub_key}", name, sub_value)
        elif key in _OPTIONS and key not in _BACKEND_KEYS:
            overrides[key] = _check_file_value(key, key, value)
        else:
            raise ConfigError(f"unknown config file key {key!r}")
    return overrides


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, environment, config file and flags, in that order."""
    overrides: dict = {}
    for name, (kind, _, help) in _OPTIONS.items():
        env_name = f"EVENTAGENTS_{name.upper()}"
        if help is None or env_name not in os.environ:
            continue
        raw = os.environ[env_name]
        try:
            overrides[name] = kind(raw)
        except ValueError:
            raise ConfigError(f"environment variable {env_name}: invalid value {raw!r}") from None
    config_path = getattr(args, "config", None)
    if config_path:
        overrides.update(_load_config_file(config_path))
    for name in _OPTIONS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return RunConfig(**overrides)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file mirroring the run configuration")
    common.add_argument("--print-config", action="store_true", help="print the resolved configuration and exit")
    for name, (kind, _, help) in _OPTIONS.items():
        if help is not None:
            common.add_argument(
                "--" + name.replace("_", "-"), type=kind, choices=MODES if name == "mode" else None, help=help
            )

    parser = argparse.ArgumentParser(
        prog="eventagents",
        description="Zero-shot event extraction with retrieval, planning, coding and verification agents.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("extract", parents=[common], help="run extraction over a corpus")
    eval_parser = subparsers.add_parser("eval", parents=[common], help="score prediction files")
    eval_parser.add_argument("predictions", nargs="+", help="prediction file(s), one per run")
    subparsers.add_parser("stats", parents=[common], help="corpus statistics")
    schema_parser = subparsers.add_parser("schema", parents=[common], help="inspect the ontology")
    schema_parser.add_argument("schema_action", choices=["list", "render"], help="what to print")
    return parser


_REQUIRED = {
    "extract": ("ontology", "corpus", "out"),
    "eval": ("corpus",),
    "stats": ("corpus",),
    "schema": ("ontology",),
}


def _require_paths(config: RunConfig, command: str) -> None:
    for name in _REQUIRED[command]:
        if getattr(config, name) is None:
            raise ConfigError(f"missing required option --{name} for command {command!r}")


def _run_path(out: str, run_index: int, runs: int) -> Path:
    path = Path(out)
    if runs == 1:
        return path
    return path.with_name(f"{path.stem}.run{run_index}{path.suffix}")


def _trace_path(pred_path: Path) -> Path:
    return pred_path.with_name(f"{pred_path.stem}.trace{pred_path.suffix}")


def _write_line(file, record: dict) -> None:
    """One record of a prediction or trace file, non-ASCII text unescaped."""
    file.write(json.dumps(record, ensure_ascii=False) + "\n")


def _same_file(path: Path, name: str) -> bool:
    try:
        return os.path.samefile(path, name)
    except OSError:  # either one is missing
        return False


def _refuse_inputs(args: argparse.Namespace, config: RunConfig, outputs: Sequence[Path]) -> None:
    """Refuse an output path that is a file the command reads, under its
    own name, a symbolic link or a hard link, before anything is written.
    A missing input matches nothing: reading it fails before any write."""
    names = (config.ontology, config.corpus, config.scripted_fixture, args.config, *getattr(args, "predictions", ()))
    for path in outputs:
        if any(_same_file(path, name) for name in names if name is not None):
            raise EventAgentsError(f"cannot write {path}: it is an input of this run")


def _partial_path(path: Path) -> Path:
    """Where a run writes ``path`` until the run's last document is done."""
    return path.with_name(path.name + ".partial")


@contextlib.contextmanager
def _document_map(workers: int):
    """A lazy ``map`` that yields results in input order, on ``workers`` threads."""
    # The calling thread does the work when there is one worker.  A
    # one-thread pool measured slower: perfbench fast_backend client CPU
    # rose from a median 1.75 to 1.94 ms per document (+11%, 10 runs per
    # side on seeds 2-6, slower on every seed).
    if workers <= 1:
        yield map
        return
    # Imported here: it loads logging, which no one-worker run needs.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield pool.map


def cmd_extract(args: argparse.Namespace, config: RunConfig) -> int:
    registry = load_ontology(Path(config.ontology).read_bytes())
    documents = load_corpus(Path(config.corpus).read_bytes())
    if config.sample is not None:
        try:
            documents = sample_split(documents, config.sample, config.seed)
        except ValueError as exc:  # a sample larger than the corpus
            raise ConfigError(str(exc)) from None
    pipeline = config.pipeline_config()
    fixture = None
    if config.scripted_fixture is not None:
        fixture = load_scripted_fixture(Path(config.scripted_fixture).read_bytes())
    pred_paths = [_run_path(config.out, run_index, config.runs) for run_index in range(1, config.runs + 1)]
    # Refuse an unwritable --out before the first backend call, not after a run.
    out_paths = [
        path
        for pred_path in pred_paths
        for final_path in (pred_path, _trace_path(pred_path))
        for path in (final_path, _partial_path(final_path))
    ]
    for path in out_paths:
        if not path.parent.is_dir():
            raise EventAgentsError(f"cannot write {path}: {path.parent} is not a directory")
        if path.is_dir():
            raise EventAgentsError(f"cannot write {path}: it is a directory")
    _refuse_inputs(args, config, out_paths)

    for run_index, pred_path in enumerate(pred_paths, start=1):
        trace_path = _trace_path(pred_path)
        backend = ScriptedBackend(fixture) if fixture is not None else HttpBackend(config.backend_config())
        events_written = skipped = 0
        try:
            with _document_map(config.workers) as document_map:
                # The context comes before any file, so an empty ontology or
                # a retrieval failure leaves none.  Without documents no
                # backend call is made and the ontology may be empty.
                context = build_run_context(registry, backend, pipeline.exemplar_k, document_map) if documents else None

                def one(doc: Document):
                    return extract_document(doc.text, registry, pipeline, backend, context=context)

                # Each document's lines are written as it finishes, in corpus order.
                with open(_partial_path(pred_path), "w", encoding="utf-8", newline="\n") as pred_file, open(
                    _partial_path(trace_path), "w", encoding="utf-8", newline="\n"
                ) as trace_file:
                    for doc, (events, trace) in zip(documents, document_map(one, documents)):
                        if trace.error is None:
                            events_written += len(events)
                            _write_line(pred_file, {"doc_id": doc.id, "events": [event_payload(e) for e in events]})
                        else:
                            skipped += 1
                            print(f"run {run_index}: document {doc.id} skipped: {trace.error}", file=sys.stderr)
                        for record in trace_to_records(trace, doc.id):
                            _write_line(trace_file, record)
        finally:
            if isinstance(backend, HttpBackend):
                backend.close()
        # An interrupted run leaves its final paths as they were.
        for path in (pred_path, trace_path):
            os.replace(_partial_path(path), path)
        skips = f", {skipped} skipped" if skipped else ""
        print(f"run {run_index}: {len(documents)} documents, {events_written} events{skips} -> {pred_path}")
        if documents and skipped == len(documents):
            raise EventAgentsError(f"run {run_index}: every document was skipped")
    return 0


def _load_predictions(path: str) -> dict[str, list[EventObject]]:
    predictions: dict[str, list[EventObject]] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise EvaluationError(f"cannot read predictions file {path}: {exc}") from None
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise EvaluationError(f"{path}: line {line_no}: malformed record: {json_fault(exc)}") from None
        if not isinstance(record, dict) or not isinstance(record.get("doc_id"), str):
            raise EvaluationError(f"{path}: line {line_no}: record needs a string 'doc_id'")
        raw_events = record.get("events", [])
        if not isinstance(raw_events, list):
            raise EvaluationError(f"{path}: line {line_no}: 'events' must be an array")
        doc_id = record["doc_id"]
        if doc_id in predictions:
            raise EvaluationError(f"{path}: line {line_no}: duplicate doc_id {doc_id!r}")
        events = []
        for raw_event in raw_events:
            code = parse_event_code(json.dumps(raw_event, ensure_ascii=False))
            if code.failure is not None or code.extra_fields:
                problem = code.failure.message if code.failure else f"unexpected field {code.extra_fields[0]!r}"
                raise EvaluationError(f"{path}: line {line_no}: bad event for {doc_id!r}: {problem}")
            events.append(code.parsed)
        predictions[doc_id] = events
    return predictions


def cmd_eval(args: argparse.Namespace, config: RunConfig) -> int:
    if config.out:
        _refuse_inputs(args, config, [Path(config.out)])
    documents = load_corpus(Path(config.corpus).read_bytes())
    reports: list[MetricsReport] = []
    for path in args.predictions:
        reports.append(score(_load_predictions(path), documents))

    for path, report in zip(args.predictions, reports):
        if len(reports) > 1:
            print(f"# {path}")
        print(report.as_table())
    if len(reports) == 1:
        document = reports[0].as_dict()
    else:
        mean = mean_of_reports(reports)
        print(f"# mean over {len(reports)} runs")
        print(mean_table(mean))
        document = {"runs": [report.as_dict() for report in reports], "mean": mean}
    rendered = json.dumps(document, indent=2)
    if config.out:
        Path(config.out).write_text(rendered + "\n", encoding="utf-8")
    else:
        print(rendered)
    return 0


def cmd_stats(args: argparse.Namespace, config: RunConfig) -> int:
    if config.out:
        _refuse_inputs(args, config, [Path(config.out)])
    documents = load_corpus(Path(config.corpus).read_bytes())
    stats = dataset_stats(documents)
    lines = [
        f"{'Documents':<24}{stats.documents}",
        f"{'Event mentions':<24}{stats.event_mentions}",
        f"{'Avg doc length (tokens)':<24}{stats.avg_doc_length_tokens:.2f}",
        f"{'Multi-word triggers':<24}{stats.multiword_trigger_pct:.1f}%",
    ]
    if stats.documents == 0:
        lines.append("note: empty corpus")
    print("\n".join(lines))
    if config.out:
        Path(config.out).write_text(json.dumps(vars(stats), indent=2) + "\n", encoding="utf-8")
    return 0


def cmd_schema(args: argparse.Namespace, config: RunConfig) -> int:
    registry = load_ontology(Path(config.ontology).read_bytes())
    if args.schema_action == "list":
        for schema in registry:
            print(f"{schema.event_type}: {len(schema.roles)} roles")
    else:
        sys.stdout.write("\n".join(render_schema_as_code(schema) for schema in registry))
    return 0


_COMMANDS: dict[str, Callable[[argparse.Namespace, RunConfig], int]] = {
    "extract": cmd_extract,
    "eval": cmd_eval,
    "stats": cmd_stats,
    "schema": cmd_schema,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = resolve_config(args)
        if getattr(args, "print_config", False):
            print(json.dumps(config.as_dict(), indent=2))
            return 0
        _require_paths(config, args.command)
        return _COMMANDS[args.command](args, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EventAgentsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Fresh-process probes started by run.py; each prints one JSON line.

``child.py setup --ontology O --corpus C``
    times ``import eventagents`` plus ``load_ontology`` and ``load_corpus``
    on the workload's files.

``child.py extract --ontology O --corpus C --out P --endpoint URL --workers N --mode M [--spans S]``
    calls the unmodified entry point ``eventagents.cli.main(["extract", ...,
    "--runs", "1"])`` once and reports its exit status, wall time, user+sys
    CPU and peak RSS.  With ``--spans`` the call is traced (see tracer.py)
    and the spans are written to S afterwards.

The program is imported from ``src/`` next to this directory, never from
an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def _use_source_tree() -> None:
    sys.path.insert(0, str(SRC))


def _check_origin(module) -> None:
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported {module.__file__}, not the program under {SRC}")


def setup(args) -> dict:
    _use_source_tree()
    start = perf_counter()
    import eventagents

    registry = eventagents.load_ontology(Path(args.ontology).read_bytes())
    documents = eventagents.load_corpus(Path(args.corpus).read_bytes())
    elapsed = perf_counter() - start
    _check_origin(eventagents)
    return {"setup_s": elapsed, "types": len(registry), "docs": len(documents)}


def extract(args) -> dict:
    _use_source_tree()
    import eventagents.cli as cli

    _check_origin(cli)
    argv = [
        "extract", "--ontology", args.ontology, "--corpus", args.corpus, "--out", args.out,
        "--backend-endpoint", args.endpoint, "--workers", str(args.workers), "--mode", args.mode,
        "--runs", "1",
    ]
    tracer = None
    call = cli.main
    if args.spans:
        from tracer import Tracer

        texts = {}
        for line in Path(args.corpus).read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            texts[record["text"]] = record["id"]
        tracer = Tracer(texts)
        tracer.install()
        call = lambda argv: tracer.run_root(cli.main, argv)  # noqa: E731

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        status = call(argv)
    wall = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "exit": status,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "maxrss_kb": after.ru_maxrss,
    }
    if tracer is not None:
        tracer.write(args.spans)
        result["missing"] = tracer.missing
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="probe", required=True)
    for name in ("setup", "extract"):
        probe = sub.add_parser(name)
        probe.add_argument("--ontology", required=True)
        probe.add_argument("--corpus", required=True)
    extract_parser = sub.choices["extract"]
    extract_parser.add_argument("--out", required=True)
    extract_parser.add_argument("--endpoint", required=True)
    extract_parser.add_argument("--workers", type=int, required=True)
    extract_parser.add_argument("--mode", required=True)
    extract_parser.add_argument("--spans")
    args = parser.parse_args()
    result = setup(args) if args.probe == "setup" else extract(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

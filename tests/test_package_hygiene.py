"""Package hygiene: the public name list is exact, no private
module-level name is left behind without a reader, no module imports
``dataclasses``, and outside JSON is decoded and read in one place."""

import ast
from pathlib import Path

import eventagents

PACKAGE_DIR = Path(eventagents.__file__).parent


def test_all_names_resolve_once_in_sorted_order():
    names = eventagents.__all__
    assert [name for name in names if not hasattr(eventagents, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined_names(statement: ast.stmt) -> list[str]:
    """Names a module-level statement binds, looking inside if/try blocks."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
    if isinstance(statement, (ast.If, ast.Try)):
        blocks = [statement.body, statement.orelse, getattr(statement, "finalbody", [])]
        blocks += [handler.body for handler in getattr(statement, "handlers", [])]
        return [name for block in blocks for inner in block for name in _defined_names(inner)]
    return []


def _referenced_names(tree: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private module-level definition that no
    statement other than its own reads, in its own module or another."""
    statements = [
        (module, statement) for module, source in sources.items() for statement in ast.parse(source).body
    ]
    references = [_referenced_names(statement) for _, statement in statements]
    return [
        f"{module}:{name}"
        for index, (module, statement) in enumerate(statements)
        for name in filter(_is_private, _defined_names(statement))
        if not any(name in names for position, names in enumerate(references) if position != index)
    ]


def test_every_private_module_name_has_a_reader():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert _unread_private_names(sources) == []


def test_scan_flags_a_private_name_left_without_a_reader():
    # A self-reference inside the defining statement does not count as a reader.
    source = "import re\n_PATTERN = re.compile('x')\n_LEFT = _LEFT_TOO = 1\ndef _walk(n):\n    return _walk(n - 1)\n"
    assert _unread_private_names({"m.py": source}) == ["m.py:_PATTERN", "m.py:_LEFT", "m.py:_LEFT_TOO", "m.py:_walk"]


def test_scan_finds_readers_across_modules_and_inside_blocks():
    sources = {
        "a.py": "try:\n    _FAST = 1\nexcept ImportError:\n    _FAST = 0\nif True:\n    _CHOSEN: int = 2\n",
        "b.py": "from .a import _FAST\nimport a\nvalue = a._CHOSEN\n__dunder__ = 3\n",
    }
    assert _unread_private_names(sources) == []


def _dataclasses_imports(source: str) -> list[int]:
    """Line numbers of the statements that import ``dataclasses``, at
    module level or inside a function or class."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module.partition(".")[0] == "dataclasses" for module in modules):
            lines.append(node.lineno)
    return lines


def test_no_module_imports_dataclasses():
    # The value classes are built on eventagents.records instead.
    found = {
        str(path.relative_to(PACKAGE_DIR)): _dataclasses_imports(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_scan_flags_every_form_of_dataclasses_import():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "import os, dataclasses as dc\n"
        "def build():\n"
        "    from dataclasses import field\n"
        "from .dataclasses import x\n"
        "import dataclasses_json\n"
        "text = '@dataclass'\n"
    )
    assert _dataclasses_imports(source) == [1, 2, 3, 5]


def _json_loads_uses(source: str) -> list[int]:
    """Line numbers of the references to ``json.loads`` and of the
    statements that import it by name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found = node.attr == "loads" and isinstance(node.value, ast.Name) and node.value.id == "json"
        elif isinstance(node, ast.ImportFrom):
            found = node.module == "json" and any(alias.name == "loads" for alias in node.names)
        else:
            continue
        if found:
            lines.append(node.lineno)
    return sorted(lines)


def test_json_loads_is_called_only_where_a_fault_has_its_own_meaning():
    # errors.load_json and errors.json_lines word every reader's fault;
    # planning turns a fault into its retry, object notation into a
    # parse failure with a position.
    found = {
        str(path.relative_to(PACKAGE_DIR)): _json_loads_uses(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
    }
    assert sorted(name for name, lines in found.items() if lines) == ["agents.py", "errors.py", "events.py"]


def test_scan_flags_every_use_of_json_loads():
    source = (
        "import json\n"
        "data = json.loads(text)\n"
        "from json import loads\n"
        "from json import dumps, loads as parse\n"
        "read = json.loads\n"
        "text = json.dumps(data)\n"
        "value = other.loads(text)\n"
        "note = 'json.loads'\n"
    )
    assert _json_loads_uses(source) == [2, 3, 4, 5]


def _decoding_sites(source: str) -> list[tuple[int, str]]:
    """``(line, kind)`` of each place that decodes outside text itself:
    a byte order mark or the ``utf-8-sig`` codec is a "mark"; a
    ``read_text`` reference or a handler of ``UnicodeDecodeError`` is a
    "decode"."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes)):
            text = node.value.decode("latin-1") if isinstance(node.value, bytes) else node.value
            codec = text.lower().replace("_", "-")
            if "\ufeff" in text or "\xef\xbb\xbf" in text or "utf-8-sig" in codec or "utf8-sig" in codec:
                sites.append((node.lineno, "mark"))
        elif isinstance(node, ast.Attribute) and node.attr in ("BOM", "BOM_UTF8"):
            sites.append((node.lineno, "mark"))
        elif isinstance(node, ast.Attribute) and node.attr == "read_text":
            sites.append((node.lineno, "decode"))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = {name.id for name in ast.walk(node.type) if isinstance(name, ast.Name)}
            if caught & {"UnicodeDecodeError", "UnicodeError"}:
                sites.append((node.lineno, "decode"))
    return sorted(sites)


def test_outside_json_is_decoded_only_by_errors_load_json():
    # errors.load_json holds the one rule: strict UTF-8, one leading mark
    # dropped; every other reader hands it bytes.
    found = {
        str(path.relative_to(PACKAGE_DIR)): _decoding_sites(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
    }
    assert sorted(name for name, sites in found.items() if any(kind == "mark" for _, kind in sites)) == ["errors.py"]
    assert {name: sites for name, sites in found.items() if any(kind == "decode" for _, kind in sites)} == {}


def test_scan_flags_every_own_decoding_of_outside_text():
    source = (
        "text = raw.decode('utf-8').removeprefix('\\ufeff')\n"
        "text = raw.decode('UTF_8_SIG')\n"
        "raw = raw.removeprefix(b'\\xef\\xbb\\xbf')\n"
        "raw = raw.removeprefix(codecs.BOM_UTF8)\n"
        "text = path.read_text(encoding='utf-8')\n"
        "try:\n"
        "    pass\n"
        "except (OSError, UnicodeDecodeError) as exc:\n"
        "    pass\n"
        "except UnicodeError:\n"
        "    pass\n"
        "text = raw.decode('utf-8')\n"
        "note = 'read_text'\n"
        "try:\n"
        "    pass\n"
        "except ValueError:\n"
        "    pass\n"
    )
    expected = [(1, "mark"), (2, "mark"), (3, "mark"), (4, "mark"), (5, "decode"), (8, "decode"), (10, "decode")]
    assert _decoding_sites(source) == expected

"""Every module-level import in the package binds a name that the module uses,
no import anywhere in the package loads OpenSSL through hashlib, every public
name the package defines is reached by something other than its unit tests,
immutability comes from frozen dataclasses, not hand-written guards, no
search stops at a cap in config.py instead of the budget, e_p has one
definition, every enumeration takes its block size from rng._CHUNK, and the
budget lives only in config's ledger."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fpuniform"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of `source` that no expression
    reads.  `from __future__` imports and names listed in `__all__` are
    exempt."""
    tree = ast.parse(source)
    bound, exported = [], set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read | exported]


def test_unused_imports_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import xml.dom\n"
        "from json import dumps, loads as load\n"
        "from .errors import ValidationError\n"
        "__all__ = ['ValidationError']\n"
        "def f():\n"
        "    return np.zeros(1), load('1'), xml.dom\n"
    )
    assert unused_imports(source) == ["os", "dumps"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def openssl_imports(source: str) -> list[int]:
    """The lines of `source` that import hashlib or _hashlib, at module level
    or inside a function; both load OpenSSL's
    libcrypto.  `from hashlib import sha256` in an `except ImportError`
    handler is exempt: it runs only where the built-in SHA-256 is missing."""
    tree = ast.parse(source)
    fallback = {
        id(node)
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler)
        and isinstance(handler.type, ast.Name) and handler.type.id == "ImportError"
        for node in handler.body
        if isinstance(node, ast.ImportFrom) and node.module == "hashlib"
        and [a.name for a in node.names] == ["sha256"]
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level and id(node) not in fallback:
            modules = [node.module]
        else:
            continue
        if any(m.split(".")[0] in ("hashlib", "_hashlib") for m in modules):
            found.append(node.lineno)
    return sorted(found)


def test_openssl_imports_finds_what_it_should():
    source = (
        "import hashlib\n"  # 1
        "import os, _hashlib as h\n"  # 2
        "try:\n"
        "    from _sha256 import sha256\n"
        "except ImportError:\n"
        "    from hashlib import sha256\n"  # exempt: the built-in's fallback
        "def f():\n"
        "    from hashlib import md5\n"  # 8
        "    import hashlib.x\n"  # 9
        "    from .hashlib import g\n"  # a module of the package
        "    return md5, g\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    from hashlib import sha256, md5\n"  # 15: more than the fallback
    )
    assert openssl_imports(source) == [1, 2, 8, 9, 15]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_loads_openssl(path):
    assert openssl_imports(path.read_text()) == []


def public_definitions(source: str) -> list[tuple[str, int, int]]:
    """Name, first and last line of every public top-level def and class of
    `source`, each followed by the public methods of its class body, named
    `Class.method`."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, defs + (ast.ClassDef,)) and not node.name.startswith("_"):
            found.append((node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{node.name}.{m.name}", m.lineno, m.end_lineno)
                for m in node.body
                if isinstance(m, defs) and not m.name.startswith("_")
            ]
    return found


def without_comments(source: str) -> str:
    """`source` with each comment blanked out; strings stay, and so do the
    line numbers."""
    lines = source.splitlines(keepends=True)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            (row, start), (_, end) = tok.start, tok.end
            lines[row - 1] = lines[row - 1][:start] + lines[row - 1][end:]
    return "".join(lines)


def reaching_text(path: str, text: str) -> str:
    """The part of a reader that can reach a name: a Python file without its
    comments, only the "Kept for tests" list of README.md, any other file
    whole."""
    if path.endswith(".py"):
        return without_comments(text)
    if path == "README.md":
        kept = re.search(r"Kept for tests.*?\n\n((?:[- ][^\n]*\n)+)", text, re.S)
        return kept.group(1) if kept else ""
    return text


def unreached_names(modules: dict[str, str], readers: dict[str, str]) -> list[str]:
    """The public names defined in `modules` (file -> source) that are read
    nowhere outside their own definition: not in the rest of their module,
    another module or one of `readers` (file -> text), each read as
    `reaching_text` says.  A top-level name is read where it appears as a
    whole word; a method `Class.name` only where `.name` is accessed, on any
    object, since its class may be reached through an instance."""
    modules = {path: without_comments(source) for path, source in modules.items()}
    readers = {path: reaching_text(path, text) for path, text in readers.items()}
    found = []
    for path, source in modules.items():
        lines = source.splitlines()
        for name, first, last in public_definitions(source):
            rest = "\n".join(lines[: first - 1] + lines[last:])
            texts = [rest] + [t for p, t in {**modules, **readers}.items() if p != path]
            if "." in name:
                word = re.compile(rf"\.{re.escape(name.split('.')[1])}\b")
            else:
                word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(t) for t in texts):
                found.append(name)
    return found


def test_unreached_names_finds_what_it_should():
    modules = {
        "a.py": (
            "def used():\n    return 1\n\n"
            "def lonely():\n    return lonely()\n\n"  # only its own body calls it
            "class _Private:\n    pass\n\n"
            "class Shape:\n"
            "    def area(self):\n        return 1\n\n"
            "    def scaled(self):\n        return self.scaled()\n\n"  # its own body only
            "    def _cached(self):\n        return self.area()\n"
        ),
        "b.py": (
            "from .a import Shape, used\n\n"
            "class Documented:\n    pass\n\n"
            "class Prose:\n    pass\n\n"
            "def selfish():\n    \"\"\"selfish() names itself, and scaled().\"\"\"\n\n"
            "def remarked():\n    pass\n\n"
            "def quoted():\n    pass\n"
        ),
        "c.py": "x = 1  # remarked() is named only in this comment\n",
    }
    readers = {
        "README.md": (
            "`Prose` is named in prose, outside the list.  Kept for tests:\n\n"
            "- `Documented`: a reason\n  that runs on; `lonely_helper` is another name.\n\n"
            "After the list, `Prose` again.\n"
        ),
        "demo.py": "print('quoted')  # remarked() and Prose()\n",
    }
    assert unreached_names(modules, readers) == [
        "lonely", "Shape.scaled", "Prose", "selfish", "remarked",
    ]


def test_every_public_name_is_reached():
    """A public def or class in the package is read by the package itself,
    a demo, the benchmark, the acceptance tests or the list of helpers kept
    for tests in README.md; its own unit tests and comments do not count."""
    readers = [
        *sorted((ROOT / "demos").glob("*.py")),
        *sorted(p for p in (ROOT / "perfbench").iterdir() if p.is_file()),
        ROOT / "tests" / "test_acceptance.py",
        ROOT / "README.md",
    ]
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    texts = {str(p.relative_to(ROOT)): p.read_text() for p in readers}
    assert unreached_names(modules, texts) == []


def hand_written_immutability(source: str) -> list[str]:
    """The classes of `source` that define __slots__ or __setattr__, or call
    object.__setattr__ without being a dataclass(frozen=True, ...)."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        defined = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)} | {
            t.id
            for n in cls.body if isinstance(n, (ast.Assign, ast.AnnAssign))
            for t in ast.walk(n) if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
        }
        frozen = any(
            isinstance(d, ast.Call) and ast.unparse(d.func) in ("dataclass", "dataclasses.dataclass")
            and any(k.arg == "frozen" and getattr(k.value, "value", None) is True for k in d.keywords)
            for d in cls.decorator_list
        )
        sets = any(
            isinstance(n, ast.Call) and ast.unparse(n.func) == "object.__setattr__"
            for n in ast.walk(cls)
        )
        if {"__slots__", "__setattr__"} & defined or (sets and not frozen):
            found.append(cls.name)
    return found


def test_hand_written_immutability_finds_what_it_should():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "class Slotted:\n    __slots__ = ('a',)\n"
        "class Annotated:\n    __slots__: tuple = ()\n"
        "class Guarded:\n    def __setattr__(self, name, value):\n        raise AttributeError\n"
        "class Sneaky:\n    def __init__(self):\n        object.__setattr__(self, 'a', 1)\n"
        "@dataclass\nclass Mutable:\n"
        "    def __post_init__(self):\n        object.__setattr__(self, 'a', 1)\n"
        "@dataclass(frozen=False)\nclass Thawed:\n"
        "    def __post_init__(self):\n        object.__setattr__(self, 'a', 1)\n"
        "@dataclass(frozen=True)\nclass Frozen:\n"
        "    def __post_init__(self):\n        object.__setattr__(self, 'a', 1)\n"
        "@dataclasses.dataclass(eq=False, frozen=True)\nclass FrozenToo:\n"
        "    def __post_init__(self):\n        object.__setattr__(self, 'a', 1)\n"
        "@dataclass(frozen=True)\nclass FrozenButSlotted:\n    __slots__ = ()\n"
        "class Plain:\n    slots = ()\n    def setattr(self):\n        setattr(self, 'a', 1)\n"
    )
    assert hand_written_immutability(source) == [
        "Slotted", "Annotated", "Guarded", "Sneaky", "Mutable", "Thawed", "FrozenButSlotted",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_immutability_comes_from_frozen_dataclasses(path):
    assert hand_written_immutability(path.read_text()) == []


def module_names(source: str) -> list[str]:
    """The names that the module-level assignments of `source` bind."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def search_caps(source: str) -> list[str]:
    """The module-level names of `source` that end in _CAP, except RETRY_CAP,
    the stop for a rejection sampler whose draws never succeed: every search
    is charged against the budget instead."""
    return [
        name for name in module_names(source) if name.endswith("_CAP") and name != "RETRY_CAP"
    ]


def test_search_caps_finds_what_it_should():
    source = (
        "RETRY_CAP = 1000\n"
        "ROUND_CAP = 64\n"
        "SEARCH_CAP: int = 12\n"
        "CAPS = 3\n"
        "def f():\n    LOCAL_CAP = 1\n"
    )
    assert search_caps(source) == ["ROUND_CAP", "SEARCH_CAP"]


def test_config_has_no_search_cap():
    assert search_caps((SRC / "config.py").read_text()) == []


def pi_exponentials(source: str, exempt: str | None = None) -> list[int]:
    """The lines of `source` with a call of np.exp whose argument holds a pi,
    outside the function named `exempt`: e_p has one definition, tables.phases."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == exempt
        for node in ast.walk(fn)
    }
    return sorted(
        call.lineno
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and id(call) not in inside
        and ast.unparse(call.func) in ("np.exp", "numpy.exp")
        and any(
            ast.unparse(node) in ("np.pi", "numpy.pi", "math.pi")
            for arg in call.args for node in ast.walk(arg)
        )
    )


def test_pi_exponentials_finds_what_it_should():
    source = (
        "import numpy as np\n"
        "def phases(p, x):\n    return np.exp(2j * np.pi * x / p)\n"  # 3
        "def dft(p):\n    return np.exp(-2j * np.pi * np.arange(p) / p)\n"  # 5
        "twist = np.exp(1j * (2 * math.pi / 3))\n"  # 6
        "angles = 2 * np.pi\n"
        "unit = np.exp(1j * angles)\n"  # pi is not in the call
        "e = np.exp(np.log(2))\n"
    )
    assert pi_exponentials(source) == [3, 5, 6]
    assert pi_exponentials(source, exempt="phases") == [5, 6]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_e_p_is_only_tables_phases(path):
    exempt = "phases" if path.name == "tables.py" else None
    assert pi_exponentials(path.read_text(), exempt) == []


def block_constants(source: str) -> list[str]:
    """The upper-case module-level names of `source` with BLOCK or CHUNK in
    them: block sizes, which every enumeration takes from rng._CHUNK."""
    return [
        name for name in module_names(source)
        if name == name.upper() and ("BLOCK" in name or "CHUNK" in name)
    ]


def test_block_constants_finds_what_it_should():
    source = (
        "from .rng import _CHUNK\n"
        "_BLOCK = 4096\n"
        "ROW_CHUNK: int = 8\n"
        "blocks = []\n"
        "def f():\n    _LOCAL_BLOCK = 1\n"
    )
    assert block_constants(source) == ["_BLOCK", "ROW_CHUNK"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_blocks_come_from_rng_chunk(path):
    names = block_constants(path.read_text())
    assert names == (["_CHUNK"] if path.name == "rng.py" else [])


#: The field that holds the name a node names.
_NAME_FIELD = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def ledger_bypasses(source: str) -> list[str]:
    """What in `source` goes round the one budget ledger: each function with a
    parameter named budget, by name, and each line that names _LEDGER."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            if any(arg is not None and arg.arg == "budget" for arg in params):
                found.append(getattr(node, "name", "<lambda>"))
        if getattr(node, _NAME_FIELD.get(type(node), ""), None) == "_LEDGER":
            found.append(f"_LEDGER at line {node.lineno}")
    return found


def test_ledger_bypasses_finds_what_it_should():
    source = (
        "from .config import _LEDGER, budget\n"  # 1
        "def run(f, budget=None):\n    return f\n"
        "def kw(*, budget):\n    return budget\n"
        "scaled = lambda budget: 2 * budget\n"
        "class A:\n    def m(self, limit):\n        return config._LEDGER.get()\n"  # 9
        "@budget()\ndef fine(cost):\n    return _LEDGER\n"  # 12
    )
    assert sorted(ledger_bypasses(source)) == [
        "<lambda>", "_LEDGER at line 1", "_LEDGER at line 12", "_LEDGER at line 9", "kw", "run",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_budget_is_one_ledger(path):
    found = ledger_bypasses(path.read_text())
    if path.name == "config.py":  # the ledger's own module
        found = [f for f in found if not f.startswith("_LEDGER")]
    assert found == []

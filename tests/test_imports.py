"""Every module-level import in the package binds a name that the module uses,
no import anywhere in the package loads OpenSSL through hashlib, every public
name the package defines is reached by something other than its unit tests,
and immutability comes from frozen dataclasses, not hand-written guards."""

import ast
import re
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


def unreached_names(modules: dict[str, str], readers: dict[str, str]) -> list[str]:
    """The public names defined in `modules` (file -> source) that are read
    nowhere outside their own definition: not in the rest of their module,
    another module or one of `readers` (file -> text).  A top-level name is
    read where it appears as a whole word; a method `Class.name` only where
    `.name` is accessed, on any object, since its class may be reached
    through an instance."""
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
            "def selfish():\n    \"\"\"selfish() names itself, and scaled().\"\"\"\n"
        ),
    }
    readers = {"README.md": "`Documented` is kept; `lonely_helper` is another name."}
    assert unreached_names(modules, readers) == ["lonely", "Shape.scaled", "selfish"]


def test_every_public_name_is_reached():
    """A public def or class in the package is read by the package itself,
    a demo, the benchmark, the acceptance tests or README.md (which names
    the helpers kept for tests); its own unit tests do not count."""
    readers = [
        *sorted((ROOT / "demos").glob("*.py")),
        *sorted(p for p in (ROOT / "perfbench").iterdir() if p.is_file()),
        ROOT / "tests" / "test_acceptance.py",
        ROOT / "README.md",
    ]
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreached_names(modules, {str(p): p.read_text() for p in readers}) == []


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

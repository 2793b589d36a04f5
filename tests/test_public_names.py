"""Every public function or class of jdd has a caller outside the tests.

A public name that only the tests use is either a reference the tests
compare against, listed below with its reason, or code to delete.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jdd"
CALLERS = (PACKAGE, ROOT / "demos", ROOT / "perfbench")

# public names with no caller outside the tests, kept as test references
TEST_REFERENCES = {
    "jdd.codebook.min_distance": "the property the built-in codes' tests check",
    "jdd.codebook.repetition_code": "a built-in code README lists and the tests build on",
    "jdd.codebook.hamming_7_4": "a built-in code README lists and the tests build on",
    "jdd.detectors.stat_codebook_aided": "the optimal joint test acceptance criterion 6 "
                                         "compares DAD with",
}


def references(tree):
    """The names a syntax tree refers to: Name ids, Attribute attrs and import aliases."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def uncalled():
    """The public module-level functions and classes of jdd nothing outside the tests names.

    A definition's references to its own name (recursion) do not count.
    """
    refs = Counter()
    for folder in CALLERS:
        for path in sorted(folder.rglob("*.py")):
            refs.update(references(ast.parse(path.read_text(), str(path))))
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and refs[node.name] == Counter(references(node))[node.name]):
                names.append(f"jdd.{path.stem}.{node.name}")
    return names


def test_every_public_name_has_a_caller():
    extra = [name for name in uncalled() if name not in TEST_REFERENCES]
    assert not extra, f"public names with no caller outside the tests: {', '.join(extra)}"


def test_test_references_have_no_other_caller():
    # a reference that gains a caller outside the tests leaves the list
    assert sorted(uncalled()) == sorted(TEST_REFERENCES)

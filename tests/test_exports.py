"""The package's export rule: `qwitness.__all__` is every public name of the
four library modules except those imported only from their own module, sorted."""

import re
from pathlib import Path

import pytest

import qwitness
from qwitness import correlations, interferometer, qcore, witness

LIBRARY = (qcore, witness, interferometer, correlations)
# Tolerances, constants and helpers that stay in their own module.
MODULE_ONLY = {
    qcore: {"ATOL_STRUCT", "ATOL_EXACT", "as_operator", "dagger",
            "partial_trace_operator", "ginibre_state"},
    correlations: {"PROB_FLOOR", "REFINE_TOL", "SCAN_CAP", "VERDICT_THRESHOLD"},
}
README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves_once():
    assert len(set(qwitness.__all__)) == len(qwitness.__all__)
    assert qwitness.__all__ == sorted(qwitness.__all__)
    for name in qwitness.__all__:
        getattr(qwitness, name)


@pytest.mark.parametrize("module", LIBRARY, ids=lambda m: m.__name__)
def test_module_names_resolve_once(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert MODULE_ONLY.get(module, set()) <= set(module.__all__)
    for name in module.__all__:
        getattr(module, name)


def test_package_exports_the_modules_public_names_less_module_only():
    expected = set()
    for module in LIBRARY:
        public = set(module.__all__) - MODULE_ONLY.get(module, set())
        for name in public:
            assert getattr(qwitness, name) is getattr(module, name), name
        expected |= public
    assert set(qwitness.__all__) == expected
    assert len(qwitness.__all__) == 42


def test_readme_lists_the_module_only_names():
    text = " ".join(README.read_text().split())
    match = re.search(r"except these, which are imported from their own module: (.*?) "
                      r"and everything in `qwitness\.cli`", text)
    assert match is not None
    named = set(re.findall(r"`([A-Za-z_]+)`", match.group(1)))
    assert named == set().union(*MODULE_ONLY.values())
    assert f"(its `__all__`, {len(qwitness.__all__)} names)" in text

"""The mutant list of ``scripts/mutants.py`` stays applicable: each mutant's text occurs
exactly once in its file, so an edit to the package cannot leave a mutant silently unused."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_mutant_names_are_unique():
    names = [name for name, *_ in mutants.MUTANTS]
    assert len(names) == len(set(names)) == 23


@pytest.mark.parametrize("name, file, old, new", mutants.MUTANTS,
                         ids=[name for name, *_ in mutants.MUTANTS])
def test_mutant_text_occurs_once(name, file, old, new):
    assert (ROOT / file).read_text().count(old) == 1
    assert mutants.mutated_text(file, old, new) != (ROOT / file).read_text()

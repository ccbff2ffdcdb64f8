"""The mutation check's list against the current source."""
from __future__ import annotations

import importlib.util
import os

import pytest

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location(
    "mutants", os.path.join(REPO_ROOT, "scripts", "mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_mutant_ids_are_distinct():
    ids = [mutant_id for mutant_id, _, _ in mutants.MUTANTS]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("mutant_id, fragment, replacement", mutants.MUTANTS,
                         ids=[m[0] for m in mutants.MUTANTS])
def test_fragment_occurs_exactly_once(mutant_id, fragment, replacement):
    # a fragment that went missing or repeats after a code move would leave
    # its mutant unrun or applied in the wrong place
    assert len(mutants.locate(os.path.join(REPO_ROOT, "src"), fragment)) == 1
    assert replacement != fragment

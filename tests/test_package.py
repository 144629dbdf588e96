"""Each module's ``__all__`` names only what exists, and every public
function the module defines."""

from __future__ import annotations

import importlib
import inspect

import pytest

MODULES = ("tl2b", "tl2b.diagrams", "tl2b.hecke", "tl2b.irreps",
           "tl2b.linalg", "tl2b.pathbasis", "tl2b.scalars", "tl2b.spinchain",
           "tl2b.symbolic", "tl2b.wordrep")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_list_every_public_function(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    defined = [attr for attr, obj in vars(module).items()
               if not attr.startswith("_")
               and inspect.isfunction(inspect.unwrap(obj))
               and obj.__module__ == name]
    assert [f for f in defined if f not in module.__all__] == []

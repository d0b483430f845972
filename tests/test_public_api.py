"""The public surface: every public function and class each `cbv` module
defines, and every public method those classes define or take from a
private `cbv` base.

A change that adds or removes a public name shows it in the diff of
`public_api.txt`.  After such a change, regenerate the file with
`PYTHONPATH=src python tests/test_public_api.py`.
"""

import importlib
import inspect
import pkgutil
from pathlib import Path

import cbv

GOLDEN = Path(__file__).with_name("public_api.txt")


def public_api() -> list[str]:
    """`module.name` for each public function and class a `cbv` module defines,
    and `module.Class.name` for each public method, class method or static
    method such a class defines or takes from a private `cbv` base."""
    names = []
    for info in pkgutil.iter_modules(cbv.__path__):
        module = importlib.import_module(f"cbv.{info.name}")
        for name, obj in vars(module).items():
            if (not name.startswith("_")
                    and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__):
                names.append(f"{module.__name__}.{name}")
                if inspect.isclass(obj):
                    owners = [obj] + [base for base in obj.__mro__[1:]
                                      if base.__name__.startswith("_")
                                      and base.__module__.startswith("cbv.")]
                    names.extend({f"{module.__name__}.{name}.{attr}"
                                  for owner in owners
                                  for attr, member in vars(owner).items()
                                  if not attr.startswith("_") and (
                                      inspect.isfunction(member)
                                      or isinstance(member, (classmethod, staticmethod)))})
    return sorted(names)


def test_public_api_matches_golden_file():
    assert public_api() == GOLDEN.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    GOLDEN.write_text("".join(f"{name}\n" for name in public_api()), encoding="utf-8")

"""The package namespace is the union of its modules' ``__all__`` lists."""

import importlib

import quiddity

MODULES = ("algebra", "dissections", "enumeration", "frieze", "surgery")


def test_each_module_lists_its_public_names_and_the_package_exports_them():
    for name in MODULES:
        module = importlib.import_module(f"quiddity.{name}")
        assert isinstance(module.__all__, list), name
        for public in module.__all__:
            assert getattr(quiddity, public) is getattr(module, public), (name, public)


def test_no_name_is_listed_by_two_modules():
    # a star import lets a later module shadow an earlier one's name silently
    owners = {}
    for name in MODULES:
        for public in importlib.import_module(f"quiddity.{name}").__all__:
            assert public not in owners, (public, owners.get(public), name)
            owners[public] = name

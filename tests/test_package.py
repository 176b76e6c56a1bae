from types import ModuleType

import quatgrad


def test_all_exports_no_module():
    assert quatgrad.__all__
    modules = [name for name in quatgrad.__all__
               if isinstance(getattr(quatgrad, name), ModuleType)]
    assert modules == []


def test_all_names_are_unique_and_public():
    assert len(set(quatgrad.__all__)) == len(quatgrad.__all__)
    assert not any(name.startswith("_") for name in quatgrad.__all__)

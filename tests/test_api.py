import types

import limlaw

#: names kept in their modules but not exported: helpers only the tests
#: use, and names nothing uses
_NOT_EXPORTED = ("MarkedSegment", "free_variables", "check_signature",
                 "Signature", "BatterySentence")


def test_all_lists_resolvable_names_and_no_modules():
    assert limlaw.__all__
    for name in limlaw.__all__:
        assert not isinstance(getattr(limlaw, name), types.ModuleType), name
    assert not set(_NOT_EXPORTED) & set(limlaw.__all__)
    # one translation serves every theory
    assert "translate_to_convex" in limlaw.__all__
    namespace = {}
    exec("from limlaw import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(limlaw.__all__)

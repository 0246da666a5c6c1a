import wtgc

PUBLIC = [
    "ARCTIC", "BOOLEAN", "IntegersMod", "NATURAL", "Production",
    "RankedAlphabet", "TROPICAL", "Tree", "Wtgc", "WtgcError", "classify",
    "derivations", "eq_restriction", "evaluate", "leaf", "parse_grammar",
    "parse_hom", "parse_term", "semiring_from_name", "serialize_grammar",
    "state_weight", "support_hom",
]


def test_public_api_is_pinned():
    assert wtgc.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(wtgc, name) is not None

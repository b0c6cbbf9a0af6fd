"""The package's export list: every name resolves, once, and the names
removed from the public API stay removed."""

import seqcert

REMOVED = ("OracleOptions", "TailKind", "in_ellinf", "sup_abs")


def test_every_exported_name_resolves():
    missing = [name for name in seqcert.__all__ if not hasattr(seqcert, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(set(seqcert.__all__)) == len(seqcert.__all__)


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in seqcert.__all__
        assert not hasattr(seqcert, name)

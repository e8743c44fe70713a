"""The package's public surface."""

from __future__ import annotations

import swingid


def test_every_exported_name_resolves():
    # a name deleted from the package but left in __all__ breaks
    # `from swingid import *`
    missing = [name for name in swingid.__all__ if not hasattr(swingid, name)]
    assert missing == []
    assert len(set(swingid.__all__)) == len(swingid.__all__)

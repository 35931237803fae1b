"""The package surface: every name trifault.__all__ lists is importable."""

from __future__ import annotations

import trifault


def test_star_import_binds_every_public_name():
    # a stale entry left in __all__ still passes `import trifault`
    namespace: dict = {}
    exec("from trifault import *", namespace)
    assert [name for name in trifault.__all__ if name not in namespace] == []
    assert len(set(trifault.__all__)) == len(trifault.__all__)

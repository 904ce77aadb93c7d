"""Access policies for replica placement.

The paper studies two ways requests of a client may be assigned:

* :data:`Policy.SINGLE` — all ``r_i`` requests of client ``i`` are served
  by one server (``|servers(i)| = 1``).
* :data:`Policy.MULTIPLE` — the requests of a client may be split across
  several servers on its root path (``Σ_s r_{i,s} = r_i``).

The policy choice changes the complexity landscape dramatically:
``Single`` is NP-hard even with no distance constraint on binary trees
(Theorem 1), whereas ``Multiple`` on binary trees with distance
constraints is polynomial as long as each client fits a server
(Theorem 6).
"""

from __future__ import annotations

import enum

__all__ = ["Policy"]


class Policy(enum.Enum):
    """Client-to-server assignment policy."""

    SINGLE = "single"
    MULTIPLE = "multiple"

    def __str__(self) -> str:
        return self.value

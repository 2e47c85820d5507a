"""Output checks: outcome fingerprints, run-to-run agreement, paper shape.

None of the checks pins an exact float: a fingerprint is only ever compared
with another run of the same inputs, and the paper-shape checks are the
orderings and rate bands of ``tests/test_integration_paper.py``. A later
bugfix that moves a number therefore does not break the benchmark, while a
change that makes two engines, two runs or a warm and a cold serve disagree
does.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from pathlib import Path
from typing import Optional

from repro.glitches.types import GlitchType

#: Dirty-sample record rates per glitch type (the bands the integration
#: tests assert; paper: 15.8% missing, 15.9% inconsistent, 5.1% outliers
#: raw and 16.8% on the log scale).
RATE_BANDS = {
    GlitchType.MISSING: (0.10, 0.22),
    GlitchType.INCONSISTENT: (0.10, 0.22),
}
OUTLIER_BANDS = {False: (0.03, 0.12), True: (0.03, 0.30)}

#: Figure 6 orderings, ``(a, b)`` meaning a's mean improvement beats b's.
IMPROVEMENT_ORDER = (
    ("strategy5", "strategy4"),
    ("strategy1", "strategy2"),
    ("strategy1", "strategy3"),
    ("strategy4", "strategy3"),
)
#: ``(a, b)`` meaning a distorts less than b on average. Strategy 4 vs 2 is
#: left out: at B = 200 the two come within 1% of each other on some seeds.
DISTORTION_ORDER = (
    ("strategy3", "strategy1"),
    ("strategy3", "strategy2"),
)


def fingerprint(result) -> str:
    """SHA-1 over every outcome's strategy, replication, improvement,
    distortion, glitch indexes, cost fraction and glitch fractions — the key
    the engine-identity benches compare results by."""
    keys = [
        (o.strategy, o.replication, o.improvement, o.distortion,
         o.glitch_index_dirty, o.glitch_index_treated, o.cost_fraction,
         tuple(sorted((g.name, v) for g, v in o.dirty_fractions.items())),
         tuple(sorted((g.name, v) for g, v in o.treated_fractions.items())))
        for o in result.outcomes
    ]
    return hashlib.sha1(repr(keys).encode()).hexdigest()


def paper_shape(result, log_transform: bool, label: str) -> list[str]:
    """The paper-shape invariants *result* breaks, as messages."""
    problems = []
    by_name = {s.strategy: s for s in result.summaries()}
    for a, b in IMPROVEMENT_ORDER:
        if not by_name[a].improvement_mean > by_name[b].improvement_mean:
            problems.append(f"{label}: improvement {a} <= {b}")
    for a, b in DISTORTION_ORDER:
        if not by_name[a].distortion_mean < by_name[b].distortion_mean:
            problems.append(f"{label}: distortion {a} >= {b}")
    bands = dict(RATE_BANDS)
    bands[GlitchType.OUTLIER] = OUTLIER_BANDS[log_transform]
    for glitch, (lo, hi) in bands.items():
        rate = statistics.fmean(o.dirty_fractions[glitch] for o in result.outcomes)
        if not lo < rate < hi:
            problems.append(
                f"{label}: dirty {glitch.name.lower()} rate {rate:.4f} "
                f"outside ({lo}, {hi})"
            )
    return problems


def source_digest(src: Path) -> str:
    """SHA-1 over the library's ``.py`` files, paths and contents."""
    digest = hashlib.sha1()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Ledger:
    """Outcome fingerprints of earlier runs in this checkout, by input key.

    Every run of the same inputs and the same library source must produce
    the same outcomes, in one invocation or across invocations; the first
    fingerprint seen for a key is kept in a JSON file and later runs are
    compared with it. Keys carry the source digest, so a change that is
    meant to move the numbers starts a fresh record instead of failing.
    """

    def __init__(self, path: Path, src: Path):
        self.path = path
        self.version = source_digest(src)[:16]

    def _load(self) -> dict:
        try:
            with open(self.path) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return {}

    def agree(self, key: str, value: str) -> Optional[str]:
        """``None`` when *value* matches the key's record (or is the first
        one, then recorded); otherwise a message naming both."""
        key = f"{key}@{self.version}"
        data = self._load()
        known = data.get(key)
        if known is not None:
            if known == value:
                return None
            return (
                f"{key}: outcome fingerprint {value[:12]} differs from the "
                f"{known[:12]} an earlier run recorded"
            )
        data[key] = value
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
        return None

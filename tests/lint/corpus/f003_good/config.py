"""Fixed corpus: every knob is consumed, and only config.py reads the
environment: GRIT_TUNER sets ``TunerConfig.live_knob``'s default.
"""

import dataclasses
import os

TUNER_ENV = "GRIT_TUNER"


@dataclasses.dataclass
class TunerConfig:
    live_knob: int = dataclasses.field(
        default_factory=lambda: int(os.environ.get(TUNER_ENV, "4"))
    )

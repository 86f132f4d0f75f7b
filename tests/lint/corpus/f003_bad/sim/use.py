"""Reads only the live knob, and reads an env var outside config.py."""

import os

TUNER_ENV = "GRIT_TUNER"


def effective(config):
    return int(os.environ.get(TUNER_ENV, config.live_knob)) * 2

"""Reads the knob; the config already holds the env var's value."""


def effective(config):
    return config.live_knob * 2

"""Application models used by the evaluation (the paper's 15 subjects)."""

#: Names of the hand-written demo models (the keys of
#: :data:`repro.apps.registry.DEMO_APPS`).  Listed here so the CLI can
#: offer them as choices without importing the simulator.
DEMO_APP_NAMES = (
    "browser",
    "dictionary",
    "email",
    "messenger",
    "music-player",
    "notes",
    "puzzle",
)

"""mfaclab: model-free adaptive control laboratory."""

# cli is left out of the eager imports so that `python -m mfaclab.cli` runs
# a module that is not yet in sys.modules; `from mfaclab import cli` works.
from . import analysis, controller, edlm, errors, kinematics, pathgen, plant

__all__ = ["analysis", "cli", "controller", "edlm", "errors", "kinematics", "pathgen", "plant"]
__version__ = "0.1.0"

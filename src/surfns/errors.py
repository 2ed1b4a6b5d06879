"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Invalid numerical parameter (truncation degree, radius, time step, ...)."""


class GeometryError(ValueError):
    """Ill-posed surface definition, e.g. torus with minor radius >= major."""


class GridMismatchError(ValueError):
    """Fields defined on different grids were combined."""


class ConsistencyError(RuntimeError):
    """An internal invariant failed (e.g. a Killing mode leaked into the strain form)."""


class ConfigError(ValueError):
    """Run-configuration parse or schema failure; message carries the field path."""


class DivergenceError(RuntimeError):
    """Non-finite coefficients during time integration.

    Carries the last finite state in ``last_state`` so a partial trajectory can
    be recovered, and where it failed: the number ``step`` and end time ``t``
    of the step that went non-finite, its ``dt``, and the last finite state's
    largest |coefficient| ``max_abs_c`` and energy ``ledger_residual``.
    """

    def __init__(self, message, last_state=None, partial=None, step=None, t=None,
                 dt=None, max_abs_c=None, ledger_residual=None):
        super().__init__(message)
        self.last_state = last_state
        self.partial = partial
        self.step = step
        self.t = t
        self.dt = dt
        self.max_abs_c = max_abs_c
        self.ledger_residual = ledger_residual


class CheckpointError(IOError):
    """Checkpoint file corruption, truncation, or version mismatch."""

"""Exception types shared across the package."""

from __future__ import annotations


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class TruncationError(RuntimeError):
    """Raised when a sideband pulse would push amplitude past the Fock cutoff.

    The simulator refuses to apply the pulse rather than silently dropping
    the escaping amplitude, which would break unitarity invisibly.

    Attributes
    ----------
    leaked_probability : float
        Probability sitting on the top coupled Fock component before the
        pulse (must stay below 1e-12).
    step_index : int or None
        1-based index of the offending step when raised from a sequence run.
    trial_index : int or None
        Trial number when raised from a Monte Carlo run.
    """

    def __init__(self, message: str, *, leaked_probability: float = 0.0,
                 step_index: int | None = None, trial_index: int | None = None):
        super().__init__(message)
        self.leaked_probability = leaked_probability
        self.step_index = step_index
        self.trial_index = trial_index


def prefixed(err: ValidationError | TruncationError, where: str, **index: int) -> Exception:
    """Copy of ``err`` whose message starts with ``where: ``.

    The copy has the same type and attributes; ``index`` sets
    ``step_index`` or ``trial_index`` on it.
    """
    located = type(err)(f"{where}: {err}")
    located.__dict__.update(err.__dict__, **index)
    return located

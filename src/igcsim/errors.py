"""Exception types shared across the package."""


class GuardError(RuntimeError):
    """A state left the flight envelope the model is valid in."""


class SingularityError(RuntimeError):
    """A control-path matrix is singular or too ill-conditioned to invert."""

    def __init__(self, stage: str, condition: float, message: str | None = None):
        self.stage = stage
        self.condition = condition
        if message is None:
            message = (
                f"{stage}: matrix condition estimate {condition:.3g} "
                f"exceeds the invertibility gate"
            )
        super().__init__(message)

    def __reduce__(self):  # pickles whole, e.g. out of a sweep's worker process
        return type(self), (self.stage, self.condition, str(self))


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""

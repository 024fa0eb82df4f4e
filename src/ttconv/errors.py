"""Exception types shared across the package."""


class FormatError(ValueError):
    """Malformed or unrecognized container file or training log."""


class ShapeError(ValueError):
    """Inconsistent shapes, factorizations, or dimension chains."""


class SizeError(ValueError):
    """Materialization would exceed the element-count cap."""


class TrainingDiverged(RuntimeError):
    """Loss became NaN/inf; carries the epoch index where it happened."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged (loss is not finite) at epoch {epoch}")
        self.epoch = epoch

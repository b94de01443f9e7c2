"""Result containers shared by the tail evaluators and the bound modules."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TailEstimate:
    """One evaluation of a tail probability.

    kind is "exact" (value is the probability) or "sandwich" (lower/upper
    enclose it). log_value / log_upper carry the log-domain numbers so
    callers can keep working below the float underflow line.
    """
    kind: str
    value: float | None = None
    lower: float | None = None
    upper: float | None = None
    log_value: float | None = None
    log_lower: float | None = None
    log_upper: float | None = None
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        lo = self.lower if self.lower is not None else 0.0
        hi = self.upper if self.upper is not None else 1.0
        mid = self.value if self.value is not None else lo
        if not (-1e-12 <= lo <= mid + 1e-12 and mid <= hi + 1e-12 and hi <= 1.0 + 1e-12):
            raise ValueError(f"inconsistent tail estimate: {lo}, {self.value}, {hi}")

    @property
    def pessimistic(self) -> float:
        """Largest probability consistent with the estimate (used by bounds)."""
        if self.kind == "exact":
            return self.value
        return self.upper

"""Exception types shared across the package.

Every validation failure raises a named subclass of :class:`QwlError` so
callers (and the CLI) can distinguish bad input from numerical failure.
"""

__all__ = [
    "QwlError",
    "NumericalError",
    "DimMismatch",
    "NonHermitian",
    "NotSkewHermitian",
    "NotUnitary",
    "NotLaplacian",
    "TooSmall",
    "NotRegular",
    "NotBijective",
    "NotAnEdge",
    "Unstable",
    "DomainExceeded",
    "NotScalarAtZero",
    "NonNormalInput",
    "BadSpec",
    "IterationCapExceeded",
]


class QwlError(ValueError):
    """Base class for all validation errors raised by this package."""


class NumericalError(QwlError):
    """Base class for failures of a numerical procedure (CLI exit code 3)."""


class DimMismatch(QwlError):
    pass


class NonHermitian(QwlError):
    pass


class NotSkewHermitian(QwlError):
    pass


class NotUnitary(QwlError):
    pass


class NotLaplacian(QwlError):
    pass


class TooSmall(QwlError):
    pass


class NotRegular(QwlError):
    pass


class NotBijective(QwlError):
    """A per-coin move table fails to be a bijection on vertices."""

    def __init__(self, coin: int):
        self.coin = coin
        super().__init__(f"moves for coin result {coin} are not a bijection on vertices")


class NotAnEdge(QwlError):
    """A move (vertex, coin) targets a vertex that is not adjacent."""

    def __init__(self, vertex: int, coin: int):
        self.vertex = vertex
        self.coin = coin
        super().__init__(f"move at vertex {vertex}, coin result {coin} does not follow an edge")


class Unstable(QwlError):
    pass


class DomainExceeded(QwlError):
    pass


class NotScalarAtZero(QwlError):
    pass


class NonNormalInput(QwlError):
    pass


class BadSpec(QwlError):
    """Malformed walk/protocol/matrix specification (string or JSON)."""


class IterationCapExceeded(NumericalError):
    pass

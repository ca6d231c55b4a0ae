"""Exception types shared across the package."""


class KgsrError(Exception):
    """Base class for every error this package raises on purpose."""


def at_line(error: KgsrError, path, line_no: int) -> KgsrError:
    """An error of the same class whose message starts with path:line."""
    return type(error)(f"{path}:{line_no}: {error}")


class ParseError(KgsrError):
    """A data file line could not be parsed."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class ConsistencyError(KgsrError):
    """The same name was declared with two different entity kinds."""


class EntityNotFoundError(KgsrError):
    """An entity or relation id/name is not present in the graph."""


class KindError(KgsrError):
    """An entity was used in a role its kind does not allow."""


class InjectionError(KgsrError):
    """An extracted triple could not be resolved against the graph."""


class ClientError(KgsrError):
    """The chat-completion client failed after exhausting its retries."""


class NumericError(KgsrError):
    """A non-finite value appeared where the optimizer requires finite ones."""


class CheckpointError(KgsrError):
    """Base class for checkpoint serialization failures."""


class CheckpointFormatError(CheckpointError):
    """The file does not start with the expected magic bytes."""


class CheckpointVersionError(CheckpointError):
    """The file's format version is not supported."""


class CheckpointCorruptError(CheckpointError):
    """The file is truncated, fails its checksum or holds a name that is
    not UTF-8."""

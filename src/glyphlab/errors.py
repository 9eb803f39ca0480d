"""Exception hierarchy shared by all glyphlab modules.

Two families matter to callers: `ArgumentError` (bad values / shapes /
usage, CLI exit code 2) and `DataFormatError` (unreadable or corrupt
files, CLI exit code 3).
"""


class GlyphLabError(Exception):
    pass


class ArgumentError(GlyphLabError, ValueError):
    """A caller-supplied value violates an operation's precondition."""


class DimensionError(ArgumentError):
    """Array shapes do not compose for the requested operation."""


class TrainingDivergedError(ArgumentError):
    """A training run produced a non-finite loss or accuracy."""


class StratificationError(ArgumentError):
    """A class is too small to be split across train/val/test."""


class UndefinedCurveError(ArgumentError):
    """ROC requested for a label vector missing one of the two classes."""


class EmptyDatasetError(ArgumentError):
    """An ingest root contains no class directories."""


class DataFormatError(GlyphLabError):
    pass


class UnsupportedFormatError(DataFormatError):
    """File is recognizable but not one of the supported encodings."""


class UnsupportedDepthError(UnsupportedFormatError):
    """Graymap with a maxval other than 255."""


class CorruptFileError(DataFormatError):
    """File matches a supported format but its payload is damaged."""

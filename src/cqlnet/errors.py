"""Errors raised by parsers and validators."""


class ParseError(Exception):
    """A syntax error in an input file, with a 1-based line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class CategoryError(Exception):
    """A category file violates a category or involution law."""


class FormulaError(Exception):
    """A formula breaks the unit or zero restrictions, or names an unknown atom."""


class NetError(Exception):
    """A net is ill-formed: bad wiring, label mismatch, or a stray unit link."""


class ModelError(Exception):
    """A model file is incomplete, its matrices break a functor law, or an
    evaluated matrix would pass ``model.MAX_ENTRIES`` entries."""

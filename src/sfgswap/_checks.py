"""The argument rules of the package: every number an entry point takes is
checked here, before any work is done, and so is every config value that
``cli.SECTIONS`` gives a rule.

A refusal is a ValueError that names the argument and the value given, in
one of two forms: "<name> must be a number, got <value>" (a pair of
numbers, for a pair) for what is no number, and "<name> must be <rule>, got
<value>" for a value out of range (``check``).  A bool is an int, but a flag
is not a number: True is never read as 1.  numpy scalars are numbers, as
numpy registers its types with ``numbers``.  An integer beyond the float
range is out of every range, though Python compares 10**400 exactly with
inf.  A checked value is returned as it was given, so no numeric path
changes.  A rule is a pair of a test and what it asks: those that several
arguments share are named here (``POSITIVE``, ``UNIT``, ...), and the third
item of each ``cli.SECTIONS`` key is one.  A record checks its fields
against a table of rules by field name (``fields``).

Parsing config text into numbers is another job, done by the CLI's parsers
(``presets._number``, ``presets._integer`` and ``cli._read``).
"""

import cmath
import math
import numbers
import operator

POSITIVE = (lambda x: 0.0 < x < math.inf, "finite and positive")
NONNEGATIVE = (lambda x: 0.0 <= x < math.inf, "finite and nonnegative")
UNIT = (lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
BELOW_ONE = (lambda x: 0.0 <= x < 1.0, "in [0, 1)")
FRACTION = (lambda x: 0.0 < x <= 1.0, "in (0, 1]")


def check(name: str, value, test, rule: str):
    """``value``, if it passes ``test``; refused by ``name`` as not ``rule``."""
    if not test(value):
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value


def _fits(*values) -> bool:
    """Whether each number converts to a float (a complex one, for a complex
    number): an integer beyond the float range does not."""
    try:
        for value in values:
            complex(value)
    except OverflowError:
        return False
    return True


def real(name: str, value, test, rule: str, kind=numbers.Real):
    """``value``, a number of ``kind`` that passes ``test``; refused by
    ``name`` as no number, or as not ``rule``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return check(name, value, lambda x: _fits(x) and test(x), rule)


def fields(record, rules: dict, default=None) -> None:
    """Check each field of the dataclass ``record`` by ``real`` against its
    rule in ``rules``, or ``default`` (None: the field is not checked)."""
    for name, value in vars(record).items():
        rule = rules.get(name, default)
        if rule:
            real(name, value, *rule)


def amplitude(name: str, value):
    """``value``, a finite complex number; refused by ``name`` otherwise."""
    return real(name, value, cmath.isfinite, "finite", numbers.Complex)


def pair(name: str, value, test, rule: str, kind=numbers.Real) -> tuple:
    """``value`` as a tuple (x, y) of two numbers of ``kind`` that passes
    test(x, y); refused by ``name`` as no pair of numbers, or as not ``rule``."""
    try:
        x, y = value
    except (TypeError, ValueError):
        x = y = None
    if not all(isinstance(v, kind) and not isinstance(v, bool) for v in (x, y)):
        raise ValueError(f"{name} must be a pair of numbers, got {value!r}")
    check(name, value, lambda _: _fits(x, y) and test(x, y), rule)
    return x, y


def integer_at_least(value, least: int, refusal: str) -> int:
    """``value`` as a Python int, or ``refusal`` raised with the value: a
    TypeError when it is no integer (numpy integers are; a bool is not), a
    ValueError when it is below ``least``."""
    try:
        index = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise TypeError(f"{refusal}, got {value!r}") from None
    if index < least:
        raise ValueError(f"{refusal}, got {value!r}")
    return index

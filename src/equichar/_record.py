"""The one base class of the library's result records.

A record subclass names its fields, in order, in __slots__, and may
annotate them for documentation.  A record is built by position or by
keyword in field order, equals a record of the same type whose fields are
equal, compares with anything else by NotImplemented, is unhashable, and
shows as Type(field=value, ...).  Plain methods do all of this: importing
the library generates and compiles no code for its records, and loads no
module beyond its own for them.
"""


class _Record:
    __slots__ = ()
    __hash__ = None

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        fields = self.__slots__
        if len(args) > len(fields):
            raise TypeError("%s() takes %d arguments but %d were given"
                            % (name, len(fields), len(args)))
        for field, value in zip(fields, args):
            setattr(self, field, value)
        for field in fields[len(args):]:
            if field not in kwargs:
                raise TypeError("%s() missing argument %r" % (name, field))
            setattr(self, field, kwargs.pop(field))
        if kwargs:
            raise TypeError("%s() got unexpected or repeated arguments: %s"
                            % (name, ", ".join(sorted(kwargs))))

    def _values(self):
        return tuple(getattr(self, field) for field in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (field, getattr(self, field))
            for field in self.__slots__))

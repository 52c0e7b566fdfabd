"""Exception types, limits and the read-only value base shared across the
library."""

# dynamics kinds, and the default limits of the state space and of searches;
# here so that the command line can offer them without importing the layers
KINDS = ("1", "p1", "bp1", "pc", "bpc")
PROFILE_GUARD = 10**7
SEARCH_BUDGET = 10 ** 5


class Frozen:
    """A read-only value.  A subclass names in _fields the fields that its
    repr shows, that its equality compares and that it hashes as a tuple,
    as a frozen dataclass does; its constructor takes them in _fields order,
    positionally or by name.  A class that defines __init__ itself sets its
    fields, and any other slots, through _set; one that sets __eq__ keeps it
    and its __hash__."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        # compiles __init__, __eq__ and __hash__ for the class's own fields,
        # as a dataclass does: reading each field by name is about twice as
        # fast as a generic read, and plays and profiles are compared and
        # hashed in every search; __init__ sets each field directly, as a
        # keyword call to _set doubles the cost of building a play
        super().__init_subclass__(**kwargs)
        source = ""
        if cls._fields and "__init__" not in cls.__dict__:
            source += f"def __init__(self, {', '.join(cls._fields)}):\n" + "".join(
                f"    object.__setattr__(self, {f!r}, {f})\n" for f in cls._fields)
        if "__eq__" not in cls.__dict__:
            same = " and ".join(f"self.{f} == other.{f}" for f in cls._fields) or "True"
            fields = "".join(f"self.{f}, " for f in cls._fields)
            source += (f"def __eq__(self, other):\n"
                       f"    if other.__class__ is self.__class__:\n"
                       f"        return {same}\n"
                       f"    return NotImplemented\n"
                       f"def __hash__(self):\n"
                       f"    return hash(({fields}))\n")
        made = {}
        exec(source, made)
        for name in ("__init__", "__eq__", "__hash__"):
            if name in made:
                made[name].__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, made[name])

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"


class GameDynError(Exception):
    """Base class for all library errors."""


class GameFormatError(GameDynError):
    """Malformed game or SPP document (syntax or schema)."""

    def __init__(self, message, locus=None):
        super().__init__(message if locus is None else f"{locus}: {message}")
        self.locus = locus


class UnknownVertex(GameDynError):
    def __init__(self, vertex, context=""):
        super().__init__(f"unknown vertex {vertex!r}" + (f" in {context}" if context else ""))
        self.vertex = vertex


class UnknownEdge(GameDynError):
    def __init__(self, edge):
        super().__init__(f"edge {edge!r} is not in the arena")
        self.edge = edge


class StateSpaceTooLarge(GameDynError):
    def __init__(self, count, guard, size=None):
        size = size or f"state space has {count} elements"
        super().__init__(f"{size}, guard is {guard} (use force to override)")
        self.count = count
        self.guard = guard


class CyclicArena(GameDynError):
    """History-based dynamics require an acyclic arena."""


class NonDeterministicBestReply(GameDynError):
    def __init__(self, player, targets):
        super().__init__(
            f"player {player} has {len(targets)} distinct strictly-improving best replies"
        )
        self.player = player
        self.targets = targets


class NotDeletable(GameDynError):
    MULTIPLE_SUCCESSORS = "MultipleSuccessors"
    PREDECESSOR_CONFLICT = "PredecessorConflict"
    PREFERENCE_COLLAPSE = "PreferenceCollapse"
    INVALID_PLAY = "InvalidPlay"

    def __init__(self, vertex, reason):
        super().__init__(f"vertex {vertex!r} is not deletable: {reason}")
        self.vertex = vertex
        self.reason = reason


class ScriptStepError(GameDynError):
    def __init__(self, index, step, cause):
        super().__init__(f"deletion script failed at step {index} ({step}): {cause}")
        self.index = index
        self.step = step
        self.cause = cause


class SourceMismatch(GameDynError):
    def __init__(self, e1, e2):
        super().__init__(f"edges {e1} and {e2} do not share a source vertex")


class SearchBudgetExceeded(GameDynError):
    def __init__(self, budget, unit):
        super().__init__(f"search budget of {budget} {unit} exceeded (result inconclusive)")
        self.budget = budget


class InvalidSDW(GameDynError):
    """A claimed strong dispute wheel fails re-verification."""


class SuffixClosureRepairNeeded(GameDynError):
    def __init__(self, missing):
        super().__init__(
            "permitted paths are not suffix-closed; missing: "
            + ", ".join("->".join(p) for p in sorted(missing))
            + " (pass complete_suffixes=True to auto-repair)"
        )
        self.missing = missing

"""Line-oriented text format for delta-matroids.

One ``elements:`` line declaring the ground set (order defines bit
positions), then one ``feasible:`` line per feasible set. ``#`` starts a
comment, blank lines are ignored, and one leading byte-order mark (U+FEFF)
is dropped. Canonical output lists feasible lines in ascending bitmask
order with elements in ground order.
"""

from __future__ import annotations

from .core import DeltaMatroid, _labels_at, validate


class ParseError(ValueError):
    """Malformed input text; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def parse(text: str) -> DeltaMatroid:
    """Parse and validate a delta-matroid document.

    Raises ParseError for format problems and AxiomViolationError (with
    its witness triple) when the family fails symmetric exchange.
    """
    labels = None
    pos: dict[str, int] = {}
    masks: list[int] = []
    seen: set[int] = set()
    elements_line = 0
    lines = text.removeprefix("\ufeff").splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elements:"):
            if labels is not None:
                raise ParseError(
                    line_no,
                    f"duplicate elements line (first at line {elements_line})",
                )
            labels = tuple(line[len("elements:"):].split())
            elements_line = line_no
            pos = {e: i for i, e in enumerate(labels)}
            if len(pos) != len(labels):
                raise ParseError(line_no, "element labels must be distinct")
        elif line.startswith("feasible:"):
            if labels is None:
                raise ParseError(line_no, "feasible line before elements line")
            members = line[len("feasible:"):].split()
            mask = 0
            for e in members:
                i = pos.get(e)
                if i is None:
                    raise ParseError(line_no, f"unknown element {e!r}")
                mask |= 1 << i
            if mask in seen:
                raise ParseError(
                    line_no, f"duplicate feasible set {sorted(set(members))}"
                )
            seen.add(mask)
            masks.append(mask)
        else:
            raise ParseError(
                line_no, f"expected 'elements:' or 'feasible:', got {line!r}"
            )
    if labels is None:
        raise ParseError(1, "missing elements line")
    if not masks:
        raise ParseError(1, "at least one feasible line is required")
    return validate(labels, masks)


def serialize(d: DeltaMatroid) -> str:
    """Canonical text form; ``parse(serialize(d)) == d``. ValueError on a
    label the format cannot hold: not a str, empty, or with whitespace or ``#``."""
    for e in d.labels:
        if not isinstance(e, str) or "#" in e or e.split() != [e]:
            raise ValueError(f"label {e!r} cannot be serialized: it is not a str, "
                             "is empty, or has whitespace or '#'")
    lines = ["elements: " + " ".join(d.labels) if d.labels else "elements:"]
    for m in d.masks:
        members = _labels_at(d.labels, m)
        lines.append("feasible: " + " ".join(members) if members else "feasible:")
    return "\n".join(lines) + "\n"

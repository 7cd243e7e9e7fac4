"""Per-cell reference for the CLI's table rows.

Each value formatted alone with '%.17g', the non-finite words quoted in
JSON, and the rows joined as the emitter lays them out.  The tests and the
CI output-contract step compare the emitter's tables against this text.
"""

import math


def cell(x: float, json: bool) -> str:
    return ('"%.17g"' if json and not math.isfinite(x) else "%.17g") % x


def rows_text(rows, json: bool) -> str:
    """The rows as the emitter writes them: CSV lines, or the JSON rows
    '    [a, b, c]' joined by ',\\n'; a newline ends the last row."""
    lines = [(", " if json else ",").join(cell(x, json) for x in row) for row in rows]
    return (",\n".join(f"    [{x}]" for x in lines) if json else "\n".join(lines)) + "\n"

"""Equality of long texts that fails with the first difference, not a diff.

On a failed ``assert a == b`` pytest's assertion rewriting diffs the two
sides line by line, which takes minutes for texts of a few hundred
kilobytes.  These helpers compare the same way but report only where the
texts first differ.
"""

import pytest


def assert_equal_text(got, want, what: str = "texts") -> None:
    """Fail naming the first differing offset and line unless got == want.

    got and want are both str or both bytes.
    """
    if got == want:
        return
    k = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    newline = "\n" if isinstance(want, str) else b"\n"
    start = want.rfind(newline, 0, k) + 1  # the prefixes agree, so the line starts agree

    def line(text):
        end = text.find(newline, k)
        return text[start:end if end >= 0 else len(text)][:200]

    pytest.fail(f"{what} differ from offset {k} on, in line {want.count(newline, 0, k) + 1} "
                f"(lengths {len(got)} and {len(want)}):\n got: {line(got)!r}\nwant: "
                f"{line(want)!r}", pytrace=False)


def assert_equal_texts(got: list, want: list) -> None:
    """:func:`assert_equal_text` item by item of two lists of texts."""
    if len(got) != len(want):
        pytest.fail(f"{len(got)} texts, want {len(want)}", pytrace=False)
    for k, (g, w) in enumerate(zip(got, want)):
        assert_equal_text(g, w, f"texts of item {k}")

"""Adversarial scaling of the front end.

Each shape is a broken snippet made of one piece repeated n times. It runs
through `tokenize`, `identify_api_elements` (with the fixture KB) and
`extract_constraints` at n and at 2n, and the work is counted as the
`sys.settrace` line events in the package's own frames, never by wall
time, so a count is the same on every machine and every run. Doubling n
may at most double the count, plus a small slack: a front end that
rescans the rest of the snippet at each piece does about four times the
work at 2n.
"""

import sys
from pathlib import Path

import pytest

import fqninfer
from fqninfer import identify_api_elements, tokenize
from fqninfer.constraint import extract_constraints

_PACKAGE = str(Path(fqninfer.__file__).parent)
_N = 200
_SLACK = 100  # line events


def _front_end_line_events(text, kb):
    """(line events inside the package, elements found) for one run of
    tokenize, identify and extract on text."""
    events = 0

    def local(frame, event, arg):
        nonlocal events
        events += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(_PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        sn = tokenize(text)
        elements = identify_api_elements(sn, kb)
        extract_constraints(sn, elements)
    finally:
        sys.settrace(previous)
    return events, len(elements)


@pytest.mark.parametrize(
    "prefix, piece, elements_per_piece",
    [
        # every name is followed by a '<' that never closes
        ("x = ", "A<", 0),
        # the same with a KB name: each one is an element, which the
        # extractor tests for a declared variable past its type arguments
        ("", "Label<", 1),
        # nested unclosed type arguments with commas between them
        ("", "Map<B, ", 0),
        # controls, linear even where each '<' is scanned on its own: a
        # `new` ends each scan at once, and one '<' opens a long list
        ("x = ", "new A<", 1),
        ("Map<B, ", "C, ", 0),
    ],
    ids=["A<", "Label<", "Map<B, ", "new A<", "Map<B, C, "],
)
def test_front_end_work_grows_linearly(kb, prefix, piece, elements_per_piece):
    small, small_elements = _front_end_line_events(prefix + piece * _N, kb)
    large, large_elements = _front_end_line_events(prefix + piece * (2 * _N), kb)
    assert (small_elements, large_elements) == (
        elements_per_piece * _N, elements_per_piece * 2 * _N)
    assert large <= 2 * small + _SLACK, (small, large)

"""Deterministic grading of raw model outputs against an answer key.

The one rule handles multiple-choice answers: the first standalone
choice-letter (or run of letters for multi-select keys) found in the
uppercased output is compared against the key.  Extraction failure is a
score of 0 plus a logged warning — grading never raises on messy output.
"""

from __future__ import annotations

import logging
import re

log = logging.getLogger(__name__)

# A standalone run of choice letters: not butting up against other
# letters/digits on either side, so the "C" in "CASH" never matches but
# "(C)", "C.", "答案：C" and bare "ABD" all do.
_CHOICE_RUN = re.compile(r"(?<![A-Z0-9])[A-D]+(?![A-Z0-9])")
# Text between two runs that still counts as a separator within one answer,
# e.g. "A, B" or "A、B和D" — anything without letters/digits.
_SEPARATOR = re.compile(r"^[^A-Z0-9]*$")


def extract_choice(raw_output: str, multi: bool = False) -> str | None:
    """Pull the answered choice letter(s) out of free-form output.

    Single-select: the first standalone single letter in A–D.
    Multi-select: letters from the first standalone run plus any immediately
    following runs separated only by punctuation, returned sorted
    (order-insensitive comparison).  Returns None when nothing extractable.
    """
    text = raw_output.upper()
    matches = list(_CHOICE_RUN.finditer(text))
    if not matches:
        return None
    if not multi:
        for m in matches:
            if len(m.group()) == 1:
                return m.group()
        return None
    letters = set(matches[0].group())
    end = matches[0].end()
    for m in matches[1:]:
        if not _SEPARATOR.match(text[end : m.start()]):
            break
        letters |= set(m.group())
        end = m.end()
    return "".join(sorted(letters))


def checked_key(answer_key: str) -> str:
    """The normal form of a key: its choice letters, uppercased, once each and
    sorted, which :func:`mark` compares an extracted answer with; or
    ``ValueError``.  The key must hold a choice letter A–D and no other letter
    or digit, so "A, C" is the key AC, but "Answer: B" is refused: its
    letters N, S, W, E, R would otherwise be dropped silently, and its A kept."""
    key = "".join(sorted(set(answer_key.upper()) & set("ABCD")))
    if not key:
        raise ValueError(f"answer key {answer_key!r} holds no choice letter A-D")
    other = next((c for c in answer_key.upper() if c.isalnum() and c not in "ABCD"), None)
    if other is not None:
        raise ValueError(
            f"answer key {answer_key!r} holds {other!r}, which is not a choice letter A-D"
        )
    return key


def mark(raw_output: str, key: str) -> int | None:
    """1 or 0 for an output against a :func:`checked_key` key, or None when
    nothing can be extracted.  Pure, so a caller may reuse a result for equal
    inputs; :func:`grade` turns None into 0 and a warning."""
    got = extract_choice(raw_output, multi=len(key) > 1)
    return None if got is None else int(got == key)


def grade(raw_output: str, answer_key: str) -> int:
    """Score one attempt: 1 iff the extracted answer matches the key.  A key
    :func:`checked_key` refuses, a blank one included, is a ``ValueError``."""
    key = checked_key(answer_key)
    result = mark(raw_output, key)
    if result is None:
        log.warning("could not extract a choice from output %r; scoring 0", raw_output[:80])
        return 0
    return result

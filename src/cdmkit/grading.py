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


def normalize_key(answer_key: str) -> str:
    """The key's choice letters, uppercased, once each and sorted ("" when it
    holds none): the form :func:`mark` compares an extracted answer with."""
    return "".join(sorted(set(answer_key.upper()) & set("ABCD")))


def mark(raw_output: str, key: str) -> int | None:
    """1 or 0 for an output against a :func:`normalize_key` key, or None when
    the attempt cannot be graded: the key holds no choice letter or nothing
    can be extracted.  Pure, so a caller may reuse a result for equal inputs;
    :func:`grade` turns None into 0 and a warning."""
    if not key:
        return None
    got = extract_choice(raw_output, multi=len(key) > 1)
    return None if got is None else int(got == key)


def grade(raw_output: str, answer_key: str) -> int:
    """Score one attempt: 1 iff the extracted answer matches the key."""
    if not answer_key.strip():
        raise ValueError("empty answer key")
    key = normalize_key(answer_key)
    result = mark(raw_output, key)
    if result is not None:
        return result
    if not key:
        log.warning("answer key %r contains no choice letters; scoring 0", answer_key)
    else:
        log.warning("could not extract a choice from output %r; scoring 0", raw_output[:80])
    return 0

import logging

import pytest

from cdmkit import extract_choice, grade
from cdmkit.grading import checked_key, mark


# CJK-flavoured outputs mirror the messy transcripts the extractor exists for.
@pytest.mark.parametrize(
    "raw,key,score",
    [
        ("答案：B", "B", 1),
        ("I think the answer is C", "B", 0),
        ("B。理由是……", "B", 1),
        ("(C)", "C", 1),
        ("C.", "C", 1),
        ("A", "A", 1),
        ("The answer is D because...", "D", 1),
        ("CASH is not an answer", "C", 0),
        ("", "A", 0),
        ("no letters here", "B", 0),
    ],
)
def test_single_select(raw, key, score):
    assert grade(raw, key) == score


@pytest.mark.parametrize(
    "raw,key,score",
    [
        ("BC", "BC", 1),
        ("B, C", "BC", 1),
        ("C,B", "BC", 1),  # order-insensitive
        ("答案：A、B和D", "ABD", 1),
        ("B", "BC", 0),
        ("B, C, D", "BC", 0),
        ("B, C", "CB", 1),  # key letters sorted too
    ],
)
def test_multi_select(raw, key, score):
    assert grade(raw, key) == score


def test_embedded_letters_never_match():
    assert extract_choice("BADGE") is None
    assert extract_choice("grade B+ work") == "B"


def test_multi_extraction_stops_at_words():
    # A trailing explanation does not sweep later letters into the answer.
    assert extract_choice("A, C. Because D is wrong.", multi=True) == "AC"


def test_extraction_failure_logs_and_scores_zero(caplog):
    with caplog.at_level(logging.WARNING, logger="cdmkit.grading"):
        assert grade("∅", "A") == 0
    assert any("could not extract" in r.message for r in caplog.records)


def test_mark_is_silent_and_none_when_ungradable(caplog):
    # aggregate reuses marks across attempts, so mark must log nothing.
    with caplog.at_level(logging.WARNING, logger="cdmkit"):
        assert mark("∅", checked_key("A")) is None
        assert mark("C,B", checked_key("cb")) == 1
        assert mark("B", checked_key("A")) == 0
    assert caplog.records == []


def test_empty_key_raises():
    with pytest.raises(ValueError):
        grade("A", "   ")


def test_key_without_choice_letters_raises():
    with pytest.raises(ValueError, match="'42' holds no choice letter"):
        grade("A", "42")


def test_key_with_other_letters_raises():
    # Read by its letters A-D alone, "Answer: B" would be the key AB.
    with pytest.raises(ValueError, match="'Answer: B' holds 'N', which is not a choice letter"):
        grade("B", "Answer: B")


def test_default_rule_is_deterministic():
    outputs = ["maybe B?", "B!", "b", "  B  "]
    first = [grade(o, "B") for o in outputs]
    assert first == [grade(o, "B") for o in outputs] == [1, 1, 1, 1]

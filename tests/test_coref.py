import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaharvest.coref import (
    CorefCluster,
    Mention,
    NoAntecedentError,
    find_mentions,
    resolve,
    select_representative,
    transform,
)
from qaharvest.corpus import paragraph_from_text


def surfaces(p):
    return [[t.surface for t in s] for s in p.sentences]


# ----------------------------------------------------------- mentions


def test_find_mentions_kinds():
    p = paragraph_from_text("a", 0, "The Panthers became champions. They defeated the Arizona Cardinals 49--15.")
    ms = find_mentions(p)
    kinds = {(m.sentence_index, m.token_start, m.token_end): m.kind for m in ms}
    assert kinds[(0, 0, 1)] == "proper"  # The Panthers
    assert kinds[(1, 0, 0)] == "pronominal"  # they
    assert kinds[(1, 3, 4)] == "proper"  # Arizona Cardinals


def test_pronoun_breaks_proper_run():
    p = paragraph_from_text("a", 0, "Then He Left.")
    ms = find_mentions(p)
    assert {m.kind for m in ms if m.token_start == 1} == {"pronominal"}


def test_nominal_mention():
    p = paragraph_from_text("a", 0, "Drake sailed past. He saw the navigator.")
    ms = find_mentions(p)
    nominals = [m for m in ms if m.kind == "nominal"]
    assert len(nominals) == 1
    assert nominals[0].span_tokens(surfaces(p)) == ["the", "navigator"]


def test_nominal_cap_limit():
    p = paragraph_from_text("a", 0, "the big red dog ran")
    ms = find_mentions(p)
    nominal = [m for m in ms if m.kind == "nominal"]
    assert len(nominal) == 1
    assert nominal[0].span_tokens(surfaces(p)) == ["the", "big", "red"]


# ------------------------------------------------------------ resolve


def test_resolve_pronoun_to_nearest_proper():
    p = paragraph_from_text("a", 0, "Tesla was renowned for his work. He died in 1943.")
    clusters = resolve(p, 1)
    pron_clusters = [c for c in clusters if any(m.kind == "pronominal" and m.sentence_index == 1 for m in c.mentions)]
    assert len(pron_clusters) == 1
    c = pron_clusters[0]
    rep = select_representative(c)
    assert rep.span_tokens(surfaces(p)) == ["tesla"]
    (score,) = [c.pronoun_scores[m] for m in c.pronouns() if m.sentence_index == 1]
    assert score == pytest.approx(0.5)  # one sentence back


def test_resolve_no_pronoun_no_pronoun_cluster():
    p = paragraph_from_text("a", 0, "Tesla worked. Tesla died.")
    clusters = resolve(p, 1)
    assert all(not c.pronouns() for c in clusters)
    # exact-surface match still clusters the two mentions of tesla
    assert any(len(c.mentions) == 2 for c in clusters)


def test_resolve_unresolvable_pronoun():
    p = paragraph_from_text("a", 0, "it broke down quickly")
    clusters = resolve(p, 0)
    assert clusters == []


def test_resolve_same_sentence_antecedent_scores_one():
    p = paragraph_from_text("a", 0, "Tesla said he would win.")
    clusters = resolve(p, 0)
    c = next(c for c in clusters if c.pronouns())
    assert list(c.pronoun_scores.values()) == [pytest.approx(1.0)]


# ----------------------------------------------- representative choice


def proper(s, a, b):
    return Mention(s, a, b, "proper")


def nominal(s, a, b):
    return Mention(s, a, b, "nominal")


def pron(s, a):
    return Mention(s, a, a, "pronominal")


def test_representative_prefers_proper():
    c = CorefCluster([pron(2, 0), proper(1, 3, 5), nominal(0, 0, 1)])
    assert select_representative(c) == proper(1, 3, 5)


def test_representative_nominal_fallback():
    c = CorefCluster([pron(1, 0), nominal(0, 2, 3)])
    assert select_representative(c) == nominal(0, 2, 3)


def test_representative_earliest_wins():
    c = CorefCluster([proper(1, 0, 0), proper(0, 4, 4), pron(1, 2)])
    assert select_representative(c) == proper(0, 4, 4)


def test_representative_tie_longest_span():
    c = CorefCluster([nominal(0, 2, 2), nominal(0, 2, 4), pron(1, 0)])
    assert select_representative(c) == nominal(0, 2, 4)


def test_representative_all_pronouns_errors():
    with pytest.raises(NoAntecedentError, match="no antecedent available"):
        select_representative(CorefCluster([pron(0, 0), pron(1, 0)]))


# ---------------------------------------------------------- transform


def panthers_fixture():
    p = paragraph_from_text(
        "sb50", 0, "The Panthers became champions. They defeated the Arizona Cardinals 49--15"
    )
    clusters = resolve(p, 1)
    return p, transform(surfaces(p), 1, clusters)


def test_transform_appends_antecedent_after_pronoun():
    _, ts = panthers_fixture()
    assert ts.tokens == ["they", "the", "panthers", "defeated", "the", "arizona", "cardinals", "49", "--", "15"]
    assert ts.coref_tags == ["B_PRO", "B_ANT", "I_ANT", "O", "O", "O", "O", "O", "O", "O"]


def test_transform_scores_only_on_antecedent():
    _, ts = panthers_fixture()
    for tag, score in zip(ts.coref_tags, ts.scores):
        if tag in ("B_ANT", "I_ANT"):
            assert score == pytest.approx(0.5)
        else:
            assert score == 0.0


def test_transform_origin_roundtrip():
    p, ts = panthers_fixture()
    assert ts.strip_appended() == [t.surface for t in p.sentences[1]]
    assert ts.origin == [0, None, None, 1, 2, 3, 4, 5, 6, 7]


def test_transform_projects_answer_tags():
    p, ts = panthers_fixture()
    original = ["O", "O", "B_ANS", "I_ANS", "I_ANS", "O", "O", "O"]  # the arizona cardinals
    assert ts.project_answer_tags(original) == ["O", "O", "O", "O", "B_ANS", "I_ANS", "I_ANS", "O", "O", "O"]


def test_transform_identity_without_pronouns():
    p = paragraph_from_text("a", 0, "Nothing referential here at all.")
    ts = transform(surfaces(p), 0, resolve(p, 0))
    assert ts.tokens == surfaces(p)[0]
    assert set(ts.coref_tags) == {"O"}
    assert all(s == 0.0 for s in ts.scores)
    assert ts.origin == list(range(len(ts.tokens)))


def test_transform_two_pronouns_same_cluster():
    p = paragraph_from_text("a", 0, "Tesla invented. He worked hard and he died.")
    clusters = resolve(p, 1)
    ts = transform(surfaces(p), 1, clusters)
    assert ts.tokens == ["he", "tesla", "worked", "hard", "and", "he", "tesla", "died", "."]
    assert ts.coref_tags == ["B_PRO", "B_ANT", "O", "O", "O", "B_PRO", "B_ANT", "O", "O"]
    ant_scores = [s for s, t in zip(ts.scores, ts.coref_tags) if t == "B_ANT"]
    assert len(ant_scores) == 2
    assert all(s == pytest.approx(0.5) for s in ant_scores)


def test_transform_overlapping_pronoun_spans_error():
    a = CorefCluster([proper(0, 0, 0), pron(1, 1)])
    a.pronoun_scores[pron(1, 1)] = 0.5
    b = CorefCluster([proper(0, 2, 2), pron(1, 1)])
    b.pronoun_scores[pron(1, 1)] = 0.5
    with pytest.raises(ValueError, match="overlapping"):
        transform([["x", "y", "z"], ["w", "he", "v"]], 1, [a, b])


def test_transform_skips_all_pronoun_cluster():
    c = CorefCluster([pron(0, 0), pron(0, 2)])
    ts = transform([["he", "met", "him"]], 0, [c])
    assert ts.tokens == ["he", "met", "him"]
    assert set(ts.coref_tags) == {"O"}


TAG_FOLLOWERS = {
    "O": {"O", "B_PRO"},
    "B_PRO": {"I_PRO", "B_ANT", "O", "B_PRO"},
    "I_PRO": {"I_PRO", "B_ANT", "O", "B_PRO"},
    "B_ANT": {"I_ANT", "O", "B_PRO"},
    "I_ANT": {"I_ANT", "O", "B_PRO"},
}


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_transform_tag_grammar_and_score_link(data):
    words = ["tesla", "edison", "worked", "fast", "he", "it", "they", "the", "lab"]
    n_ctx = data.draw(st.integers(0, 2))
    sent_words = lambda: data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=7))
    raw_sentences = [sent_words() for _ in range(n_ctx + 1)]
    text = ". ".join(" ".join(w.capitalize() if i == 0 or w in ("tesla", "edison") else w for i, w in enumerate(s)) for s in raw_sentences)
    p = paragraph_from_text("a", 0, text + ".")
    idx = len(p.sentences) - 1
    clusters = resolve(p, idx)
    ts = transform(surfaces(p), idx, clusters)
    # grammar: I-tags never open, B_ANT only follows a pronoun run
    prev = "O"
    for tag in ts.coref_tags:
        assert tag in TAG_FOLLOWERS[prev], (prev, tag, ts.coref_tags)
        prev = tag
    # score/tag biconditional
    for tag, score in zip(ts.coref_tags, ts.scores):
        assert (score > 0.0) == (tag in ("B_ANT", "I_ANT"))
    # round trip
    assert ts.strip_appended() == surfaces(p)[idx]

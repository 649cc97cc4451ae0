import random
from fractions import Fraction

import pytest

import forms_oracle
from forms_oracle import eval_generator, eval_word, form_wedge
from ramops import forms, suites
from ramops.forms import eval_element, random_sample_point, relation_survey
from ramops.graphalg import ARNOLD_PRESENTATION, R_PRESENTATION, relation_words


def point(**kwargs):
    return {int(k[1:]): Fraction(v) for k, v in kwargs.items()}


def test_eval_generator_examples():
    p = {1: Fraction(0), 2: Fraction(1)}
    assert eval_generator("a", 1, 2, p) == {(): Fraction(-1)}
    assert eval_generator("b", 1, 2, p) == {(1,): Fraction(-1), (2,): Fraction(1)}
    # antisymmetry at any sample point
    rng = random.Random(2)
    for _ in range(5):
        q = random_sample_point((1, 2, 3), rng)
        for which in ("a", "b"):
            flipped = eval_generator(which, 2, 1, q)
            straight = eval_generator(which, 1, 2, q)
            assert flipped == {k: -v for k, v in straight.items()}
        # the log form is orientation symmetric
        assert eval_generator("w", 2, 1, q) == eval_generator("w", 1, 2, q)


def test_eval_generator_guards():
    with pytest.raises(ValueError):
        eval_generator("a", 1, 1, {1: Fraction(0)})
    with pytest.raises(ValueError):
        eval_generator("a", 1, 2, {1: Fraction(3), 2: Fraction(3)})


def test_listed_relations_vanish_at_random_points():
    rng = random.Random(7)
    labels = (1, 2, 3, 4)
    for _ in range(5):
        p = random_sample_point(labels, rng)
        for family in ("aa_sum", "ab_sum", "b_cycle"):
            for inst in relation_words(R_PRESENTATION, family, labels):
                assert eval_element(inst, p) == {}, (family, inst)


def test_unlisted_relations_fail_pointwise():
    p = {1: Fraction(0), 2: Fraction(1), 3: Fraction(3)}
    (sq,) = relation_words(R_PRESENTATION, "a_square", (1, 2))
    assert eval_element(sq, p) != {}
    # one-a cycles do not vanish in the model
    two_cycle = [(1, (("a", 1, 2), ("b", 2, 1)))]
    assert eval_element(two_cycle, p) != {}


def test_evaluation_is_an_algebra_morphism():
    rng = random.Random(13)
    labels = (1, 2, 3, 4)
    letters = [("a", 1, 2), ("b", 2, 3), ("a", 3, 4), ("b", 1, 4), ("w", 1, 3)]
    for _ in range(20):
        p = random_sample_point(labels, rng)
        w1 = tuple(rng.sample(letters, 2))
        w2 = tuple(rng.sample(letters, 2))
        assert eval_word(w1 + w2, p) == form_wedge(eval_word(w1, p), eval_word(w2, p))


def test_de_rham_differential_of_a_is_b():
    # d(1/u) = -du/u**2 with u = x1 - x2, checked coefficientwise
    rng = random.Random(17)
    for _ in range(10):
        p = random_sample_point((1, 2), rng)
        u = p[1] - p[2]
        b = eval_generator("b", 1, 2, p)
        assert b == {(1,): -1 / u**2, (2,): 1 / u**2}


def test_leibniz_on_words_matches_mixed_sum():
    # applying the a -> b derivation to the 3-term a-sum yields the 6-term sum
    rng = random.Random(19)
    labels = (1, 2, 3)
    (aa,) = relation_words(R_PRESENTATION, "aa_sum", labels)
    derived = []
    for coeff, word in aa:
        for pos in range(len(word)):
            if word[pos][0] == "a":
                new = list(word)
                new[pos] = ("b",) + word[pos][1:]
                derived.append((coeff, tuple(new)))
    (ab,) = relation_words(R_PRESENTATION, "ab_sum", labels)
    for _ in range(5):
        p = random_sample_point(labels, rng)
        assert eval_element(derived, p) == eval_element(ab, p)


def test_arnold_relations_hold_for_log_forms():
    rng = random.Random(23)
    labels = (1, 2, 3, 4)
    for _ in range(5):
        p = random_sample_point(labels, rng)
        for inst in relation_words(ARNOLD_PRESENTATION, "arnold_sum", labels):
            assert eval_element(inst, p) == {}


def test_eval_element_matches_the_word_by_word_oracle():
    # every instance of every R and Arnold family, on integer labels and on
    # labels with the place-holder and a name, so that the bits of the
    # differentials follow atom_key; then random words of mixed letters
    rng = random.Random(29)
    for labels in ((1, 2, 3, 4, 5), (2, 5, "*", "x")):
        points = [random_sample_point(labels, rng) for _ in range(3)]
        for pres in (R_PRESENTATION, ARNOLD_PRESENTATION):
            for family in pres.families:
                for inst in relation_words(pres, family, labels):
                    for p in points:
                        assert eval_element(inst, p) == forms_oracle.eval_element(inst, p), (family, inst)
        pairs = [(i, j) for i in labels for j in labels if i != j]
        for p in points:
            for _ in range(40):
                words = [
                    (rng.randint(-3, 3), tuple((rng.choice("abw"), *rng.choice(pairs)) for _ in range(rng.randint(0, 4))))
                    for _ in range(3)
                ]
                assert eval_element(words, p) == forms_oracle.eval_element(words, p), words


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_relation_survey_matches_the_oracle_survey(n, monkeypatch):
    surveys = {seed: relation_survey(n, 20, seed) for seed in range(4)}
    monkeypatch.setattr(forms, "eval_element", forms_oracle.eval_element)
    for seed, survey in surveys.items():
        assert survey == relation_survey(n, 20, seed), seed


def test_relation_survey_verdicts():
    rep = relation_survey(4, trials=10, seed=11)
    by_family = {r["family"]: r for r in rep["families"]}
    assert by_family["aa_sum"]["holds"]
    assert by_family["ab_sum"]["holds"]
    assert by_family["b_cycle"]["holds"]
    assert not by_family["a_square"]["holds"]
    assert by_family["a_square"]["witness"] is not None
    assert not by_family["a_cycle"]["holds"]
    assert rep["listed_families_hold"]


def test_relation_survey_deterministic_given_seed():
    a = relation_survey(3, trials=5, seed=42)
    b = relation_survey(3, trials=5, seed=42)
    assert a == b
    c = relation_survey(3, trials=5, seed=43)
    assert c["seed"] != a["seed"]


def test_sample_point_distinctness():
    rng = random.Random(3)
    for _ in range(20):
        p = random_sample_point((1, 2, 3, 4, 5), rng)
        vals = list(p.values())
        assert len(set(vals)) == len(vals)


def test_survey_input_guards():
    with pytest.raises(ValueError):
        relation_survey(1)
    with pytest.raises(ValueError):
        relation_survey(3, trials=0)


@pytest.mark.parametrize(
    "name,n,trials,message",
    [("all", 5, 0, "trials must be >= 1"), ("all", 7, 20, "bounded"), ("forms", 7, 20, "bounded")],
)
def test_run_suite_checks_its_arguments_before_any_suite(name, n, trials, message, monkeypatch):
    def ran(*args, **kwargs):
        raise AssertionError("a suite ran before the arguments were checked")

    for attr in dir(suites):
        if attr.startswith("suite_"):
            monkeypatch.setattr(suites, attr, ran)
    with pytest.raises(ValueError, match=message):
        suites.run_suite(name, n, trials=trials)

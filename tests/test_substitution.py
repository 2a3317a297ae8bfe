import hashlib
import random

import pytest
from lemma_reference import (apply, images_of, incidence_matrix, is_primitive,
                             reference_prefix, runs_of, word_counts)

from betawords import (
    InvalidInputError,
    QuadraticParams,
    RenyiExpansion,
    Substitution,
    UnsupportedVariantError,
    fixed_point_prefix,
    parry_substitution,
    quadratic_substitution,
)
from betawords import substitution as substitution_module

P31_RUNS = ((("0", 3), ("1", 1)), (("0", 1), ("1", 1)))


class TestSubstitutionType:
    def test_images_validated(self):
        with pytest.raises(InvalidInputError):
            Substitution(())  # no letter
        with pytest.raises(InvalidInputError):
            Substitution(runs_of(("0001",)))  # "1" has no image
        with pytest.raises(InvalidInputError):
            Substitution(runs_of(("0001", "")))  # empty image
        with pytest.raises(InvalidInputError):
            Substitution(runs_of(("0021", "01")))  # letter outside alphabet
        with pytest.raises(InvalidInputError):
            Substitution(runs_of(("1000", "01")))  # axiom image must start with axiom
        with pytest.raises(InvalidInputError):
            Substitution(runs_of(("0", "01")))  # axiom image too short
        for runs in [
            ((("0", 3), ("1", 0)), (("0", 1), ("1", 1))),   # t < 1
            ((("0", 3), ("1", -2)), (("0", 1), ("1", 1))),  # t < 1
            ((("0", 3.0), ("1", 1)), (("0", 1), ("1", 1))),  # t not an int
            ((("0", "3"), ("1", 1)), (("0", 1), ("1", 1))),  # t not an int
            ((("0", 2), ("0", 1), ("1", 1)), (("0", 1), ("1", 1))),  # one letter twice
            ((("0", 1), ("1", 1)), (("0", 1), ("1", 2), ("1", 1))),  # one letter twice
        ]:
            with pytest.raises(InvalidInputError, match="^an image's runs must be maximal"):
                Substitution(runs)
        for runs in [((("0", 3), ("2", 1)), (("0", 1), ("1", 1))),  # past the end
                     ((("0", 3), ("/", 1)), (("0", 1), ("1", 1))),  # below "0"
                     ((("0", 3), ("01", 1)), (("0", 1), ("1", 1))),  # two letters
                     ((("0", 3), ("1", 1)), ((1, 1), ("1", 1)))]:    # not a str
            with pytest.raises(InvalidInputError,
                               match="^image uses a letter outside the alphabet$"):
                Substitution(runs)
        for runs in [("0001", "01"),  # images as words, not runs
                     ((("0", 3, 1), ("1", 1)), (("0", 1), ("1", 1))),  # three items
                     ((("0", 3), "1"), (("0", 1), ("1", 1))),  # a run of one item
                     ((("0", 3), 1), (("0", 1), ("1", 1))),  # a run not a sequence
                     (3, (("0", 1), ("1", 1))),  # an image not a sequence
                     None]:
            with pytest.raises(InvalidInputError, match="^images must be sequences of runs"):
                Substitution(runs)
        with pytest.raises(InvalidInputError,
                           match="^image uses a letter outside the alphabet$"):
            Substitution(((("0", 3), (["1"], 1)), (("0", 1), ("1", 1))))  # unhashable

    def test_any_sequences_of_runs_hold_as_tuples(self):
        listed = Substitution([[["0", 3], ["1", 1]], [("0", 1), ("1", 1)]])
        assert listed.runs == P31_RUNS
        assert listed == Substitution(P31_RUNS)
        assert hash(listed) == hash(Substitution(P31_RUNS))
        assert Substitution(iter(map(iter, P31_RUNS))).runs == P31_RUNS

    def test_the_images_fix_the_alphabet_and_the_axiom(self):
        sub = Substitution(runs_of(("0001", "01")))
        assert sub.runs == P31_RUNS
        assert images_of(sub) == ("0001", "01")
        assert fixed_point_prefix(sub, 9) == "000100010"  # from axiom 0
        assert sub == quadratic_substitution(QuadraticParams(3, 1))
        assert apply(sub, "01") == "000101"  # two letters
        with pytest.raises(InvalidInputError):
            apply(sub, "2")

    def test_a_long_image_is_checked_without_a_call_per_letter(self, monkeypatch):
        # a run of 10^8 letters is one step of the check: `letter` is called
        # once per letter of the alphabet, none per letter of an image
        calls = []
        real = substitution_module.letter

        def spy(index):
            calls.append(index)
            return real(index)

        monkeypatch.setattr(substitution_module, "letter", spy)
        long = (("0", 10 ** 8), ("1", 1))
        assert Substitution((long, long)).runs == (long, long)
        assert len(calls) <= 2
        # letters past either end of the alphabet, "/" below "0" and "2"
        for image in ((("0", 1), ("/", 1), ("1", 1)), (("0", 10 ** 8), ("2", 1))):
            with pytest.raises(InvalidInputError,
                               match="^image uses a letter outside the alphabet$"):
                Substitution((image, (("0", 1), ("1", 1))))

    def test_morphism_property(self):
        sub = quadratic_substitution(QuadraticParams(3, 1))
        rng = random.Random(5)
        for _ in range(50):
            v = "".join(rng.choice("01") for _ in range(rng.randint(0, 8)))
            w = "".join(rng.choice("01") for _ in range(rng.randint(0, 8)))
            assert apply(sub, v + w) == apply(sub, v) + apply(sub, w)

    def test_abelianization(self):
        sub = quadratic_substitution(QuadraticParams(4, 2))
        matrix = incidence_matrix(sub)
        rng = random.Random(9)
        for _ in range(30):
            w = "".join(rng.choice("01") for _ in range(rng.randint(1, 12)))
            before = word_counts(w, 2)
            after = word_counts(apply(sub, w), 2)
            expected = tuple(
                sum(matrix[i][j] * before[j] for j in range(2)) for i in range(2)
            )
            assert after == expected


class TestQuadraticSubstitution:
    def test_running_example(self):
        sub = quadratic_substitution(QuadraticParams(3, 1))
        assert sub.runs == P31_RUNS

    def test_sturmian_boundary_accepted(self):
        sub = quadratic_substitution(QuadraticParams(2, 1))
        assert images_of(sub) == ("001", "01")

    def test_larger_params(self):
        sub = quadratic_substitution(QuadraticParams(4, 2))
        assert images_of(sub) == ("00001", "001")


class TestParrySubstitution:
    def test_quadratic_consistency(self):
        renyi = RenyiExpansion((3,), (1,))
        assert parry_substitution(renyi) == quadratic_substitution(QuadraticParams(3, 1))

    def test_three_letter_example(self):
        sub = parry_substitution(RenyiExpansion((2, 1), (1,)))
        assert sub.runs == ((("0", 2), ("1", 1)), (("0", 1), ("2", 1)),
                            (("0", 1), ("2", 1)))
        assert is_primitive(sub)

    def test_inadmissible_digits_rejected(self):
        with pytest.raises(InvalidInputError):
            parry_substitution(RenyiExpansion((2,), (3,)))

    def test_simple_expansion_rejected(self):
        with pytest.raises(UnsupportedVariantError):
            parry_substitution(RenyiExpansion((2, 1), (0,)))


@pytest.mark.parametrize("digits", ["3 1 (2)", "3 (2 1)", "2 1 (1)",
                                    "3 0 0 (0 1)", "4 2 (1 0 3)"])
def test_apply_equals_letterwise_join(digits):
    sub = parry_substitution(RenyiExpansion.parse(digits))
    images = images_of(sub)
    letters = [chr(48 + j) for j in range(len(images))]
    rng = random.Random(digits)
    for size in (0, 1, 2, 7, 40, 500):
        word = "".join(rng.choice(letters) for _ in range(size))
        assert apply(sub, word) == "".join(images[ord(c) - 48] for c in word)
    # one past the alphabet, "/" (letter index -1) and non-digits
    for bad in (chr(48 + len(images)), "/", "a", " ", "\u0660"):
        with pytest.raises(InvalidInputError):
            apply(sub, "0" + bad + "1")


class TestFixedPoint:
    def test_running_example_prefix(self):
        sub = quadratic_substitution(QuadraticParams(3, 1))
        assert fixed_point_prefix(sub, 14) == "00010001000101"

    def test_length_one_is_axiom(self):
        sub = quadratic_substitution(QuadraticParams(5, 2))
        assert fixed_point_prefix(sub, 1) == "0"

    def test_prefix_stability(self):
        sub = quadratic_substitution(QuadraticParams(3, 1))
        for length in (1, 5, 37, 200, 4096):
            assert fixed_point_prefix(sub, 2 * length)[:length] == \
                fixed_point_prefix(sub, length)

    def test_self_consistency_large(self):
        # u = phi(u) on a million-letter prefix
        sub = quadratic_substitution(QuadraticParams(3, 1))
        prefix = fixed_point_prefix(sub, 10 ** 6)
        reapplied = apply(sub, prefix[: 10 ** 6 // 5])
        assert reapplied[: 10 ** 6] == prefix[: len(reapplied)][: 10 ** 6]

    def test_prefix_stability_across_levels(self):
        # lengths on and next to the image sizes |phi^k(c)|, where the level
        # whose blocks the prefix reads changes
        sub = quadratic_substitution(QuadraticParams(4, 1))
        lengths = sorted({size + d for size in (1, 2, 5, 7, 22, 29, 95, 124, 409)
                          for d in (-1, 0, 1)})
        longest = fixed_point_prefix(sub, lengths[-1])
        for length in lengths:
            assert fixed_point_prefix(sub, length) == longest[:length]


# the five benchmark expansions, a non-minimal one, one whose images
# start with single letters, and every (a, b) with a <= 8; then images that
# outgrow the axiom's, so that the prefix reads many blocks off itself:
# Thue-Morse, and images with a letter that maps to one letter or never grows;
# last, two whose images are far longer than the prefixes read, so that the
# prefix reads images with a run cut: phi(0) = 0^99999 1, and, given as its
# runs, phi(1) = 0^(10^6) 1; and two large alphabets, of 31 and 12 letters,
# whose prefix reads many blocks
PREFIX_SUBJECTS = ["3 (1)", "4 (2)", "3 1 (2)", "3 (2 1)", "2 1 (1)",
                   "4 1 1 (2 1)", "3 0 0 (0 1)"] + [
    f"{a} ({b})" for a in range(2, 9) for b in range(1, a)] + [
    ("01", "10"), ("01", "0111"), ("012", "12", "2220"), ("0121", "2", "01"),
    ("001", "1"), "99999 (1)", ((("0", 1), ("1", 1)), (("0", 10 ** 6), ("1", 1))),
    "2 (" + " ".join(["1"] * 30) + ")", "1 " * 10 + "(1 0)"]


@pytest.mark.parametrize("subject", PREFIX_SUBJECTS, ids=str)
def test_prefix_equals_the_whole_word_reference(subject):
    if isinstance(subject, str):
        sub = parry_substitution(RenyiExpansion.parse(subject))
    else:  # images written out, or runs
        sub = Substitution(subject if isinstance(subject[0][0], tuple)
                           else runs_of(subject))
    reference = reference_prefix(sub, 10 ** 5)
    # each length on and next to an image size phi^k(c) up to 10^5, where
    # the level the prefix reads changes; the sizes of each level are those
    # of the one before times the incidence matrix, so no image past 10^5
    # letters is applied
    matrix = incidence_matrix(sub)
    sizes, level = {1}, [len(image) for image in images_of(sub)]
    while max(level) <= 10 ** 5:
        sizes |= set(level)
        level = [sum(matrix[i][j] * level[i] for i in range(len(level)))
                 for j in range(len(level))]
    lengths = {0, 10 ** 5} | {n + d for n in sizes for d in (-1, 0, 1)
                              if 0 <= n + d <= 10 ** 5}
    for length in sorted(lengths):
        assert fixed_point_prefix(sub, length) == reference[:length], length


# the sha256 of 00000, and of the whole-word reference's prefix of 3 (1)
@pytest.mark.parametrize("digits,length,sha256", [
    ("99999999 (1)", 5, "e7042ac7d09c7bc41c8cfa5749e41858f6980643bc0db1a83cc793d3e24d3f77"),
    ("3 (1)", 10 ** 5, "293be0f71a31d499db3934c49ce6cd6f008d3669305251d21cc220aff65e650a")])
def test_every_level_is_written_by_the_one_phi_step(monkeypatch, digits, length, sha256):
    calls = []
    real = substitution_module._next_images

    def spy(runs, images):
        calls.append((runs, images, real(runs, images)))
        return calls[-1][2]

    monkeypatch.setattr(substitution_module, "_next_images", spy)
    sub = parry_substitution(RenyiExpansion.parse(digits))
    prefix = fixed_point_prefix(sub, length)
    runs = {substitution_module.letter(j): image for j, image in enumerate(sub.runs)}
    plan = {c: [(d, min(t, length)) for d, t in image] for c, image in runs.items()}
    # level 1: the letters themselves; every level is written over the one
    # plan, each run cut to the length
    assert calls[0][1] == {c: c for c in runs}
    assert all(step == plan for step, _, _ in calls)
    assert max(t for image in calls[0][0].values() for _, t in image) <= length
    # every later level grows the one before, and holds at most `length`
    # letters in all
    for (_, _, before), (_, images, after) in zip(calls, calls[1:]):
        assert images is before
        assert sum(map(len, after.values())) <= length
    # the last level is read: its image of 0 holds the prefix, or the next
    # level's images together would not fit in it
    last = calls[-1][2]
    assert len(last["0"]) >= length or sum(map(len, real(plan, last).values())) > length
    # the prefix starts with the last level's image of 0
    assert prefix.startswith(last["0"][:length])
    assert len(prefix) == length
    assert hashlib.sha256(prefix.encode()).hexdigest() == sha256


class TestPrimitivity:
    def test_quadratic_is_primitive(self):
        assert is_primitive(quadratic_substitution(QuadraticParams(3, 1)))

    def test_disconnected_is_not(self):
        assert not is_primitive(Substitution(runs_of(("00", "11"))))

    def test_parry_substitutions_primitive(self):
        for digits in [((3,), (1,)), ((2, 1), (1,)), ((3, 2), (1,)),
                       ((3,), (2, 1)), ((2,), (1, 1, 2))]:
            renyi = RenyiExpansion(*digits)
            from betawords import parry_check
            ok, _ = parry_check(renyi)
            if ok:
                assert is_primitive(parry_substitution(renyi))

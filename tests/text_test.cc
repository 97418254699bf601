#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "text/similarity.h"

namespace sfsql::text {
namespace {

bool Contains(const GramSet& grams, const std::string& gram) {
  return std::binary_search(grams.begin(), grams.end(), gram);
}

TEST(QGramsTest, BasicTrigramsWithPadding) {
  auto grams = QGrams("ab", 3);
  // padded: "PPabPP" -> PPa, Pab, abP, bPP  (P = the out-of-band pad sentinel)
  const std::string p(1, kQGramPad);
  EXPECT_EQ(grams.size(), 4u);
  EXPECT_TRUE(std::is_sorted(grams.begin(), grams.end()));
  EXPECT_TRUE(Contains(grams, p + p + "a"));
  EXPECT_TRUE(Contains(grams, p + "ab"));
  EXPECT_TRUE(Contains(grams, "ab" + p));
  EXPECT_TRUE(Contains(grams, "b" + p + p));
}

TEST(QGramsTest, PadSentinelIsOutOfBand) {
  // The historical '#' pad collided with literal '#' characters: "ab#" padded
  // to "##ab###", sharing *every* gram of "ab" plus one — Jaccard 4/5 instead
  // of the honest 2/6 overlap. The out-of-band sentinel keeps pad-adjacent
  // grams distinct from content grams.
  auto with_hash = QGrams("ab#", 3);
  auto without = QGrams("ab", 3);
  std::vector<std::string> shared;
  std::set_intersection(with_hash.begin(), with_hash.end(), without.begin(),
                        without.end(), std::back_inserter(shared));
  // Only the leading-pad grams agree ("PPa", "Pab"); everything touching the
  // '#' must differ from everything touching the pad.
  EXPECT_EQ(shared.size(), 2u);
  double j = QGramJaccard("ab#", "ab");
  EXPECT_GT(j, 0.0);
  EXPECT_LT(j, 0.5);
}

TEST(QGramsTest, EmptyAndDegenerate) {
  EXPECT_TRUE(QGrams("", 3).empty());
  EXPECT_TRUE(QGrams("abc", 0).empty());
  EXPECT_EQ(QGrams("a", 1).size(), 1u);
  EXPECT_EQ(QGrams("aaaa", 3).size(), 5u);  // "aaa" occurs twice, kept once
}

TEST(QGramsTest, CaseInsensitive) {
  EXPECT_EQ(QGrams("Actor", 3), QGrams("actor", 3));
}

TEST(QGramJaccardTest, IdenticalIsOne) {
  EXPECT_DOUBLE_EQ(QGramJaccard("actor", "Actor"), 1.0);
  EXPECT_DOUBLE_EQ(QGramJaccard("", ""), 1.0);
}

TEST(QGramJaccardTest, DisjointIsZero) {
  EXPECT_DOUBLE_EQ(QGramJaccard("abc", "xyz"), 0.0);
  EXPECT_DOUBLE_EQ(QGramJaccard("abc", ""), 0.0);
}

TEST(QGramJaccardTest, SimilarStringsScoreBetween) {
  double s = QGramJaccard("director", "directors");
  EXPECT_GT(s, 0.5);
  EXPECT_LT(s, 1.0);
  // 10 and 11 padded trigrams, 8 of them shared.
  EXPECT_DOUBLE_EQ(s, 8.0 / 13.0);
}

TEST(QGramJaccardTest, Symmetry) {
  EXPECT_DOUBLE_EQ(QGramJaccard("movie", "movies"),
                   QGramJaccard("movies", "movie"));
}

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3);
  EXPECT_EQ(EditDistance("", "abc"), 3);
  EXPECT_EQ(EditDistance("abc", ""), 3);
  EXPECT_EQ(EditDistance("abc", "abc"), 0);
  EXPECT_EQ(EditDistance("ABC", "abc"), 0);  // case-insensitive
}

TEST(EditSimilarityTest, Range) {
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "xyz"), 0.0);
  double s = EditSimilarity("movie", "movies");
  EXPECT_GT(s, 0.8);
  EXPECT_LT(s, 1.0);
}

TEST(SchemaNameSimilarityTest, ExactMatchesScoreOne) {
  EXPECT_DOUBLE_EQ(SchemaNameSimilarity("actor", "Actor"), 1.0);
}

TEST(SchemaNameSimilarityTest, CompoundNamesMatchTheirWords) {
  // "director_name" should be recognizably similar to "Director" and to "name".
  EXPECT_GT(SchemaNameSimilarity("director_name", "Director"), 0.5);
  EXPECT_GT(SchemaNameSimilarity("director_name", "name"), 0.5);
  // "produce_company" should be similar to both "Company" and "Movie_Producer".
  EXPECT_GT(SchemaNameSimilarity("produce_company", "Company"), 0.5);
  EXPECT_GT(SchemaNameSimilarity("produce_company", "Movie_Producer"), 0.3);
}

TEST(SchemaNameSimilarityTest, WordHitNeverBeatsExactWholeName) {
  double compound = SchemaNameSimilarity("director_name", "name");
  EXPECT_LT(compound, 1.0);
}

TEST(SchemaNameSimilarityTest, UnrelatedNamesScoreLow) {
  EXPECT_LT(SchemaNameSimilarity("gender", "movie_id"), 0.2);
}

TEST(NameProfileTest, ProfileOverloadMatchesStringOverload) {
  // The mapper scores precomputed profiles; they must be bit-identical to
  // the string entry point for every pair.
  const std::vector<std::string> pool = {
      "Movie",        "movie_title",    "director_name", "Person",
      "produce_company", "Company",     "actor?",        "a",
      "",             "Movie_Producer", "birth_country_id"};
  for (const std::string& a : pool) {
    for (const std::string& b : pool) {
      NameProfile pa = BuildNameProfile(a, 3);
      NameProfile pb = BuildNameProfile(b, 3);
      EXPECT_EQ(SchemaNameSimilarity(pa, pb), SchemaNameSimilarity(a, b))
          << "pair: '" << a << "' vs '" << b << "'";
    }
  }
}

}  // namespace
}  // namespace sfsql::text

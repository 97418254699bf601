#ifndef SFSQL_TEXT_SIMILARITY_H_
#define SFSQL_TEXT_SIMILARITY_H_

#include <string>
#include <string_view>
#include <vector>

namespace sfsql::text {

/// Padding sentinel used by QGrams. Deliberately out of band: 0x1F (ASCII unit
/// separator) cannot appear in SQL identifiers, so padding grams can never
/// collide with content grams. (The classic '#' marker conflated identifiers
/// that actually contain '#' — e.g. parser-generated anonymous variables —
/// with their own padding.)
inline constexpr char kQGramPad = '\x1F';

/// A set of q-grams: sorted ascending, without duplicates, so two sets
/// intersect in one merge pass.
using GramSet = std::vector<std::string>;

/// Distinct q-grams of `s` (lower-cased, padded with `q-1` leading and
/// trailing kQGramPad markers, the classic scheme). Empty input yields an
/// empty set.
GramSet QGrams(std::string_view s, int q);

/// Distinct contiguous n-grams of `s`, case-preserving and unpadded (unlike
/// QGrams, which lower-cases and pads for the similarity measure). This is the
/// gram extraction the storage layer's trigram LIKE index shares between
/// indexed strings and pattern literal runs — LIKE is case-sensitive, so the
/// grams must be too. Sorted ascending; strings shorter than `n` yield none.
std::vector<std::string> LiteralNGrams(std::string_view s, int n);

/// Jaccard coefficient |A ∩ B| / |A ∪ B| between the q-gram sets of `a` and `b`.
/// This is the paper's recommended Sim(a, b) between two schema-element names
/// (§4.2). Identical strings (case-insensitive) score 1.0; both-empty scores 1.0.
double QGramJaccard(std::string_view a, std::string_view b, int q = 3);

/// Levenshtein distance between `a` and `b` (case-insensitive), provided as an
/// alternative string similarity backend.
int EditDistance(std::string_view a, std::string_view b);

/// 1 - EditDistance / max(len): normalized edit similarity in [0, 1].
double EditSimilarity(std::string_view a, std::string_view b);

/// Everything SchemaNameSimilarity needs to know about one name, computed
/// once. The mapper profiles every schema-element name at construction and
/// each query name once per Translate, so its scoring loops never
/// re-lowercase, re-split, or re-build q-gram sets.
struct NameProfile {
  std::string lower;               ///< lower-cased full name
  std::vector<std::string> words;  ///< identifier word split
  GramSet grams;                   ///< q-grams of the full name
  std::vector<GramSet> word_grams;  ///< q-grams per word
};

/// Builds the profile of `name` for q-gram size `q`.
NameProfile BuildNameProfile(std::string_view name, int q = 3);

/// Jaccard between two precomputed gram sets (1.0 when both empty).
double GramSetJaccard(const GramSet& a, const GramSet& b);

/// Word-aware schema-name similarity used throughout the mapper: the maximum of
/// (a) q-gram Jaccard on the whole (lower-cased) names and (b) the best Jaccard
/// between individual identifier words, damped by 0.9. This makes compound
/// guesses like "director_name" similar to "name", and "produce_company"
/// similar to "Company", which plain whole-string q-grams under-score. Exact
/// (case-insensitive) matches always score 1.
double SchemaNameSimilarity(std::string_view a, std::string_view b, int q = 3);

/// Profile-based overload; bit-identical to the string version (the string
/// version delegates here), so profiled and direct paths cannot drift.
double SchemaNameSimilarity(const NameProfile& a, const NameProfile& b);

}  // namespace sfsql::text

#endif  // SFSQL_TEXT_SIMILARITY_H_

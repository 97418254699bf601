#include "text/similarity.h"

#include <algorithm>
#include <vector>

#include "common/strings.h"

namespace sfsql::text {

std::vector<std::string> LiteralNGrams(std::string_view s, int n) {
  std::vector<std::string> grams;
  if (n <= 0 || s.size() < static_cast<size_t>(n)) return grams;
  grams.reserve(s.size() - n + 1);
  for (size_t i = 0; i + n <= s.size(); ++i) {
    grams.emplace_back(s.substr(i, n));
  }
  std::sort(grams.begin(), grams.end());
  grams.erase(std::unique(grams.begin(), grams.end()), grams.end());
  return grams;
}

GramSet QGrams(std::string_view s, int q) {
  if (s.empty() || q <= 0) return {};
  std::string padded;
  padded.reserve(s.size() + 2 * (q - 1));
  padded.append(q - 1, kQGramPad);
  padded += ToLower(s);
  padded.append(q - 1, kQGramPad);
  return LiteralNGrams(padded, q);
}

double GramSetJaccard(const GramSet& a, const GramSet& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  size_t intersection = 0;
  for (auto i = a.begin(), j = b.begin(); i != a.end() && j != b.end();) {
    const int c = i->compare(*j);
    if (c == 0) ++intersection;
    if (c <= 0) ++i;
    if (c >= 0) ++j;
  }
  size_t unions = a.size() + b.size() - intersection;
  return static_cast<double>(intersection) / static_cast<double>(unions);
}

double QGramJaccard(std::string_view a, std::string_view b, int q) {
  if (EqualsIgnoreCase(a, b)) return 1.0;
  return GramSetJaccard(QGrams(a, q), QGrams(b, q));
}

int EditDistance(std::string_view a_raw, std::string_view b_raw) {
  std::string a = ToLower(a_raw);
  std::string b = ToLower(b_raw);
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return static_cast<int>(m);
  if (m == 0) return static_cast<int>(n);
  std::vector<int> prev(m + 1);
  std::vector<int> cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      int cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

double EditSimilarity(std::string_view a, std::string_view b) {
  size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(EditDistance(a, b)) /
                   static_cast<double>(longest);
}

NameProfile BuildNameProfile(std::string_view name, int q) {
  NameProfile p;
  p.lower = ToLower(name);
  p.words = SplitIdentifierWords(name);
  p.grams = QGrams(name, q);
  p.word_grams.reserve(p.words.size());
  for (const std::string& w : p.words) p.word_grams.push_back(QGrams(w, q));
  return p;
}

double SchemaNameSimilarity(const NameProfile& a, const NameProfile& b) {
  if (a.lower == b.lower) return 1.0;
  double best = GramSetJaccard(a.grams, b.grams);
  // Compound identifiers: take the best per-word match, damped so that a partial
  // word hit never outranks an exact whole-name match.
  constexpr double kWordDamping = 0.9;
  if (a.words.size() > 1 || b.words.size() > 1) {
    for (size_t i = 0; i < a.words.size(); ++i) {
      for (size_t j = 0; j < b.words.size(); ++j) {
        double word_sim =
            a.words[i] == b.words[j]
                ? 1.0
                : GramSetJaccard(a.word_grams[i], b.word_grams[j]);
        best = std::max(best, kWordDamping * word_sim);
      }
    }
  }
  return best;
}

double SchemaNameSimilarity(std::string_view a, std::string_view b, int q) {
  return SchemaNameSimilarity(BuildNameProfile(a, q), BuildNameProfile(b, q));
}

}  // namespace sfsql::text

#ifndef SFSQL_TEXT_SCHEMA_NAME_INDEX_H_
#define SFSQL_TEXT_SCHEMA_NAME_INDEX_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "text/similarity.h"

namespace sfsql::text {

/// Precomputed NameProfiles for a fixed set of schema-element names (every
/// relation and attribute name of one catalog). Built once at engine
/// construction; afterwards the mapper's hot loops fetch profiles by name
/// instead of re-lowercasing, re-splitting, and re-building q-gram sets for
/// the same few hundred strings on every query.
///
/// Lookup is case-insensitive (profiles are keyed by the lower-cased name),
/// matching the similarity functions' semantics. The index is immutable after
/// construction and therefore freely shared across threads.
class SchemaNameIndex {
 public:
  SchemaNameIndex() = default;

  /// Builds profiles for `names` (duplicates under case folding collapse into
  /// one entry) with q-gram size `q`.
  SchemaNameIndex(const std::vector<std::string>& names, int q);

  /// Profile of `name`, or nullptr if the name is not indexed.
  const NameProfile* Find(std::string_view name) const;

  int q() const { return q_; }
  size_t size() const { return profiles_.size(); }

 private:
  int q_ = 3;
  /// Keyed by the lower-cased name; the node-based map keeps profile addresses
  /// stable so Find can hand out raw pointers.
  std::unordered_map<std::string, NameProfile> profiles_;
};

}  // namespace sfsql::text

#endif  // SFSQL_TEXT_SCHEMA_NAME_INDEX_H_

#ifndef SFSQL_CORE_MAPPER_H_
#define SFSQL_CORE_MAPPER_H_

#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/relation_tree.h"
#include "storage/database.h"
#include "text/schema_name_index.h"
#include "text/similarity_cache.h"

namespace sfsql::core {

/// One candidate relation for a relation tree, with the per-attribute-tree
/// bindings chosen while scoring (argmax attribute of §4.3).
struct RelationMapping {
  int relation_id = -1;
  double similarity = 0.0;
  /// Parallel to RelationTree::attributes: the best-matching attribute ordinal
  /// in `relation_id` for each attribute tree (-1 if the relation has none).
  std::vector<int> attribute_bindings;
};

/// MAP(rt): candidates above the relative threshold, best first (Definition 1).
struct MappingSet {
  std::vector<RelationMapping> candidates;

  const RelationMapping* ForRelation(int relation_id) const {
    for (const RelationMapping& m : candidates) {
      if (m.relation_id == relation_id) return &m;
    }
    return nullptr;
  }
};

/// The Relation Tree Mapper (§2.2.2, §4): scores relation trees against every
/// relation in the database and forms mapping sets with the relative threshold
/// sigma. Needs the database (not just the catalog) because the attribute-level
/// similarity checks whether value conditions are satisfiable by actual tuples
/// (the (m+1)/(n+1) factor of §4.3).
class RelationTreeMapper {
 public:
  /// `index` (precomputed profiles of every schema-element name) and `cache`
  /// (memoized similarity scores) are optional accelerators owned by the
  /// caller — SchemaFreeEngine builds both once per catalog. Either may be
  /// null; scores are identical with or without them.
  RelationTreeMapper(const storage::Database* db, SimilarityConfig config,
                     const text::SchemaNameIndex* index = nullptr,
                     text::SimilarityCache* cache = nullptr)
      : db_(db),
        config_(config),
        index_(index),
        cache_(cache) {}

  /// Sim(rt, R) = Sim(n(rt), R) * prod_i Sim(at_i, R)  (§4.1).
  double Similarity(const RelationTree& rt, int relation_id) const;

  /// Root-level similarity (§4.2): direct name match, best neighbor-name match
  /// damped by k_ref, or — when no relation name was given — k_def improved by
  /// the attribute names used in place of the relation name.
  double RootSimilarity(const RelationTree& rt, int relation_id) const;

  /// Attribute-level similarity (§4.3): max over the relation's attributes of
  /// name similarity times the condition-satisfaction factor. `*best_attribute`
  /// receives the argmax ordinal (-1 if the relation has no attributes).
  double AttributeSimilarity(const AttributeTree& at, int relation_id,
                             int* best_attribute) const;

  /// MAP(rt) under the relative threshold (Definition 1).
  MappingSet Map(const RelationTree& rt) const;

  /// Similarity between a user-guessed name and a schema name; variables
  /// (?x / ?) carry no name information and score k_def.
  double NameSimilarity(const sql::NameRef& guess, std::string_view actual) const;

  /// The storage predicate that probes `cond`: the whole condition, an IN
  /// list included, with LIKE's pattern and optional escape read from the
  /// values. A condition no row can satisfy (no values, a non-string LIKE
  /// pattern) becomes a NULL comparison.
  static storage::ColumnPredicate ProbePredicate(const Condition& cond);

  /// True if some tuple of relation/attribute satisfies `cond` — the m of the
  /// (m+1)/(n+1) factor (§4.3): one Database::AnyTupleSatisfies probe of its
  /// ProbePredicate. Public so benchmarks and differential tests can drive
  /// the probe layer directly.
  bool ConditionSatisfiable(int relation_id, int attr_index,
                            const Condition& cond) const;

  const SimilarityConfig& config() const { return config_; }

 private:
  /// SchemaNameSimilarity(a, b, qgram), memoized through `cache_` and fed
  /// with precomputed profiles from `index_` when available.
  double CachedNameSimilarity(std::string_view a, std::string_view b) const;

  const storage::Database* db_;
  SimilarityConfig config_;
  const text::SchemaNameIndex* index_ = nullptr;
  text::SimilarityCache* cache_ = nullptr;
};

}  // namespace sfsql::core

#endif  // SFSQL_CORE_MAPPER_H_

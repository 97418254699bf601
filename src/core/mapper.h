#ifndef SFSQL_CORE_MAPPER_H_
#define SFSQL_CORE_MAPPER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/relation_tree.h"
#include "storage/database.h"
#include "text/similarity.h"

namespace sfsql::core {

/// One candidate relation for a relation tree, with the per-attribute-tree
/// bindings chosen while scoring (argmax attribute of §4.3).
struct RelationMapping {
  int relation_id = -1;
  double similarity = 0.0;
  /// Parallel to RelationTree::attributes: the best-matching attribute ordinal
  /// in `relation_id` for each attribute tree (-1 if the relation has none).
  std::vector<int> attribute_bindings;
  /// Parallel to attribute_bindings: each attribute tree's similarity to its
  /// binding (the factor it contributed to `similarity`), kept for EXPLAIN.
  std::vector<double> attribute_similarities;
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

/// The profiles of one Translate's query names. Each distinct name (a guess,
/// or a guess stripped of a relation's words) is profiled on first use and
/// reused by every later scorer of the call: mapping, the §5.2 edge boost,
/// the join-spec foreign-key choice and the correlated-attribute fix. One
/// table per call; not thread-safe.
class QueryNameProfiles {
 public:
  explicit QueryNameProfiles(int q) : q_(q) {}

  /// The profile of `name`. The reference stays valid for the table's life.
  const text::NameProfile& Get(std::string_view name);
  /// The profile of `guess`'s name hint; null for ?x and ?, which carry no
  /// name information.
  const text::NameProfile* Get(const sql::NameRef& guess) {
    return guess.has_name_hint() ? &Get(guess.name) : nullptr;
  }

 private:
  struct Entry {
    std::string name;
    text::NameProfile profile;
  };
  int q_;
  /// A query has a handful of names, so a linear scan finds them.
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// The Relation Tree Mapper (§2.2.2, §4): scores relation trees against every
/// relation in the database and forms mapping sets with the relative threshold
/// sigma. Needs the database (not just the catalog) because the attribute-level
/// similarity checks whether value conditions are satisfiable by actual tuples
/// (the (m+1)/(n+1) factor of §4.3).
///
/// Every relation and attribute name of the catalog is profiled once, at
/// construction, and indexed by catalog id; query names come profiled from a
/// QueryNameProfiles. Each score equals text::SchemaNameSimilarity of the two
/// names.
class RelationTreeMapper {
 public:
  RelationTreeMapper(const storage::Database* db, SimilarityConfig config);

  /// Root-level similarity (§4.2): direct name match, best neighbor-name match
  /// damped by k_ref, or — when no relation name was given — k_def improved by
  /// the attribute names used in place of the relation name.
  double RootSimilarity(const RelationTree& rt, int relation_id,
                        QueryNameProfiles& names) const;

  /// Attribute-level similarity (§4.3): max over the relation's attributes of
  /// name similarity times the condition-satisfaction factor. `*best_attribute`
  /// receives the argmax ordinal (-1 if the relation has no attributes).
  double AttributeSimilarity(const AttributeTree& at, int relation_id,
                             QueryNameProfiles& names,
                             int* best_attribute) const;

  /// MAP(rt) under the relative threshold (Definition 1):
  /// Sim(rt, R) = Sim(n(rt), R) * prod_i Sim(at_i, R)  (§4.1).
  MappingSet Map(const RelationTree& rt, QueryNameProfiles& names) const;
  /// As above, profiling the tree's names afresh.
  MappingSet Map(const RelationTree& rt) const;

  /// Similarity between a profiled guess and the name of `relation_id`;
  /// a null guess (?x / ?) carries no name information and scores k_def.
  double RelationNameSimilarity(const text::NameProfile* guess,
                                int relation_id) const;
  /// As above, against attribute `attribute` of `relation_id`.
  double AttributeNameSimilarity(const text::NameProfile* guess,
                                 int relation_id, int attribute) const;

  /// Users habitually qualify attribute guesses with the entity name
  /// ("movie_title"), and schemas do the same in key columns ("movie_id").
  /// This is `guess` without `relation_id`'s own name words, profiled through
  /// `names` — or null when the guess did not carry them, so a bare "year" is
  /// never inflated against every stripped "*_year".
  const text::NameProfile* QualifiedRemainder(const text::NameProfile& guess,
                                              int relation_id,
                                              QueryNameProfiles& names) const;
  /// Similarity between a qualified remainder and attribute `attribute` of
  /// `relation_id` stripped of the same relation words ("title" vs "id" and
  /// "title" breaks exactly the ties above); 0 when nothing of the attribute
  /// name is left.
  double RemainderSimilarity(const text::NameProfile& remainder,
                             int relation_id, int attribute) const;

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
  const storage::Database* db_;
  SimilarityConfig config_;
  /// Profiles of the catalog's names, by relation id (and attribute ordinal).
  std::vector<text::NameProfile> relation_names_;
  std::vector<std::vector<text::NameProfile>> attribute_names_;
  /// Each attribute name without its relation's words (empty `lower` when
  /// nothing is left).
  std::vector<std::vector<text::NameProfile>> attribute_remainders_;
};

}  // namespace sfsql::core

#endif  // SFSQL_CORE_MAPPER_H_

#include "core/mapper.h"

#include <algorithm>

#include "common/strings.h"
#include "exec/like.h"
#include "text/similarity.h"

namespace sfsql::core {

double RelationTreeMapper::CachedNameSimilarity(std::string_view a,
                                                std::string_view b) const {
  auto compute = [&] {
    // Schema-side names hit the precomputed index; everything else (query
    // tokens, stripped remainders) is profiled on the fly. The index is only
    // trusted when it was built for our q-gram size.
    const text::NameProfile* pa =
        index_ != nullptr && index_->q() == config_.qgram ? index_->Find(a)
                                                          : nullptr;
    const text::NameProfile* pb =
        index_ != nullptr && index_->q() == config_.qgram ? index_->Find(b)
                                                          : nullptr;
    text::NameProfile local_a, local_b;
    if (pa == nullptr) {
      local_a = text::BuildNameProfile(a, config_.qgram);
      pa = &local_a;
    }
    if (pb == nullptr) {
      local_b = text::BuildNameProfile(b, config_.qgram);
      pb = &local_b;
    }
    return text::SchemaNameSimilarity(*pa, *pb);
  };
  if (cache_ != nullptr) return cache_->GetOrCompute(a, b, config_.qgram, compute);
  return compute();
}

double RelationTreeMapper::NameSimilarity(const sql::NameRef& guess,
                                          std::string_view actual) const {
  if (guess.has_name_hint()) {
    return CachedNameSimilarity(guess.name, actual);
  }
  // ?x and ? carry no name information: neutral small default, letting the
  // condition-satisfaction factor and the join structure disambiguate.
  return config_.kdef;
}

double RelationTreeMapper::RootSimilarity(const RelationTree& rt,
                                          int relation_id) const {
  const catalog::Catalog& cat = db_->catalog();
  const catalog::Relation& rel = cat.relation(relation_id);

  auto root_sim_for_name = [&](const sql::NameRef& name) {
    double s = NameSimilarity(name, rel.name);
    if (name.has_name_hint()) {
      // Normalization tolerance: the guessed name may actually be the name of
      // a relation adjacent to R (§4.2), e.g. actor?.name? -> Person.name via
      // the Actor-Person FK. Sim' = k_ref * Sim.
      for (const catalog::SchemaEdge& e : cat.Neighbors(relation_id)) {
        const catalog::Relation& neighbor = cat.relation(e.neighbor);
        double via = config_.kref * NameSimilarity(name, neighbor.name);
        s = std::max(s, via);
      }
    }
    return s;
  };

  if (rt.relation.specified()) {
    return root_sim_for_name(rt.relation);
  }
  // No relation name: start from k_def, then try each attribute name in place
  // of the relation name and keep the best (§4.2, last paragraph).
  double s = config_.kdef;
  for (const AttributeTree& at : rt.attributes) {
    if (!at.name.has_name_hint()) continue;
    s = std::max(s, root_sim_for_name(at.name));
  }
  return s;
}

storage::ColumnPredicate RelationTreeMapper::ProbePredicate(
    const Condition& cond) {
  using storage::ColumnPredicate;
  // A NULL comparison: no row satisfies it, and no probe is counted for it.
  if (cond.values.empty()) return ColumnPredicate::Compare("=", {});
  if (cond.op == "in") return ColumnPredicate::In(cond.values);
  if (cond.op == "like") {
    if (!cond.values[0].is_string()) return ColumnPredicate::Compare("=", {});
    const char escape = cond.values.size() > 1 && cond.values[1].is_string()
                            ? exec::LikeEscapeChar(cond.values[1].AsString())
                            : '\0';
    return ColumnPredicate::Like(cond.values[0].AsString(), escape);
  }
  return ColumnPredicate::Compare(cond.op, cond.values[0]);
}

bool RelationTreeMapper::ConditionSatisfiable(int relation_id, int attr_index,
                                              const Condition& cond) const {
  // The database answers out-of-range ordinals with false.
  return db_->AnyTupleSatisfies(relation_id, attr_index, ProbePredicate(cond));
}

namespace {

/// True if a value of `cond`'s type could ever satisfy the condition on an
/// attribute declared as `attr_type`.
bool TypeCompatible(const Condition& cond, catalog::ValueType attr_type) {
  for (const storage::Value& v : cond.values) {
    if (v.is_null()) continue;
    bool ok = false;
    switch (attr_type) {
      case catalog::ValueType::kInt64:
      case catalog::ValueType::kDouble:
        ok = v.is_numeric();
        break;
      case catalog::ValueType::kString:
        ok = v.is_string();
        break;
      case catalog::ValueType::kBool:
        ok = v.is_bool();
        break;
      case catalog::ValueType::kNull:
        ok = true;
        break;
    }
    if (ok) return true;  // "in" lists are compatible if any member is
  }
  return cond.values.empty();
}

}  // namespace

namespace {

/// Drops the relation's own name words from an identifier: users habitually
/// qualify attribute guesses with the entity name ("movie_title"), and schemas
/// do the same in key columns ("movie_id"). Comparing the stripped remainders
/// ("title" vs "id"/"title") breaks exactly those ties.
std::string StripRelationWords(std::string_view name,
                               const std::vector<std::string>& relation_words) {
  std::vector<std::string> kept;
  for (const std::string& w : SplitIdentifierWords(name)) {
    bool in_relation = false;
    for (const std::string& rw : relation_words) {
      if (w == rw) in_relation = true;
    }
    if (!in_relation) kept.push_back(w);
  }
  return Join(kept, "_");
}

}  // namespace

double RelationTreeMapper::AttributeSimilarity(const AttributeTree& at,
                                               int relation_id,
                                               int* best_attribute) const {
  const catalog::Relation& rel = db_->catalog().relation(relation_id);
  const std::vector<std::string> rel_words = SplitIdentifierWords(rel.name);
  // Each condition becomes its probe predicate once, not once per attribute.
  std::vector<storage::ColumnPredicate> probes;
  probes.reserve(at.conditions.size());
  for (const Condition& cond : at.conditions) {
    probes.push_back(ProbePredicate(cond));
  }
  double best = 0.0;
  int best_idx = -1;
  for (int i = 0; i < static_cast<int>(rel.attributes.size()); ++i) {
    double raw = NameSimilarity(at.name, rel.attributes[i].name);
    if (at.name.has_name_hint()) {
      std::string stripped_guess = StripRelationWords(at.name.name, rel_words);
      std::string stripped_attr =
          StripRelationWords(rel.attributes[i].name, rel_words);
      // Only when the guess itself carried the relation qualifier: otherwise
      // a bare "year" would be inflated against every stripped "*_year".
      bool guess_was_qualified =
          !stripped_guess.empty() &&
          !EqualsIgnoreCase(stripped_guess, ToLower(at.name.name));
      if (guess_was_qualified && !stripped_attr.empty()) {
        raw = std::max(raw, CachedNameSimilarity(stripped_guess, stripped_attr));
      }
    }
    // Floor the name similarity at k_def: a compound guess like
    // "produce_company" shares no q-grams with "name", yet a satisfiable
    // condition ("20th Century Fox" appears in Company.name) should still be
    // able to carry the binding.
    double name_sim = std::max(raw, config_.kdef);
    int n = static_cast<int>(at.conditions.size());
    int m = 0;
    bool type_clash = false;
    for (size_t c = 0; c < probes.size(); ++c) {
      if (db_->AnyTupleSatisfies(relation_id, i, probes[c])) {
        ++m;
      } else if (!TypeCompatible(at.conditions[c], rel.attributes[i].type)) {
        type_clash = true;
      }
    }
    double sim = name_sim * (static_cast<double>(m) + 1.0) /
                 (static_cast<double>(n) + 1.0);
    if (type_clash) sim *= config_.type_mismatch_penalty;
    if (sim > best) {
      best = sim;
      best_idx = i;
    }
  }
  if (best_attribute != nullptr) *best_attribute = best_idx;
  return best;
}

double RelationTreeMapper::Similarity(const RelationTree& rt,
                                      int relation_id) const {
  double sim = RootSimilarity(rt, relation_id);
  for (const AttributeTree& at : rt.attributes) {
    sim *= AttributeSimilarity(at, relation_id, nullptr);
  }
  return sim;
}

MappingSet RelationTreeMapper::Map(const RelationTree& rt) const {
  const catalog::Catalog& cat = db_->catalog();
  std::vector<RelationMapping> all;
  all.reserve(cat.num_relations());
  for (int r = 0; r < cat.num_relations(); ++r) {
    RelationMapping m;
    m.relation_id = r;
    m.similarity = RootSimilarity(rt, r);
    m.attribute_bindings.reserve(rt.attributes.size());
    for (const AttributeTree& at : rt.attributes) {
      int best = -1;
      m.similarity *= AttributeSimilarity(at, r, &best);
      m.attribute_bindings.push_back(best);
    }
    all.push_back(std::move(m));
  }
  double max_sim = 0.0;
  for (const RelationMapping& m : all) max_sim = std::max(max_sim, m.similarity);

  MappingSet out;
  if (max_sim <= 0.0) return out;
  for (RelationMapping& m : all) {
    // Definition 1: keep relations above the *relative* threshold, so a single
    // confident match stands alone while a poor guess keeps several candidates.
    if (m.similarity > config_.sigma * max_sim) {
      out.candidates.push_back(std::move(m));
    }
  }
  std::sort(out.candidates.begin(), out.candidates.end(),
            [](const RelationMapping& a, const RelationMapping& b) {
              if (a.similarity != b.similarity) return a.similarity > b.similarity;
              return a.relation_id < b.relation_id;
            });
  return out;
}

}  // namespace sfsql::core

#include "core/mapper.h"

#include <algorithm>

#include "common/strings.h"
#include "exec/like.h"
#include "text/similarity.h"

namespace sfsql::core {

namespace {

/// `words` joined by '_', without those in `drop`.
std::string WordsWithout(const std::vector<std::string>& words,
                         const std::vector<std::string>& drop) {
  std::vector<std::string> kept;
  for (const std::string& w : words) {
    if (std::find(drop.begin(), drop.end(), w) == drop.end()) kept.push_back(w);
  }
  return Join(kept, "_");
}

}  // namespace

const text::NameProfile& QueryNameProfiles::Get(std::string_view name) {
  for (const std::unique_ptr<Entry>& e : entries_) {
    if (e->name == name) return e->profile;
  }
  entries_.push_back(std::make_unique<Entry>(
      Entry{std::string(name), text::BuildNameProfile(name, q_)}));
  return entries_.back()->profile;
}

RelationTreeMapper::RelationTreeMapper(const storage::Database* db,
                                       SimilarityConfig config)
    : db_(db), config_(config) {
  const catalog::Catalog& cat = db_->catalog();
  const int q = config_.qgram;
  relation_names_.reserve(cat.num_relations());
  attribute_names_.resize(cat.num_relations());
  attribute_remainders_.resize(cat.num_relations());
  for (int r = 0; r < cat.num_relations(); ++r) {
    const catalog::Relation& rel = cat.relation(r);
    relation_names_.push_back(text::BuildNameProfile(rel.name, q));
    const std::vector<std::string>& rel_words = relation_names_.back().words;
    for (const catalog::Attribute& attr : rel.attributes) {
      attribute_names_[r].push_back(text::BuildNameProfile(attr.name, q));
      attribute_remainders_[r].push_back(text::BuildNameProfile(
          WordsWithout(attribute_names_[r].back().words, rel_words), q));
    }
  }
}

double RelationTreeMapper::RelationNameSimilarity(
    const text::NameProfile* guess, int relation_id) const {
  // ?x and ? carry no name information: neutral small default, letting the
  // condition-satisfaction factor and the join structure disambiguate.
  if (guess == nullptr) return config_.kdef;
  return text::SchemaNameSimilarity(*guess, relation_names_[relation_id]);
}

double RelationTreeMapper::AttributeNameSimilarity(
    const text::NameProfile* guess, int relation_id, int attribute) const {
  if (guess == nullptr) return config_.kdef;
  return text::SchemaNameSimilarity(*guess,
                                    attribute_names_[relation_id][attribute]);
}

const text::NameProfile* RelationTreeMapper::QualifiedRemainder(
    const text::NameProfile& guess, int relation_id,
    QueryNameProfiles& names) const {
  const std::string remainder =
      WordsWithout(guess.words, relation_names_[relation_id].words);
  if (remainder.empty() || remainder == guess.lower) return nullptr;
  return &names.Get(remainder);
}

double RelationTreeMapper::RemainderSimilarity(
    const text::NameProfile& remainder, int relation_id, int attribute) const {
  const text::NameProfile& attr = attribute_remainders_[relation_id][attribute];
  return attr.lower.empty() ? 0.0 : text::SchemaNameSimilarity(remainder, attr);
}

double RelationTreeMapper::RootSimilarity(const RelationTree& rt,
                                          int relation_id,
                                          QueryNameProfiles& names) const {
  const catalog::Catalog& cat = db_->catalog();

  auto root_sim_for_name = [&](const sql::NameRef& name) {
    const text::NameProfile* guess = names.Get(name);
    double s = RelationNameSimilarity(guess, relation_id);
    if (guess != nullptr) {
      // Normalization tolerance: the guessed name may actually be the name of
      // a relation adjacent to R (§4.2), e.g. actor?.name? -> Person.name via
      // the Actor-Person FK. Sim' = k_ref * Sim.
      for (const catalog::SchemaEdge& e : cat.Neighbors(relation_id)) {
        s = std::max(s, config_.kref * RelationNameSimilarity(guess, e.neighbor));
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

double RelationTreeMapper::AttributeSimilarity(const AttributeTree& at,
                                               int relation_id,
                                               QueryNameProfiles& names,
                                               int* best_attribute) const {
  const catalog::Relation& rel = db_->catalog().relation(relation_id);
  const text::NameProfile* guess = names.Get(at.name);
  const text::NameProfile* remainder =
      guess != nullptr ? QualifiedRemainder(*guess, relation_id, names)
                       : nullptr;
  // Each condition becomes its probe predicate once, not once per attribute.
  std::vector<storage::ColumnPredicate> probes;
  probes.reserve(at.conditions.size());
  for (const Condition& cond : at.conditions) {
    probes.push_back(ProbePredicate(cond));
  }
  double best = 0.0;
  int best_idx = -1;
  for (int i = 0; i < static_cast<int>(rel.attributes.size()); ++i) {
    double raw = AttributeNameSimilarity(guess, relation_id, i);
    if (remainder != nullptr) {
      raw = std::max(raw, RemainderSimilarity(*remainder, relation_id, i));
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

MappingSet RelationTreeMapper::Map(const RelationTree& rt) const {
  QueryNameProfiles names(config_.qgram);
  return Map(rt, names);
}

MappingSet RelationTreeMapper::Map(const RelationTree& rt,
                                   QueryNameProfiles& names) const {
  const catalog::Catalog& cat = db_->catalog();
  std::vector<RelationMapping> all;
  all.reserve(cat.num_relations());
  for (int r = 0; r < cat.num_relations(); ++r) {
    RelationMapping m;
    m.relation_id = r;
    m.similarity = RootSimilarity(rt, r, names);
    m.attribute_bindings.reserve(rt.attributes.size());
    m.attribute_similarities.reserve(rt.attributes.size());
    for (const AttributeTree& at : rt.attributes) {
      int best = -1;
      const double sim = AttributeSimilarity(at, r, names, &best);
      m.similarity *= sim;
      m.attribute_bindings.push_back(best);
      m.attribute_similarities.push_back(sim);
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

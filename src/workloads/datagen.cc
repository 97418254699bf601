#include "workloads/datagen.h"

#include <algorithm>
#include <set>

#include "common/macros.h"
#include "common/strings.h"

namespace sfsql::workloads {

using catalog::Attribute;
using catalog::Catalog;
using catalog::ValueType;
using storage::Row;
using storage::Value;

namespace {

const char* const kFirstNames[] = {
    "James", "Mary", "Robert", "Patricia", "John",  "Jennifer", "Michael",
    "Linda", "David", "Elena",  "Wei",     "Aisha", "Carlos",   "Yuki",
    "Priya", "Omar",  "Ingrid", "Tariq",   "Sofia", "Dmitri"};
const char* const kLastNames[] = {
    "Smith",  "Johnson", "Chen",   "Garcia", "Miller",   "Davis", "Nakamura",
    "Wilson", "Okafor",  "Müller", "Rossi",  "Kowalski", "Patel", "Haddad",
    "Larsen", "Novak",   "Silva",  "Dubois", "Yamada",   "Brown"};
const char* const kNouns[] = {
    "River",  "Mountain", "Shadow", "Ember",  "Harbor", "Signal", "Meadow",
    "Falcon", "Compass",  "Lantern", "Orchid", "Quartz", "Beacon", "Willow",
    "Summit", "Canyon",   "Aurora", "Cinder", "Drift",   "Echo"};
const char* const kAdjectives[] = {
    "Silent", "Crimson", "Golden",  "Hidden", "Distant", "Broken", "Eternal",
    "Frozen", "Radiant", "Vanished", "Savage", "Gentle",  "Hollow", "Lucky",
    "Velvet", "Stormy",  "Ancient", "Brave",   "Quiet",   "Wild"};
const char* const kGenres[] = {"Drama",   "Comedy", "Action Adventure",
                               "Thriller", "Romance", "Documentary",
                               "Horror",  "Sci-Fi",  "Animation", "Mystery"};
const char* const kCities[] = {"Ann Arbor", "Lisbon", "Kyoto",  "Nairobi",
                               "Oslo",      "Austin", "Kraków", "Montréal",
                               "Adelaide",  "Seoul"};

bool NameContains(std::string_view attr_name, std::string_view word) {
  for (const std::string& w : SplitIdentifierWords(attr_name)) {
    if (EqualsIgnoreCase(w, word)) return true;
  }
  return false;
}

}  // namespace

enum class DataGenerator::AttrClass : uint8_t {
  kBirthYear,
  kYear,
  kRuntime,
  kMoney,
  kCredits,
  kCapacity,
  kVotes,
  kSmallSeq,
  kGenericInt,
  kScore,
  kGenericDouble,
  kBool,
  kGender,
  kGenre,
  kCity,
  kResult,
  kDate,
  kEmail,
  kPersonName,
  kTitle,
  kGenericString,
  kNull,
};

DataGenerator::AttrClass DataGenerator::Classify(const Attribute& attr) {
  const std::string& n = attr.name;
  switch (attr.type) {
    case ValueType::kInt64:
      if (NameContains(n, "birth")) return AttrClass::kBirthYear;
      if (NameContains(n, "year")) return AttrClass::kYear;
      if (NameContains(n, "runtime") || NameContains(n, "duration")) {
        return AttrClass::kRuntime;
      }
      if (NameContains(n, "gross") || NameContains(n, "budget") ||
          NameContains(n, "revenue")) {
        return AttrClass::kMoney;
      }
      if (NameContains(n, "credits") || NameContains(n, "units")) {
        return AttrClass::kCredits;
      }
      if (NameContains(n, "capacity") || NameContains(n, "size")) {
        return AttrClass::kCapacity;
      }
      if (NameContains(n, "votes") || NameContains(n, "count")) {
        return AttrClass::kVotes;
      }
      if (NameContains(n, "number") || NameContains(n, "sequence") ||
          NameContains(n, "level")) {
        return AttrClass::kSmallSeq;
      }
      return AttrClass::kGenericInt;
    case ValueType::kDouble:
      if (NameContains(n, "score") || NameContains(n, "rating") ||
          NameContains(n, "gpa") || NameContains(n, "grade")) {
        return AttrClass::kScore;
      }
      return AttrClass::kGenericDouble;
    case ValueType::kBool:
      return AttrClass::kBool;
    case ValueType::kString:
      if (NameContains(n, "gender")) return AttrClass::kGender;
      if (NameContains(n, "genre") || NameContains(n, "category")) {
        return AttrClass::kGenre;
      }
      if (NameContains(n, "city") || NameContains(n, "location")) {
        return AttrClass::kCity;
      }
      if (NameContains(n, "result")) return AttrClass::kResult;
      if (NameContains(n, "date")) return AttrClass::kDate;
      if (NameContains(n, "email")) return AttrClass::kEmail;
      if (NameContains(n, "name") || NameContains(n, "nickname")) {
        return AttrClass::kPersonName;
      }
      if (NameContains(n, "title") || NameContains(n, "word") ||
          NameContains(n, "label") || NameContains(n, "text") ||
          NameContains(n, "description")) {
        return AttrClass::kTitle;
      }
      return AttrClass::kGenericString;
    case ValueType::kNull:
      return AttrClass::kNull;
  }
  return AttrClass::kNull;
}

Value DataGenerator::ValueForClass(AttrClass cls, int64_t row_index) {
  auto pick = [&](const char* const* pool, size_t size) {
    return pool[Next() % size];
  };
  switch (cls) {
    // People in these data sets are adults: birth years stay well before the
    // release/enrollment years the benchmark queries filter on.
    case AttrClass::kBirthYear:
      return Value::Int(UniformInt(1920, 1985));
    case AttrClass::kYear:
      return Value::Int(UniformInt(1950, 2024));
    case AttrClass::kRuntime:
      return Value::Int(UniformInt(60, 200));
    case AttrClass::kMoney:
      return Value::Int(UniformInt(100000, 500000000));
    case AttrClass::kCredits:
      return Value::Int(UniformInt(1, 6));
    case AttrClass::kCapacity:
      return Value::Int(UniformInt(10, 500));
    case AttrClass::kVotes:
      return Value::Int(UniformInt(0, 100000));
    case AttrClass::kSmallSeq:
      return Value::Int(UniformInt(1, 9));
    case AttrClass::kGenericInt:
      return Value::Int(UniformInt(0, 999));
    case AttrClass::kScore:
      return Value::Double(static_cast<double>(UniformInt(0, 100)) / 10.0);
    case AttrClass::kGenericDouble:
      return Value::Double(static_cast<double>(UniformInt(0, 10000)) / 100.0);
    case AttrClass::kBool:
      return Value::Bool((Next() & 1) != 0);
    case AttrClass::kGender:
      return Value::String((Next() & 1) ? "male" : "female");
    case AttrClass::kGenre:
      return Value::String(pick(kGenres, std::size(kGenres)));
    case AttrClass::kCity:
      return Value::String(pick(kCities, std::size(kCities)));
    case AttrClass::kResult:
      return Value::String((Next() & 1) ? "won" : "nominated");
    case AttrClass::kDate:
      return Value::String(StrCat(UniformInt(1990, 2024), "-",
                                  UniformInt(1, 12), "-", UniformInt(1, 28)));
    case AttrClass::kEmail:
      return Value::String(StrCat("user", row_index, "@example.edu"));
    case AttrClass::kPersonName:
      return Value::String(StrCat(pick(kFirstNames, std::size(kFirstNames)),
                                  " ",
                                  pick(kLastNames, std::size(kLastNames))));
    case AttrClass::kTitle:
      return Value::String(
          StrCat(pick(kAdjectives, std::size(kAdjectives)), " ",
                 pick(kNouns, std::size(kNouns))));
    case AttrClass::kGenericString:
      return Value::String(StrCat(pick(kNouns, std::size(kNouns)), " ",
                                  UniformInt(1, 99)));
    case AttrClass::kNull:
      return Value::Null_();
  }
  return Value::Null_();
}

uint64_t DataGenerator::Next() {
  // xorshift64*: deterministic across platforms, no <random> distribution
  // portability concerns.
  state_ ^= state_ >> 12;
  state_ ^= state_ << 25;
  state_ ^= state_ >> 27;
  return state_ * 0x2545F4914F6CDD1Dull;
}

int64_t DataGenerator::UniformInt(int64_t lo, int64_t hi) {
  if (hi <= lo) return lo;
  return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
}

Value DataGenerator::ValueFor(const Attribute& attr, int64_t row_index) {
  return ValueForClass(Classify(attr), row_index);
}

Status DataGenerator::Populate(storage::Database* db, int rows_per_relation,
                               const std::map<std::string, int>& overrides,
                               int scale) {
  if (scale < 1) scale = 1;
  const Catalog& cat = db->catalog();
  const int n = cat.num_relations();

  // FK metadata per (relation, attribute).
  std::vector<std::vector<int>> fk_of_attr(n);
  for (int r = 0; r < n; ++r) {
    fk_of_attr[r].assign(cat.relation(r).attributes.size(), -1);
  }
  for (int f = 0; f < cat.num_foreign_keys(); ++f) {
    const catalog::ForeignKey& fk = cat.foreign_key(f);
    fk_of_attr[fk.from_relation][fk.from_attribute] = f;
  }

  // Topological-ish order: repeatedly emit relations whose non-self FK targets
  // are already emitted; cycles fall back to emission order (their FKs may
  // then reference already-inserted rows or NULL).
  std::vector<int> order;
  std::vector<bool> emitted(n, false);
  for (int pass = 0; pass < n && static_cast<int>(order.size()) < n; ++pass) {
    for (int r = 0; r < n; ++r) {
      if (emitted[r]) continue;
      bool ready = true;
      for (size_t a = 0; a < fk_of_attr[r].size(); ++a) {
        int f = fk_of_attr[r][a];
        if (f < 0) continue;
        int target = cat.foreign_key(f).to_relation;
        if (target != r && !emitted[target]) ready = false;
      }
      if (ready) {
        order.push_back(r);
        emitted[r] = true;
      }
    }
  }
  for (int r = 0; r < n; ++r) {
    if (!emitted[r]) order.push_back(r);  // cycle fallback
  }

  for (int r : order) {
    const catalog::Relation& rel = cat.relation(r);
    int rows = rows_per_relation;
    if (auto it = overrides.find(rel.name); it != overrides.end()) {
      rows = it->second;
    }
    rows *= scale;
    std::vector<Row> batch;
    batch.reserve(rows);
    // Each FK attribute draws from its target's rows. A self-reference draws
    // from the table's rows followed by the batch so far: the rows a
    // row-at-a-time load would have inserted before it, so the whole
    // relation still loads as one batch.
    std::vector<std::shared_ptr<const storage::Table>> targets(
        rel.attributes.size());
    for (size_t a = 0; a < rel.attributes.size(); ++a) {
      if (fk_of_attr[r][a] >= 0) {
        targets[a] = db->Pin(cat.foreign_key(fk_of_attr[r][a]).to_relation);
      }
    }
    std::set<Row, bool (*)(const Row&, const Row&)> seen_keys(
        [](const Row& a, const Row& b) {
          for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
            int cmp = a[i].Compare(b[i]);
            if (cmp != 0) return cmp < 0;
          }
          return a.size() < b.size();
        });
    const bool single_int_pk =
        rel.primary_key.size() == 1 && fk_of_attr[r][rel.primary_key[0]] < 0 &&
        rel.attributes[rel.primary_key[0]].type == ValueType::kInt64;

    // Classify every attribute once: the per-row loop below runs rows×attrs
    // times (millions of cells at bench scale) and must not re-split
    // identifier words per cell.
    std::vector<AttrClass> attr_class;
    attr_class.reserve(rel.attributes.size());
    for (const Attribute& attr : rel.attributes) {
      attr_class.push_back(Classify(attr));
    }

    for (int i = 0; i < rows; ++i) {
      Row row(rel.attributes.size());
      bool ok = true;
      for (int attempt = 0; attempt < 20 && ok; ++attempt) {
        for (size_t a = 0; a < rel.attributes.size(); ++a) {
          int f = fk_of_attr[r][a];
          if (f >= 0) {
            const catalog::ForeignKey& fk = cat.foreign_key(f);
            const storage::Table& target = *targets[a];
            const size_t batched = fk.to_relation == r ? batch.size() : 0;
            const size_t total = target.num_rows() + batched;
            if (total == 0) {
              row[a] = Value::Null_();
            } else if (const size_t pick = Next() % total;
                       pick < target.num_rows()) {
              row[a] = target.at(pick, fk.to_attribute);
            } else {
              row[a] = batch[pick - target.num_rows()][fk.to_attribute];
            }
          } else if (single_int_pk &&
                     static_cast<int>(a) == rel.primary_key[0]) {
            // Globally unique ids avoid accidental cross-relation matches.
            row[a] = Value::Int(static_cast<int64_t>(r) * 1000000 + i + 1);
          } else {
            row[a] = ValueForClass(attr_class[a], i);
          }
        }
        // Composite keys (junction tables) must be unique. Sequential
        // single-int primary keys are unique by construction — skip the set
        // (at 1M rows it would dominate load time).
        if (single_int_pk) break;
        Row key;
        for (int pk : rel.primary_key) key.push_back(row[pk]);
        if (key.empty() || seen_keys.insert(key).second) break;
        if (attempt == 19) ok = false;  // saturated the key space
      }
      if (!ok) break;
      batch.push_back(std::move(row));
    }
    SFSQL_RETURN_IF_ERROR(db->InsertRows(r, std::move(batch)));
  }
  return Status::OK();
}

Result<storage::Row> DataGenerator::Plant(
    storage::Database* db, std::string_view relation,
    const std::map<std::string, Value>& values) {
  const Catalog& cat = db->catalog();
  SFSQL_ASSIGN_OR_RETURN(int r, cat.FindRelation(relation));
  const catalog::Relation& rel = cat.relation(r);

  Row row(rel.attributes.size());
  for (size_t a = 0; a < rel.attributes.size(); ++a) {
    auto it = values.find(rel.attributes[a].name);
    if (it != values.end()) {
      row[a] = it->second;
      continue;
    }
    // Unspecified FK attributes reference some existing target row.
    int fk_id = -1;
    for (int f = 0; f < cat.num_foreign_keys(); ++f) {
      const catalog::ForeignKey& fk = cat.foreign_key(f);
      if (fk.from_relation == r && fk.from_attribute == static_cast<int>(a)) {
        fk_id = f;
        break;
      }
    }
    if (fk_id >= 0) {
      const catalog::ForeignKey& fk = cat.foreign_key(fk_id);
      const storage::Table& target = db->table(fk.to_relation);
      row[a] = target.num_rows() == 0
                   ? Value::Null_()
                   : target.at(Next() % target.num_rows(), fk.to_attribute);
    } else if (rel.primary_key.size() == 1 &&
               rel.primary_key[0] == static_cast<int>(a) &&
               rel.attributes[a].type == ValueType::kInt64) {
      row[a] = Value::Int(static_cast<int64_t>(r) * 1000000 + 900000 +
                          static_cast<int64_t>(db->table(r).num_rows()));
    } else {
      row[a] = ValueFor(rel.attributes[a],
                        static_cast<int64_t>(db->table(r).num_rows()));
    }
  }
  for (const auto& [name, value] : values) {
    if (rel.AttributeIndex(name) < 0) {
      return Status::InvalidArgument(
          StrCat("Plant: relation '", rel.name, "' has no attribute '", name,
                 "'"));
    }
  }
  Row copy = row;
  SFSQL_RETURN_IF_ERROR(db->Insert(r, std::move(row)));
  return copy;
}

}  // namespace sfsql::workloads

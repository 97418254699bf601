#include "text/schema_name_index.h"

#include "common/strings.h"

namespace sfsql::text {

SchemaNameIndex::SchemaNameIndex(const std::vector<std::string>& names, int q)
    : q_(q) {
  for (const std::string& name : names) {
    std::string lower = ToLower(name);
    if (profiles_.count(lower) > 0) continue;
    profiles_.emplace(std::move(lower), BuildNameProfile(name, q));
  }
}

const NameProfile* SchemaNameIndex::Find(std::string_view name) const {
  auto it = profiles_.find(ToLower(name));
  return it == profiles_.end() ? nullptr : &it->second;
}

}  // namespace sfsql::text

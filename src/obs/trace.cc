#include "obs/trace.h"

namespace sfsql::obs {

void WriteForestJson(const std::vector<SpanRecord>& spans, JsonWriter& w) {
  std::vector<std::vector<int>> children(spans.size());
  std::vector<int> roots;
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && s.parent < static_cast<int>(spans.size())) {
      children[s.parent].push_back(s.id);
    } else {
      roots.push_back(s.id);
    }
  }
  auto write = [&](auto&& self, int id) -> void {
    const SpanRecord& s = spans[id];
    w.BeginObject();
    w.KV("name", s.name);
    w.KV("start_nanos", static_cast<unsigned long long>(s.start_nanos));
    w.KV("end_nanos", static_cast<unsigned long long>(s.end_nanos));
    w.KV("seconds", s.seconds());
    if (!s.attributes.empty()) {
      w.Key("attributes");
      w.BeginObject();
      for (const auto& [k, v] : s.attributes) w.KV(k, v);
      w.EndObject();
    }
    if (!children[id].empty()) {
      w.Key("children");
      w.BeginArray();
      for (int c : children[id]) self(self, c);
      w.EndArray();
    }
    w.EndObject();
  };
  w.BeginArray();
  for (int r : roots) write(write, r);
  w.EndArray();
}

}  // namespace sfsql::obs

#ifndef SFSQL_OBS_TRACE_H_
#define SFSQL_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/clock.h"
#include "obs/json.h"

namespace sfsql::obs {

/// One finished (or still-open) span. Attributes are stringified key/value
/// pairs in insertion order.
struct SpanRecord {
  int id = -1;
  int parent = -1;  ///< SpanRecord::id of the parent, -1 for roots
  std::string name;
  uint64_t start_nanos = 0;
  uint64_t end_nanos = 0;
  std::vector<std::pair<std::string, std::string>> attributes;

  double seconds() const { return NanosToSeconds(end_nanos - start_nanos); }
};

/// Writes `spans` as a nested forest: a JSON array of root span objects,
/// each with its attributes and a "children" array, children in id order
/// (ids are assigned as spans open, so this is start order). This is the
/// shape a QueryProfile embeds verbatim as its "trace" member. Spans whose
/// parent id is out of range are treated as roots.
void WriteForestJson(const std::vector<SpanRecord>& spans, JsonWriter& w);

}  // namespace sfsql::obs

#endif  // SFSQL_OBS_TRACE_H_

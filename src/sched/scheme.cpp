#include "sched/scheme.hpp"

#include "common/error.hpp"

namespace iscope {

const SchemeInfo& scheme_info(Scheme scheme) {
  const auto id = static_cast<std::size_t>(scheme);
  if (id >= kSchemeTable.size())
    throw InvalidArgument("unknown scheme id " + std::to_string(id));
  return kSchemeTable[id];
}

const char* scheme_name(Scheme scheme) { return scheme_info(scheme).name; }

KnowledgeSource scheme_knowledge(Scheme scheme) {
  return scheme_info(scheme).knowledge;
}

PlacementRule scheme_rule(Scheme scheme) { return scheme_info(scheme).rule; }

bool scheme_uses_scan(Scheme scheme) {
  return scheme_knowledge(scheme) == KnowledgeSource::kScan;
}

Scheme scheme_from_name(const std::string& name) {
  for (std::size_t i = 0; i < kSchemeTable.size(); ++i)
    if (name == kSchemeTable[i].name) return static_cast<Scheme>(i);
  throw InvalidArgument("unknown scheme name: " + name);
}

}  // namespace iscope

// One model generation's middlebox configuration renderings, built once.
//
// Middlebox::policy_fingerprint and Middlebox::encoding_projection derive
// from config_relations(), which builds the box's whole descriptor on every
// call - O(rows) for a firewall whose ACL has a row per subnet. The planner
// asks for the same (box, address) fingerprints and the same descriptors
// for every invariant of a batch, and class inference has already asked for
// every host's fingerprints before the first plan. A ConfigMemo builds each
// box's descriptor once and renders each (box, address) fingerprint once,
// through the same renderer (render_fingerprint), so every fingerprint it
// hands out is byte-identical to the Middlebox method's; projections are
// rendered by render_projection from the memoized descriptor.
//
// Entries are keyed by box identity, so a memo is only valid for the model
// that owns the boxes: verify::PlanContext holds one per model generation
// and Engine::rebind drops it with the context. Callers that pass none get
// a local one (the same idiom as dataplane::TransferCache). Single-threaded.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "mbox/middlebox.hpp"

namespace vmn::mbox {

class ConfigMemo {
 public:
  /// box.config_relations(), built on first use.
  [[nodiscard]] const ConfigRelations& relations(const Middlebox& box);
  /// box.policy_fingerprint(a), rendered on first use.
  [[nodiscard]] const std::string& fingerprint(const Middlebox& box,
                                               Address a);

 private:
  struct Entry {
    ConfigRelations relations;
    std::unordered_map<std::uint32_t, std::string> fingerprints;
  };
  Entry& entry(const Middlebox& box);

  std::unordered_map<const Middlebox*, Entry> entries_;
};

}  // namespace vmn::mbox

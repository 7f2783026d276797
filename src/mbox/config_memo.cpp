#include "mbox/config_memo.hpp"

namespace vmn::mbox {

ConfigMemo::Entry& ConfigMemo::entry(const Middlebox& box) {
  auto it = entries_.find(&box);
  if (it == entries_.end()) {
    it = entries_.emplace(&box, Entry{box.config_relations(), {}}).first;
  }
  return it->second;
}

const ConfigRelations& ConfigMemo::relations(const Middlebox& box) {
  return entry(box).relations;
}

const std::string& ConfigMemo::fingerprint(const Middlebox& box, Address a) {
  Entry& e = entry(box);
  auto it = e.fingerprints.find(a.bits());
  if (it == e.fingerprints.end()) {
    it = e.fingerprints.emplace(a.bits(), render_fingerprint(e.relations, a))
             .first;
  }
  return it->second;
}

}  // namespace vmn::mbox
